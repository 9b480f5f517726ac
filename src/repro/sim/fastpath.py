"""Array-native round data: chunks and the batch-body context.

:class:`repro.sim.machine.PIMMachine` is one round engine, and a module
function has one implementation: its **batch body**
``body(bct, chunks)``, registered with
:meth:`~repro.sim.machine.PIMMachine.register`.  Every message, on
every machine, is staged as a *chunk*, and a round on the engine makes
one body call per function over all of them, under a fault plan too.
The reference oracle alone unstages its chunks into per-destination
slots, and each task runs the same body over a one-row chunk.  This
module holds the chunks' data types and the body context; the round
loop itself lives on the machine.

Columnar layout
---------------

Staged traffic is a sequence of **chunks**, each one function id's
contiguous run of messages, in two streams mirroring the per-task loop's
CPU-before-forward delivery order::

    _cq (CPU-issued)    [ chunk(fn=A) | chunk(fn=B) | ... ]
    _fq (continuations) [ chunk(fn=A) | ... ]

    chunk kinds
      rows:  rows = [(dest, args, tag, size), ...]   (send / send_all /
                                                     stage_rows)
      cols:  dests = list of module ids; cols = tuple of payload
             columns, plain lists as long as ``dests`` (``send_cols``,
             for the ops pipeline's ``Columns`` stage element, and
             ``stage_cols``, for a body's forwards);
             counts = {dest: messages}, the one count of ``dests``
      bcast: one (args, tag, size) delivered to every module

Per-destination receive totals (the ``h``-relation's incoming half) are
accumulated *at append time* into one pooled flat counter list
(``_recv``; ``_active`` lists its non-zero entries), so a round never
scans or re-buckets messages.  A CPU-issued column chunk is counted
once, with ``collections.Counter``, when it is issued: that count is
its bounds check and its receive accounting, and it stays on the chunk
(``counts``) for a body whose work and sends per message are uniform.
A forwarded one is booked destination by destination, as forwarded
rows are (a round's forwards are too few for a ``Counter`` to pay),
and counted only if a body reads its ``counts``.
Row and column receivers share the one set of books; only a broadcast's
units are kept apart (``_bcast_units``: every module receives them).

Grouped dispatch
----------------

A round groups its chunks by function id and makes ONE body call per
function over all of its chunks -- the body loops over contiguous
slices, charging work and sends into flat per-module lists on the
shared :class:`BatchRound` context, and the round is finished by one
plain accounting loop over its receivers.  The engine never unstages
a round into slots.

Execution contract for batch bodies
-----------------------------------

Within a round, all model metrics (h, message count, per-module work
sums, the per-round PIM maximum) are order-independent, and the
per-destination multisets staged for the next round are preserved under
any execution order.  Batch bodies are therefore required to be:

- **order-insensitive** across the round's tasks: the metrics, the
  structure and the next round's staging may not depend on the order
  the round's tasks run in.  Tasks of one module keep their arrival
  order in every chunk loop, so module-local state (a leaf list, a
  cuckoo table) evolves exactly as under the per-task loop;
- **in slot order where order shows**: where the CPU side reduces the
  *replies* in arrival order (Delete contracts the marked nodes in reply
  order; the PIM-tree sums its pulls' non-integer charges in reply
  order) or where the *first* executor pays different charges than the
  rest (``ups_upper_link``, ``del_upper``, ``grow``: the first replica
  to run links, unlinks or grows the shared object and pays the
  descent, the others one unit), the body runs its rows through
  :meth:`BatchRound.rows_in_slot_order`, and its reply stream and its
  charges are the per-task loop's, element for element.  A write to a
  replicated node that stores a fixed value is idempotent, so a
  *broadcast* of it may be executed **once**, with P unit charges
  (``write_ptr``); and
- **RNG-free** (the machine's seeded stream must be consumed in the
  same order as under the per-task loop).

Touches: a body reports an access with ``bct.touch(mid, obj)``, guarded
by ``bct.tracing`` (access tracing or qrqw).  The round clears its
receivers' ``module.round_touch`` and, under qrqw, reads the hottest
queue back into the round's PIM maximum, as the scalar loop does.

Charging: a body charges into ``bct.work[mid]``.  It may also hand out
``module.charge`` -- the bound callback the module's local structures
already hold (the cuckoo table charges its probes through it; a
baseline's local skip list charges its hops) -- and the engine adds what
that left in ``round_work`` to the module's round total, for every
receiver of the round (a broadcast's included).  A mutator of a shared
replicated object that takes a charge callback (``link_upper_node``,
``grow_to_level``, ...) is handed one that writes ``bct.work[mid]``.

The skip list's and the PIM-tree's functions, by the form their rows
take.  Any function may be sent as a column chunk -- a column receiver
is accounted like a row receiver -- and the ones below under
"columns" are sent that way today: by a route (the ops pipeline's
``Columns`` element, from ``COLUMNS_CROSSOVER`` messages up) or, for
the walk, forwarded by a body (:meth:`BatchRound.stage_cols`)::

    columns  write_ptr                        a batch's writes as one column
                                              chunk, single writes as rows;
                                              broadcast executed once
             nd_step, sh_step, lf_get,        PIM-tree reads: one element per
             lf_succ, lf_scan                 function and stage, each a kernel
                                              written once (``bisect`` on the
                                              module's own lists) that reads
                                              a column chunk column-wise and
                                              replies in columns: one Reply
                                              per kernel call, a row per
                                              message (one row per slot task)
             search_entry, search_step        the walk (read-only): rows and
                                              columns read by one loop
                                              (``flat_rows``), a call's
                                              forwards staged as one column
                                              chunk, its answers in a "done"
                                              and a "path" column reply
             pt_get, pt_update,               hash-shortcut point tasks: the
             ups_try_update, del_mark         route's one ``Columns`` element
                                              (``shortcut_stage``); the first
                                              three answer one column reply
                                              a call (a tag run), del_mark a
                                              reply a row (see below)
             ups_insert_lower                 tower delivery (module-local)
    rows     ups_upper_prepare                broadcast, run per module: each
                                              replica's own storage + next-leaf
             del_mark_node                    in slot order (see above);
                                              del_mark too
             rng_root, rng_boundary,          the §5.2 range traversal: state
             rng_chain, rng_count, rng_go,    keyed (opid, token), one row
             rng_offset                       body per function
             load_lower, load_upper           the build: lower nodes as one
                                              column chunk, upper by broadcast
             load_finish                      one row per module: list ends,
                                              table load, next-leaf sweep
             nd_store, sh_store, lf_store,    PIM-tree maintenance, one row per
             lf_write, lf_del, sh_dump        node / leaf / module
             rng_bcast                        one broadcast per op, a
                                              different walk and reply on
                                              every module
             sel_*                            order statistics, per-module
                                              snapshots keyed by op id
    slot     ups_upper_link, del_upper, grow  first executor pays
    order    nd_pull, lf_pull                 the CPU side sums the pulls'
                                              non-integer charges in reply
                                              order

The range traversal's chunk forms were deferred while a traversal round
carried ~15 tasks (a prototype bought ~3 % of ``ops_per_s``); at ~31
tasks a round they pay.  On ``serve_mixed`` at fixed work (seed 7,
traced, Python 3.11 on a 2-core Xeon VM) ``sim.machine.drain_s`` reads
1.84 -> 1.55 s and the slot tasks 265 777 -> 21 376, the model values
are unchanged, and ``repro serve --clients 100`` runs 96 % of its tasks
chunked (69 % before); EXPERIMENTS.md has the paired end-to-end runs.

The contract is not just documented -- it is *certified empirically*.
The per-task reference oracle
(:class:`repro.sim.machine.ReferencePIMMachine`) runs the same bodies
one row per task, so it certifies chunking, ordering and accounting
(``tests/test_fastpath_census.py`` runs one session of every other
registering structure on both):
``repro.verify.differ`` replays fuzz sessions of the skip list and the
PIM-tree on it and requires bit-identical per-op metric streams and
results, and the parity tests (``tests/test_fastpath.py``,
``tests/test_fastpath_writes.py``, ``tests/test_fastpath_pimtree.py``)
compare the two round by round (``tests/test_fastpath_range.py`` op by
op).  The independent checks are the sequential oracle
(``repro.verify.oracle.SequentialOracle``: results) and the golden
suite (the costs the per-task loop produced).

What runs the per-task loop
---------------------------

The reference oracle alone.  A fault plan filters the staged chunks
instead (``repro.sim.chaos.ChaosState.filter_round``): it takes a
round's rows per destination -- a held destination's rows first, then
the CPU stream and the forwards, each in issue order -- drops, delays,
duplicates or corrupts envelopes, holds a stalled destination's rows
until they land ahead of its next traffic, and stages the survivors
again as chunks, destination by destination, which the engine's one
executor runs.  The envelope body (``chaos.deliver_envelope``) acks
and guards each row and hands each inner function's surviving rows to
its body as one chunk.  So under a plan one round may run a function
twice (its envelopes' rows, then its forwards) and may hold functions
a route keeps in separate rounds (a late envelope meets the next hop's
forwards): each call keeps slot order within itself, and a CPU side
that reduces two functions' replies together orders them itself
(Delete's ``_mark_order``).  ``install_fault_plan`` and
``uninstall_fault_plan`` both refuse while anything is pending, so a
plan starts and ends on a quiescent machine.

qrqw and access tracing run chunked (bodies report their touches,
above), and so does the profiler: it times each body call
(``profiler.add(fn, seconds, tasks)``; each slot task on the oracle) on
the rounds the machine runs unprofiled.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.task import Reply

# Chunk kinds.
ROWS, COLS, BCAST = 0, 1, 2

_row_dest = itemgetter(0)
_row_args = itemgetter(1)


class _Chunk:
    """One function id's contiguous run of staged messages."""

    __slots__ = ("fn", "kind", "rows", "dests", "cols", "_counts", "args",
                 "tag", "size")

    def __init__(self, fn: str, kind: int) -> None:
        self.fn = fn
        self.kind = kind
        self.rows: Optional[list] = None   # ROWS: [(dest, args, tag, size)]
        self.dests: Any = None             # COLS: list of destinations
        self.cols: Any = None              # COLS: tuple of payload columns
        self._counts: Optional[Dict[int, int]] = None  # see ``counts``
        self.args: Any = None              # BCAST: the shared args tuple
        self.tag: Any = None               # BCAST: the shared tag
        self.size: int = 1                 # COLS/BCAST: uniform message size

    @property
    def counts(self) -> Optional[Dict[int, int]]:
        """COLS: ``{dest: messages}``, the one count of ``dests``
        (``None`` for the other kinds).  ``send_cols`` counts a
        CPU-issued chunk when it stages it; a forwarded one
        (``stage_cols``) is counted here, on first read, by a body that
        charges from it."""
        if self._counts is None and self.kind == COLS:
            self._counts = Counter(self.dests)
        return self._counts

    def task_count(self, num_modules: int) -> int:
        if self.kind == ROWS:
            return len(self.rows)
        if self.kind == COLS:
            return len(self.dests)
        return num_modules


class BatchRound:
    """Per-round context handed to batch bodies.

    One instance lives on the machine and is re-armed each round; the
    flat per-module accumulators (:attr:`work`, :attr:`sent` --
    length-P lists indexed by module id) are pooled and slice-reset on
    re-arm, part of the zero-allocation steady state.  A batch body:

    - reads its tasks from the chunks it is passed;
    - appends :class:`~repro.sim.task.Reply` objects to :attr:`replies`
      -- a reply per message, or a *column reply* per run of messages
      (its ``src`` the list of modules that replied, a row each) --
      bumping ``sent[mid]`` by each row's units for the module that
      replied;
    - charges local work into ``work[mid]`` and message sends into
      ``sent[mid]`` -- only for modules that received tasks this round
      (the executing module of some task; charging elsewhere violates
      the execution contract); it may also pass
      ``machine.modules[mid].charge`` to module-local structures (see
      the module docstring's charging rule);
    - stages next-round continuations with :meth:`stage_rows` or, as
      columns, :meth:`stage_cols` (and charges their sends to
      ``sent[mid]``);
    - reports object accesses with :meth:`touch` when :attr:`tracing`.

    Work values must be integer-valued (the model charges unit RAM
    instructions), which keeps the per-module sums independent of the
    order a round's tasks are charged in and the metric stream
    bit-identical to the reference oracle's.
    """

    __slots__ = ("machine", "num_modules", "replies", "_idle", "work",
                 "sent", "tracing")

    def __init__(self, machine: "PIMMachine") -> None:  # noqa: F821
        self.machine = machine
        self.num_modules = machine.num_modules
        #: :attr:`replies` between rounds: an empty list of the context's
        #: own, never the last round's (which would keep its replies
        #: alive until the next round).
        self._idle: list = []
        self.replies: list = self._idle
        self.work: List[float] = [0.0] * machine.num_modules
        self.sent: List[int] = [0] * machine.num_modules
        #: True when :meth:`touch` records anything (access tracing or
        #: qrqw).
        self.tracing = machine.tracer.access.enabled or machine.qrqw

    def _arm(self, replies: list) -> None:
        self.replies = replies
        # Slice-reset the pooled accumulators (C-level copy from the zero
        # templates -- no reallocation).
        self.work[:] = self.machine._zeros_f
        self.sent[:] = self.machine._zeros_i

    def _disarm(self) -> None:
        """End the round: its replies leave with the caller alone."""
        self.replies = self._idle

    def reply(self, mid: int, payload: Any, tag: Any = None,
              size: int = 1) -> None:
        """Emit one reply from module ``mid`` (accounts the send)."""
        self.replies.append(Reply(payload, tag, mid))
        self.sent[mid] += size

    def touch(self, mid: int, obj: Any) -> None:
        """Record module ``mid``'s access to ``obj``: one count in the
        round's access trace and, under qrqw, in the module's queue for
        ``obj``, which the round reads back for its hottest-object
        charge.  Call it only when :attr:`tracing` is set."""
        machine = self.machine
        if machine._trace_access:
            machine.tracer.access._current[obj] += 1
        if machine.qrqw:
            machine.modules[mid].round_touch[obj] += 1

    def rows_of(self, ch: _Chunk) -> Iterable[tuple]:
        """The ``(dest, args, tag, size)`` rows of a chunk of any kind
        (a broadcast chunk yields one row per module)."""
        if ch.kind == ROWS:
            return ch.rows
        return self.machine._iter_chunk(ch)

    def flat_rows(self, ch: _Chunk) -> Iterable[tuple]:
        """A chunk's messages as ``(dest, *args)`` tuples, tag and size
        dropped: a column chunk's columns zipped (one C-level tuple a
        message), any other chunk's rows spelled out so."""
        if ch.kind == COLS:
            return zip(ch.dests, *ch.cols)
        rows = ch.rows if ch.kind == ROWS else list(self.rows_of(ch))
        if len(rows) == 1:  # a slot task's one row
            dest, args, _tag, _size = rows[0]
            return ((dest, *args),)
        return zip(map(_row_dest, rows), *zip(*map(_row_args, rows)))

    def rows(self, chunks: List[_Chunk]) -> Iterable[tuple]:
        """All rows of one function's ``chunks``, chunk by chunk."""
        return chain.from_iterable(map(self.rows_of, chunks))

    def rows_in_slot_order(self, chunks: List[_Chunk]) -> List[tuple]:
        """All rows of one function's ``chunks`` in the order the
        per-task loop would run them: destination ascending and, within
        one, CPU-issued before forwarded, arrival order (the engine
        passes the CPU stream's chunks first; the sort is stable).  For
        bodies whose *replies* feed an order-sensitive CPU-side
        reduction, or whose first executor pays: the reply stream and
        the charges then equal the reference oracle's element for
        element."""
        rows = list(self.rows(chunks))
        rows.sort(key=_row_dest)
        return rows

    # -- staging continuations --------------------------------------------

    def stage_rows(self, fn: str, rows: list) -> None:
        """Stage continuation rows ``[(dest, args, tag, size), ...]``
        for the next round (receive accounting included).  The sender
        side must be charged by the body via :attr:`sent`.  A
        destination outside ``[0, P)`` raises ``ValueError`` before
        anything is staged.  ``rows`` is kept: do not reuse the list."""
        self.machine._stage_fwd_rows(fn, rows)

    def stage_cols(self, fn: str, dests: list, cols: tuple) -> None:
        """Stage continuations as one column chunk: message ``i`` goes
        to module ``dests[i]`` with arguments ``(cols[0][i], cols[1][i],
        ...)``, no tag, size 1 -- the rows :meth:`stage_rows` would
        stage, receive accounting included, so the metric stream does
        not depend on the form.  The sender side must be charged by
        the body via :attr:`sent`.  A destination outside ``[0, P)``
        raises ``ValueError`` and a column of another length than
        ``dests`` :class:`~repro.sim.errors.MalformedMessageError`,
        before anything is staged.  ``dests`` and ``cols`` are plain
        lists, kept (a later call for the same function may extend
        them): do not reuse them."""
        self.machine._stage_fwd_cols(fn, dests, cols)
