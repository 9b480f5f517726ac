"""The PIM machine: modules + CPU side + bulk-synchronous network.

Execution model
---------------

Algorithms are CPU-side orchestration code that:

1. enqueues ``TaskSend`` messages with :meth:`PIMMachine.send` (or
   :meth:`PIMMachine.send_all` / :meth:`PIMMachine.broadcast`);
2. advances the network one bulk-synchronous round with
   :meth:`PIMMachine.step`, which delivers the pending messages, runs every
   delivered task on its module (charging PIM work), collects replies, and
   accounts the round's ``h``-relation toward IO time;
3. or calls :meth:`PIMMachine.drain` to step until quiescence, collecting
   all replies (continuation tasks forwarded module-to-module keep the
   network busy for multiple rounds, exactly like the paper's step-by-step
   "push each query one node further" execution).

A module function is one **batch body** ``body(bct, chunks)``
registered under a function id with :meth:`PIMMachine.register`: it
runs every task a round delivers for its function, reading rows from
the chunks and reporting work, sends, replies, forwards and touches
through the :class:`repro.sim.fastpath.BatchRound` context ``bct``.

One round engine
----------------

The round engine is the hot loop of every benchmark.  Every message,
on every machine and in every mode, is staged one way: appended to a
per-function **chunk** (see :mod:`repro.sim.fastpath` for the layout
and the execution contract).  A round on :class:`PIMMachine` makes ONE
body call per function over all of its chunks (``_array_round``), with
or without a fault plan: an installed plan first filters the staged
chunks (:meth:`repro.sim.chaos.ChaosState.filter_round` selects,
duplicates, delays, corrupts and holds rows and stages the survivors
again as chunks), then the same executor runs them.

What runs the per-task loop
---------------------------

:class:`ReferencePIMMachine` alone -- the per-task oracle the differ,
the tests and the perf gates compare the engine against.  Its round
unstages the chunks into per-destination slots (``_take_slots``), then
iterates the modules that received messages (in module-id order, for
reply-order stability) and runs the body over each task's one row
(``_run_round``); CPU-issued messages are delivered before
module-to-module continuations within a slot.

An unknown function id raises
:class:`~repro.sim.errors.UnknownHandlerError` when the message is
issued, not a round later.  Installing or uninstalling a fault plan
needs a quiescent machine.  qrqw and access tracing run chunked (bodies
report their touches through the batch context), and so does the
profiler: it times each body call as a whole (each slot task, on the
oracle).

Bookkeeping is gated: round logs (``trace_rounds``), access tracing
(``trace_accesses``) and qrqw queue accounting are no-ops when disabled
-- the flags are folded into the context at construction and checked
once per call or per round.

All *model* metrics (IO time, rounds, messages, sync cost, PIM time,
per-module work) are accounted exactly the same way on both; the
golden-metrics regression suite (``tests/test_golden_metrics.py``) pins
the values the per-task loop produced on seed workloads.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import repeat
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.sim.chaos import (DELIVER_FN, ChaosState, FaultPlan,
                             deliver_envelope)
from repro.sim.config import MachineConfig
from repro.sim.cpu import CPUSide
from repro.sim.errors import (LivelockError, MalformedMessageError,
                              UnknownHandlerError)
from repro.sim.fastpath import BCAST, COLS, ROWS, BatchRound, _Chunk
from repro.sim.metrics import Metrics, MetricsDelta
from repro.sim.module import PIMModule
from repro.sim.task import Reply
from repro.sim.tracing import Tracer

def _bad_size(what: str, size: Any) -> MalformedMessageError:
    """The error every CPU-side issue call raises for a ``size`` that is
    not a positive ``int``: staging it would run the task while the
    round's message and h-relation counts miss it."""
    return MalformedMessageError(
        f"{what} has invalid size {size!r}: a message size must be a "
        f"positive int (constant-size message units)")


def check_columns(what: str, dests: Sequence[int],
                  cols: Sequence[Sequence[Any]]) -> None:
    """Raise :class:`MalformedMessageError` unless ``cols`` is at least
    one column and each is as long as ``dests``: ``zip`` would silently
    cut the messages at the shortest column while the receive accounting
    counts ``dests``."""
    n = len(dests)
    for col in cols:
        if len(col) != n:
            break
    else:
        if cols:
            return
    raise MalformedMessageError(
        f"{what} has columns of lengths {[len(col) for col in cols]} "
        f"for {n} destinations: expected at least one column, each as "
        f"long as dests")


class PIMMachine:
    """A simulated PIM system with ``P`` modules and an ``M``-word cache.

    Parameters mirror :class:`repro.sim.config.MachineConfig`; pass either a
    config or keyword arguments.

    Examples
    --------
    >>> m = PIMMachine(num_modules=4, seed=1)
    >>> def hello(bct, chunks):  # one call per round, every row of it
    ...     for mid, (x,), tag, _size in bct.rows(chunks):
    ...         bct.work[mid] += 1
    ...         bct.reply(mid, x * 2, tag)
    >>> m.register("hello", hello)
    >>> m.send(2, "hello", (21,))
    >>> [r.payload for r in m.drain()]
    [42]

    There is one round engine and no option that selects another: every
    round runs array-native, under an installed fault plan too (the
    plan filters the staged chunks first).
    """

    def __init__(self, num_modules: Optional[int] = None,
                 config: Optional[MachineConfig] = None, **kwargs: Any) -> None:
        if config is None:
            if num_modules is None:
                raise ValueError("num_modules or config required")
            config = MachineConfig(num_modules=num_modules, **kwargs)
        elif num_modules is not None and num_modules != config.num_modules:
            raise ValueError("num_modules conflicts with config")
        self.config = config
        self.num_modules = config.num_modules
        self.rng = random.Random(config.seed)
        self.metrics = Metrics(num_modules=self.num_modules)
        self.cpu = CPUSide(
            self.metrics,
            shared_memory_words=config.resolved_shared_memory_words,
            enforce=config.enforce_shared_memory,
        )
        self.modules: List[PIMModule] = [
            PIMModule(
                mid,
                local_memory_words=config.local_memory_words,
                enforce=config.enforce_local_memory,
            )
            for mid in range(self.num_modules)
        ]
        self.tracer = Tracer(trace_accesses=config.trace_accesses)
        self.qrqw = config.contention_model == "qrqw"
        self.tasks_executed = 0  # cumulative, across all rounds
        self._tasks_chunked = 0  # of those, run by body calls over chunks
        #: Optional per-batch metric feed: when set to a callable
        #: ``observer(op_name, delta)``, the op-pipeline driver
        #: (:func:`repro.ops.run_batch`) reports every completed op's
        #: :class:`~repro.sim.metrics.MetricsDelta`.  Used by
        #: ``repro.verify`` to check cost invariants batch by batch;
        #: observers must be passive (no sends, no charging).
        self.batch_observer: Optional[Callable[[str, MetricsDelta], None]] = None
        #: Outermost batch scopes entered on this machine so far (see
        #: :func:`repro.ops.batch_epoch`, which also owns the depth).
        self.batch_epochs = 0
        self._epoch_depth = 0
        # fn -> batch body (see register): a round's tasks for fn run as
        # ONE call over contiguous chunks.
        self._handlers: Dict[str, Callable[..., None]] = {}
        # Chunk staging (see repro.sim.fastpath): CPU-issued and
        # forwarded chunk streams, per-destination receive units of the
        # row and column chunks (``_recv``, pooled; ``_active`` lists its
        # non-zero entries) and of the broadcast chunks, and their
        # running total.
        P = self.num_modules
        self._cq: List[_Chunk] = []
        self._fq: List[_Chunk] = []
        self._recv: List[int] = [0] * P
        self._recv_spare: Optional[List[int]] = None
        self._active: List[int] = []
        self._bcast_units = 0
        self._incoming_total = 0
        # Zero templates for slice-resetting the BatchRound's pooled
        # flat accumulators.
        self._zeros_f: List[float] = [0.0] * P
        self._zeros_i: List[int] = [0] * P
        self._bct = BatchRound(self)
        self._log_p = config.log_p
        self._trace_rounds = config.trace_rounds
        self._trace_access = config.trace_accesses
        self._profiler: Optional[Any] = None
        # Installed fault plan (see repro.sim.chaos).  None on the
        # fault-free path: the round loop pays exactly one attribute
        # check per round for the chaos capability.
        self._chaos: Optional[ChaosState] = None
        # Modules whose DRAM was wiped.  The chaos filter keeps them
        # unreachable for the machine's lifetime (typed faults, not
        # KeyErrors on missing state); recovery abandons the machine.
        self.wiped_modules: set = set()

    # -- handler registry ---------------------------------------------------

    def register(self, fn: str, body: Callable[..., None]) -> None:
        """Register ``body`` as the one implementation of ``fn``.

        A batch body ``body(bct, chunks)`` processes one round's entire
        task population for ``fn`` in a single call over contiguous
        chunk buffers (see :class:`repro.sim.fastpath.BatchRound`).
        :class:`ReferencePIMMachine` runs the same body over each task's
        one row, so the reference oracle certifies chunking, ordering
        and accounting;
        :class:`repro.verify.oracle.SequentialOracle` (results) and the
        golden suite (the costs the per-task loop produced) stay the
        independent checks.

        Bodies must keep the execution contract: order-insensitive
        within a round, or in slot order where order shows, and no reads
        of the machine RNG (see ``repro/sim/fastpath.py``).

        Re-registering a different callable under an existing id is an
        error (two structures must not collide on a function id); the
        identical callable is a no-op, so structures can be constructed
        repeatedly on one machine.
        """
        existing = self._handlers.get(fn)
        if existing is not None and existing is not body:
            raise ValueError(f"handler id {fn!r} already registered")
        self._handlers[fn] = body

    @property
    def backend(self) -> str:
        """A read-only label, not a selector: ``"columnar"`` on the
        engine, ``"object"`` on :class:`ReferencePIMMachine`."""
        return "columnar"

    @property
    def tasks_chunked(self) -> int:
        """How many of :attr:`tasks_executed` ran inside a body call over
        chunks rather than through a slot.  :attr:`columnar_active` says
        the array-native path is *on*; this says how much of the
        traffic it actually carries."""
        return self._tasks_chunked

    @property
    def columnar_active(self) -> bool:
        """A read-only label: True on the engine, whose every round runs
        array-native (under a fault plan, qrqw and access tracing too);
        False on :class:`ReferencePIMMachine`."""
        return True

    def _iter_chunk(self, ch: _Chunk) -> Iterable[tuple]:
        """The ``(dest, args, tag, size)`` rows of a chunk of any kind.
        The column and broadcast forms are C-level iterators: a body with
        no arm of its own for them reads their rows without an
        interpreted step per row."""
        if ch.kind == ROWS:
            return ch.rows
        if ch.kind == COLS:
            return zip(ch.dests, zip(*ch.cols), repeat(None),
                       repeat(ch.size))
        return zip(range(self.num_modules), repeat(ch.args),
                   repeat(ch.tag), repeat(ch.size))

    # -- profiling ----------------------------------------------------------

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) a per-handler time profiler.

        The profiler must expose ``add(fn, seconds, tasks=1)``; see
        :class:`repro.sim.profiling.HandlerProfile`.  Attaching it
        changes no routing: the engine times every body call (one
        ``add`` per call, with the number of tasks it ran), the oracle
        every slot task (one ``add`` per task), so the profile is of the
        rounds the machine runs unprofiled.  Attach it only when
        attributing wall time.
        """
        self._profiler = profiler

    # -- message issue ----------------------------------------------------

    def send(self, dest: int, fn: str, args: tuple = (), tag: Any = None,
             size: int = 1) -> None:
        """Queue a ``TaskSend`` from the CPU side to module ``dest``.

        ``size`` (constant-size message units) must be a positive
        ``int``, as in :meth:`send_all`.
        """
        if not 0 <= dest < self.num_modules:
            raise ValueError(f"bad module id {dest}")
        if type(size) is not int or size < 1:
            raise _bad_size(f"send {(dest, fn)}", size)
        if fn not in self._handlers:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        self._stage_row(self._cq, fn, dest, args, tag, size)

    def send_all(self, messages: Iterable[Sequence]) -> None:
        """Queue many CPU->PIM messages in one call.

        Each message is ``(dest, fn, args, tag)`` or, with an explicit
        message size in constant-size units, ``(dest, fn, args, tag,
        size)``.  This is the allocation-light bulk path: a message is
        appended directly to its function's tail chunk, the function
        resolved once per run of messages for the same function.
        Malformed messages -- wrong arity, or a size element that is not
        a positive ``int`` -- raise
        :class:`~repro.sim.errors.MalformedMessageError` here, at issue
        time, rather than corrupting the round accounting.
        """
        handlers = self._handlers
        n = self.num_modules
        cq = self._cq
        recv = self._recv
        active = self._active
        inc = 0
        # Resolved once per run of same-fn messages: the run's row chunk.
        run_fn = None
        tail = None
        try:
            for msg in messages:
                if len(msg) == 4:
                    dest, fn, args, tag = msg
                    size = 1
                elif len(msg) == 5:
                    dest, fn, args, tag, size = msg
                    if type(size) is not int or size < 1:
                        raise _bad_size(f"send_all message {(dest, fn)}",
                                        size)
                else:
                    raise MalformedMessageError(
                        f"send_all message has {len(msg)} elements; "
                        f"expected (dest, fn, args, tag) or (dest, fn, "
                        f"args, tag, size): {msg!r}")
                if not 0 <= dest < n:
                    raise ValueError(f"bad module id {dest}")
                if fn != run_fn:
                    if fn not in handlers:
                        raise UnknownHandlerError(
                            f"no handler for {fn!r} (resolved at send time)")
                    run_fn = fn
                    if cq and cq[-1].fn == fn and cq[-1].kind == ROWS:
                        tail = cq[-1]
                    else:
                        tail = _Chunk(fn, ROWS)
                        tail.rows = []
                        cq.append(tail)
                if recv[dest] == 0:
                    active.append(dest)
                recv[dest] += size
                inc += size
                tail.rows.append((dest, args, tag, size))
        finally:
            self._incoming_total += inc

    def broadcast(self, fn: str, args: tuple = (), tag: Any = None,
                  size: int = 1) -> None:
        """Queue one message to every module (an h=1 relation by itself).

        ``size`` must be a positive ``int``, as in :meth:`send_all`.
        """
        if type(size) is not int or size < 1:
            raise _bad_size(f"broadcast {fn!r}", size)
        if fn not in self._handlers:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        ch = _Chunk(fn, BCAST)
        ch.args = args
        ch.tag = tag
        ch.size = size
        self._cq.append(ch)
        self._bcast_units += size
        self._incoming_total += size * self.num_modules

    def send_cols(self, fn: str, dests: Sequence[int],
                  cols: Sequence[Sequence[Any]], size: int = 1) -> None:
        """Issue one CPU-side batch of messages as a column chunk.

        The bulk form of :meth:`send_all` for one function's messages:
        message ``i`` goes to module ``dests[i]`` with arguments
        ``(cols[0][i], cols[1][i], ...)``, no tag.  ``dests`` and every
        column are plain lists of one length; they land as one chunk
        that ``fn``'s body reads next round.  The destinations are
        counted once: that count is the bounds check, the receive
        accounting -- the same per-module units and task counts as
        sending the rows one by one, so metric streams do not depend on
        which form a caller uses -- and the chunk's ``counts``.  A column of another length than ``dests`` (or no
        column at all) raises
        :class:`~repro.sim.errors.MalformedMessageError`, a module id
        outside ``[0, P)`` ``ValueError``, an unknown ``fn``
        :class:`~repro.sim.errors.UnknownHandlerError`; nothing is
        staged then.  Its production caller is the ops pipeline's
        driver, for a :class:`repro.ops.Columns` stage element (under a
        fault plan the driver wraps the rows in reliable-delivery
        envelopes instead).  ``size`` must be a positive ``int``, as in
        :meth:`send_all`.
        """
        if type(size) is not int or size < 1:
            raise _bad_size(f"send_cols {fn!r}", size)
        if fn not in self._handlers:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        cols = tuple(cols)
        check_columns(f"send_cols {fn!r}", dests, cols)
        n = len(dests)
        if not n:
            return
        counts = Counter(dests)
        P = self.num_modules
        for mid in counts:
            if not 0 <= mid < P:
                raise ValueError(f"bad module id {mid}")
        ch = _Chunk(fn, COLS)
        ch.dests = dests
        ch.cols = cols
        ch._counts = counts
        ch.size = size
        recv = self._recv
        active = self._active
        for mid, k in counts.items():
            if recv[mid] == 0:
                active.append(mid)
            recv[mid] += k * size
        self._incoming_total += n * size
        self._cq.append(ch)

    def _discard_staged(self) -> None:
        """Drop every staged message, unrun and uncharged: the ops
        driver's cleanup of a stage rejected part-way through its
        issue."""
        recv = self._recv
        for mid in self._active:
            recv[mid] = 0
        self._active = []
        self._cq = []
        self._fq = []
        self._bcast_units = 0
        self._incoming_total = 0

    # -- chunk staging ------------------------------------------------------

    def _stage_row(self, queue: List[_Chunk], fn: str, dest: int,
                   args: tuple, tag: Any, size: int) -> None:
        """Append one message row to ``queue``'s tail chunk for ``fn``
        (receive accounting included)."""
        recv = self._recv
        if recv[dest] == 0:
            self._active.append(dest)
        recv[dest] += size
        self._incoming_total += size
        if queue:
            tail = queue[-1]
            if tail.fn == fn and tail.kind == ROWS:
                tail.rows.append((dest, args, tag, size))
                return
        ch = _Chunk(fn, ROWS)
        ch.rows = [(dest, args, tag, size)]
        queue.append(ch)

    def _stage_fwd_rows(self, fn: str, rows: list) -> None:
        """Bulk-append continuation rows (``BatchRound.stage_rows``);
        a destination outside ``[0, P)`` raises ``ValueError`` before
        anything is staged."""
        if not rows:
            return
        if fn not in self._handlers:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        P = self.num_modules
        recv = self._recv
        active = self._active
        n_active = len(active)
        inc = 0
        try:
            for dest, _args, _tag, size in rows:
                if dest < 0:
                    raise IndexError(dest)
                if recv[dest] == 0:
                    active.append(dest)
                recv[dest] += size
                inc += size
        except IndexError:
            # Take back the rows counted before the bad one (the hot loop
            # checks only the sign; ``recv`` bounds the rest).
            bad = dest
            for dest, _args, _tag, size in rows:
                if not 0 <= dest < P:
                    break
                recv[dest] -= size
            del active[n_active:]
            raise ValueError(f"bad module id {bad}") from None
        self._incoming_total += inc
        fq = self._fq
        if fq:
            tail = fq[-1]
            if tail.fn == fn and tail.kind == ROWS:
                tail.rows.extend(rows)
                return
        ch = _Chunk(fn, ROWS)
        ch.rows = rows
        fq.append(ch)

    def _stage_fwd_cols(self, fn: str, dests: list, cols: tuple) -> None:
        """Stage continuation columns (``BatchRound.stage_cols``) as a
        column chunk, booked by :meth:`_stage_fwd_rows`'s plain loop: a
        destination outside ``[0, P)`` raises ``ValueError`` with the
        units counted before it taken back, nothing staged.  Columns
        for the function of the tail forward chunk extend it (the
        reference oracle stages a task's forwards at a time)."""
        if not dests:
            return
        if fn not in self._handlers:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        check_columns(f"stage_cols {fn!r}", dests, cols)
        P = self.num_modules
        recv = self._recv
        active = self._active
        n_active = len(active)
        try:
            for dest in dests:
                if dest < 0:
                    raise IndexError(dest)
                k = recv[dest]
                if k == 0:
                    active.append(dest)
                recv[dest] = k + 1
        except IndexError:
            bad = dest
            for dest in dests:
                if not 0 <= dest < P:
                    break
                recv[dest] -= 1
            del active[n_active:]
            raise ValueError(f"bad module id {bad}") from None
        self._incoming_total += len(dests)
        fq = self._fq
        if fq:
            tail = fq[-1]
            if (tail.fn == fn and tail.kind == COLS
                    and len(tail.cols) == len(cols)):
                tail.dests.extend(dests)
                for col, more in zip(tail.cols, cols):
                    col.extend(more)
                return
        ch = _Chunk(fn, COLS)
        ch.dests = dests
        ch.cols = cols
        self._fq.append(ch)

    # -- round execution -----------------------------------------------------

    def step(self) -> List[Reply]:
        """Execute one bulk-synchronous round; return replies to the CPU.

        Delivers all pending messages (CPU-issued plus continuations
        forwarded during the previous round), executes each module's tasks,
        and charges the round's ``h``-relation: ``h`` is the maximum over
        modules of messages sent plus received this round (the CPU side is
        not counted, per the model).  Also charges ``log2 P`` of barrier
        synchronization cost and advances the per-round PIM-time maximum.

        With a fault plan installed (:meth:`install_fault_plan`) the
        chaos filter rewrites the staged chunks first; the same executor
        then runs what it left.
        """
        if self._chaos is not None and not self._filter_round():
            return []
        return self._array_round() if self._cq or self._fq else []

    def _hottest_queue(self, mids: Iterable[int],
                       round_pim_max: float) -> float:
        """The queue-write variant (paper §2.1 Discussion): a module's
        round time is at least its hottest object's access-queue length,
        so the round's PIM maximum is at least the longest queue of any
        of its receivers ``mids``."""
        modules = self.modules
        for mid in mids:
            touches = modules[mid].round_touch
            if touches:
                hottest = max(touches.values())
                if hottest > round_pim_max:
                    round_pim_max = hottest
        return round_pim_max

    def _commit_round(self, h: int, total_msgs: int, round_pim_max: float,
                      tasks: int) -> None:
        """Charge one finished round to the model metrics."""
        metrics = self.metrics
        metrics.io_time += h
        metrics.rounds += 1
        metrics.messages += total_msgs
        metrics.sync_cost += self._log_p
        metrics.pim_time += round_pim_max
        # metrics.pim_work_per_module is synced lazily from the modules at
        # measurement points (snapshot / delta_since), not per round.
        self.tasks_executed += tasks

        if self._trace_rounds:
            self.tracer.log_round(metrics.rounds - 1, h, total_msgs,
                                  round_pim_max, tasks)
        elif self._trace_access:
            self.tracer.access.end_round()

    def _array_round(self) -> List[Reply]:
        """One round with chunks pending: every chunked function runs as
        one body call, then one accounting loop covers the receivers.
        Under qrqw every receiver's touches are cleared first and its
        hottest object read back last; an attached profiler times each
        body call."""
        P = self.num_modules
        cq = self._cq
        fq = self._fq
        recv = self._recv
        active = self._active
        bcast_units = self._bcast_units
        incoming_total = self._incoming_total
        # Install fresh staging (pooled recv buffer) for the messages
        # this round's bodies emit toward the NEXT round.
        spare = self._recv_spare
        if spare is None:
            spare = [0] * P
        else:
            self._recv_spare = None
        self._cq = []
        self._fq = []
        self._recv = spare
        self._active = []
        self._bcast_units = 0
        self._incoming_total = 0

        replies: List[Reply] = []
        bct = self._bct
        bct._arm(replies)
        bwork = bct.work
        bsent = bct.sent
        modules = self.modules
        # Every receiver (all P under a broadcast) starts the round with
        # ``round_work`` zero and has it read back afterwards, so a body
        # may charge it through ``module.charge`` -- the callback its
        # local structures hold -- as well as through ``bct.work``.
        receivers = range(P) if bcast_units else active
        for mid in receivers:
            modules[mid].round_work = 0.0
        qrqw = self.qrqw
        if qrqw:
            for mid in receivers:
                modules[mid].round_touch.clear()
        tasks = 0
        profiler = self._profiler

        # Grouped dispatch: one call per function id over its chunks.
        by_fn: Dict[str, List[_Chunk]] = {}
        chunked = 0
        for chunks in (cq, fq):
            for ch in chunks:
                chunked += ch.task_count(P)
                lst = by_fn.get(ch.fn)
                if lst is None:
                    by_fn[ch.fn] = [ch]
                else:
                    lst.append(ch)
        tasks += chunked
        self._tasks_chunked += chunked
        bodies = self._handlers
        for fn, fn_chunks in by_fn.items():
            if profiler is None:
                bodies[fn](bct, fn_chunks)
            else:
                t0 = perf_counter()
                bodies[fn](bct, fn_chunks)
                profiler.add(fn, perf_counter() - t0,
                             sum(ch.task_count(P) for ch in fn_chunks))

        # -- round accounting (exact; see repro.sim.fastpath) ---------------
        # Charges made through ``bct`` are folded into cumulative
        # per-module work here (``module.charge`` already added its own);
        # a module's round total is the two together.
        h = 0
        round_pim_max = 0.0
        sent_total = 0
        for mid in receivers:
            module = modules[mid]
            w = bwork[mid]
            if w:
                module.work += w
                module.round_work += w
            w = module.round_work
            s = bsent[mid]
            sent_total += s
            hm = recv[mid] + bcast_units + s
            if hm > h:
                h = hm
            if w > round_pim_max:
                round_pim_max = w
        if qrqw:
            round_pim_max = self._hottest_queue(receivers, round_pim_max)

        self._commit_round(h, incoming_total + sent_total, round_pim_max,
                           tasks)
        bct._disarm()
        # Return the consumed recv buffer to the pool, zeroed.
        for mid in active:
            recv[mid] = 0
        if self._recv_spare is None:
            self._recv_spare = recv
        return replies

    # -- unreliable execution (chaos) ---------------------------------------

    def _filter_round(self) -> bool:
        """Apply the installed fault plan to the staged round; True when
        it left anything to run.

        The chaos filter decides each staged row's fate (deliver, drop,
        duplicate, delay, corrupt; a stalled destination's rows are held
        and a crashed one's lost or a hard fault) and stages the
        survivors again as chunks, so the round runs through the
        machine's own executor and all cost accounting is identical.  A
        round with nothing deliverable but work still in flight (delayed
        messages, held rows) is charged as an *idle* round -- waiting on
        the network is not free.
        """
        chaos = self._chaos
        assert chaos is not None
        rnd = self.metrics.rounds - chaos.base_round
        chaos.begin_round(self, rnd)
        chaos.filter_round(self, rnd)
        if self._cq or self._fq:
            return True
        if chaos.has_pending():
            self._charge_idle_round()
        return False

    def _charge_idle_round(self) -> None:
        """Advance one round in which nothing is delivered.

        Charges the barrier synchronization cost (``log2 P``) and the
        round count, but no IO, messages or PIM work -- the honest price
        of a straggler wait or a retry backoff window.
        """
        self._commit_round(0, 0, 0.0, 0)
        if self._chaos is not None:
            self._chaos.stats.idle_rounds += 1

    def idle_rounds(self, count: int) -> None:
        """Charge ``count`` idle rounds (retry backoff windows)."""
        for _ in range(count):
            self._charge_idle_round()

    # -- fault plan lifecycle -----------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> ChaosState:
        """Arm a :class:`~repro.sim.chaos.FaultPlan` on this machine.

        Event rounds in the plan are interpreted relative to the install
        point.  Installing also registers the protocol's envelope body
        and makes :func:`repro.ops.run_batch` wrap every CPU->module
        message in the reliable-delivery protocol; until
        :meth:`uninstall_fault_plan` the chaos filter rewrites each
        round's staged chunks before it runs.  Refuses while any message is :attr:`pending` -- rows,
        columns, broadcasts or a previous plan's held messages -- so
        every message a plan sees was issued under it.  Returns the
        runtime :class:`~repro.sim.chaos.ChaosState` (fault statistics,
        delayed and stalled messages).
        """
        if self.pending:
            raise RuntimeError("cannot install a fault plan with messages "
                               "pending; drain first")
        self.register(DELIVER_FN, deliver_envelope)
        self._chaos = ChaosState(plan, base_round=self.metrics.rounds)
        return self._chaos

    def uninstall_fault_plan(self) -> Optional[ChaosState]:
        """Disarm the fault plan, restoring the perfect network.

        Refuses while any message is :attr:`pending`, as
        :meth:`install_fault_plan` does: chaos-held (delayed or stalled)
        messages would be silently lost, and a message issued under the
        plan is an envelope whose ack only the protocol's drain reads.
        """
        chaos = self._chaos
        if self.pending:
            raise RuntimeError("cannot uninstall a fault plan with "
                               "messages pending or held by the plan; "
                               "drain first")
        self._chaos = None
        return chaos

    def wipe_module(self, mid: int) -> None:
        """Simulate total local-DRAM loss on module ``mid``.

        Clears the module's structure state, its footprint accounting
        and its replay guards (a wiped module cannot remember which
        deliveries it executed -- safe, because an acknowledged envelope
        was executed *before* the wipe destroyed its guard, and the
        recovery layer rebuilds state rather than replaying messages).
        Used by crash-and-wipe fault schedules and recovery tests.

        The module is never repaired in place: it stays in
        :attr:`wiped_modules` until the recovery manager fails over to
        standby hardware and abandons this machine.
        """
        module = self.modules[mid]
        module.state.clear()
        module.words_used = 0
        module._seen_seqs = None
        # Under a fault plan the module stays unreachable (protocol
        # envelopes are dead-dropped, anything else is a typed
        # ModuleCrashed) -- a blank module serving traffic would fault
        # on missing state instead of failing typed.
        self.wiped_modules.add(mid)

    def drain(self, max_rounds: int = 1_000_000,
              label: Optional[str] = None) -> List[Reply]:
        """Step until the network is quiescent; return all replies.

        Executes at most ``max_rounds`` rounds; if messages are still
        pending after exactly that many, raises
        :class:`~repro.sim.errors.LivelockError` naming the originating
        op (``label``, supplied by the op-pipeline driver) and the
        pending handler function ids -- the usual cause is a livelocked
        forwarding cycle, and the handler id is what identifies it.
        """
        replies: List[Reply] = []
        rounds = 0
        while self.pending:
            if rounds >= max_rounds:
                raise LivelockError(
                    self._livelock_report(rounds, max_rounds, label))
            replies.extend(self.step())
            rounds += 1
        return replies

    def _pending_stats(self) -> tuple:
        """Pending-queue diagnostics: ``({mid: tasks}, {fn: tasks})``,
        module ids in ascending order, over the chunks and the rows a
        stall holds alike."""
        pending: Dict[int, int] = {}
        by_fn: Dict[str, int] = {}
        held = self._chaos.held if self._chaos is not None else {}
        for mid, queues in held.items():
            for queue in queues:
                pending[mid] = pending.get(mid, 0) + len(queue)
                for row in queue:
                    by_fn[row[0]] = by_fn.get(row[0], 0) + 1
        for chunks in (self._cq, self._fq):
            for ch in chunks:
                by_fn[ch.fn] = (by_fn.get(ch.fn, 0)
                                + ch.task_count(self.num_modules))
                for dest, _args, _tag, _size in self._iter_chunk(ch):
                    pending[dest] = pending.get(dest, 0) + 1
        return dict(sorted(pending.items())), by_fn

    def _livelock_report(self, rounds: int, max_rounds: int,
                         label: Optional[str]) -> str:
        """The drain-exhaustion report: op label, handlers, queue depths."""
        pending, by_fn = self._pending_stats()
        total = sum(pending.values())
        shown = dict(list(pending.items())[:8])
        more = "" if len(pending) <= 8 else \
            f" (+{len(pending) - 8} more modules)"
        fn_list = sorted(by_fn.items(), key=lambda kv: (-kv[1], kv[0]))
        fn_shown = ", ".join(f"{fn}={cnt}" for fn, cnt in fn_list[:8])
        fn_more = "" if len(fn_list) <= 8 else \
            f" (+{len(fn_list) - 8} more handler ids)"
        origin = f" during op {label!r}" if label else ""
        report = (
            f"drain{origin} executed {rounds} rounds (max_rounds="
            f"{max_rounds}) with {total} tasks still pending; "
            f"livelock?  pending handlers: {fn_shown}{fn_more}; "
            f"pending tasks per module: {shown}{more}"
        )
        chaos = self._chaos
        if chaos is not None:
            # Delayed messages held by the fault plan count as pending
            # work: separate genuinely stuck ops from in-flight protocol
            # retries / chaos-held traffic.
            report += "; " + chaos.describe(
                self.metrics.rounds - chaos.base_round)
            rdp = getattr(self, "_rdp", None)
            if rdp is not None and rdp.inflight:
                report += "; " + rdp.describe()
        return report

    @property
    def pending(self) -> bool:
        """True if messages await delivery in a future round (including
        messages the fault plan is holding back for later rounds)."""
        if self._cq or self._fq:
            return True
        chaos = self._chaos
        return chaos is not None and chaos.has_pending()

    # -- measurement helpers ------------------------------------------------

    def _sync_pim_work(self) -> None:
        """Pull per-module cumulative work into the metrics accumulator.

        Work can be charged outside a network round (e.g. bulk
        construction charges module work directly); syncing here keeps
        snapshots exact.
        """
        for mid, module in enumerate(self.modules):
            self.metrics.pim_work_per_module[mid] = module.work

    def snapshot(self) -> MetricsDelta:
        """Snapshot metrics (see :meth:`repro.sim.metrics.Metrics.snapshot`)."""
        self._sync_pim_work()
        return self.metrics.snapshot()

    def delta_since(self, before: MetricsDelta) -> MetricsDelta:
        """Metrics accumulated since ``before`` (a prior snapshot)."""
        self._sync_pim_work()
        return self.metrics.delta_since(before)

    # -- randomness ---------------------------------------------------------

    def random_module(self) -> int:
        """A uniformly random module id (from the machine's seeded stream)."""
        return self.rng.randrange(self.num_modules)

    def spawn_rng(self, salt: int) -> random.Random:
        """A deterministic child RNG (for structures sharing the machine)."""
        return random.Random((self.config.seed << 20) ^ salt)


class ReferencePIMMachine(PIMMachine):
    """The per-task reference oracle: messages are staged as chunks, as
    on the engine, and every round is unstaged into per-destination
    slots and run by the scalar loop, each task its function's batch
    body over its one row.

    This is what the engine is certified against -- the differ's
    cross-engine replay, the parity tests and the perf gates construct
    it by name; nothing on a production path does, and no string, config
    field or environment variable selects it.  Under a fault plan it
    runs the rows the chaos filter staged, as the engine does.
    """

    @property
    def backend(self) -> str:
        return "object"

    @property
    def columnar_active(self) -> bool:
        return False

    def step(self) -> List[Reply]:
        """One round as :meth:`PIMMachine.step`, run by the per-task
        loop over the round's unstaged slots."""
        if self._chaos is not None and not self._filter_round():
            return []
        slots = self._take_slots()
        return self._run_round(slots) if slots else []

    def _take_slots(self) -> Dict[int, list]:
        """Unstage the pending chunks into per-destination slots
        ``{mid: [units, cpu_entries, forward_entries]}``, each entry
        ``(body, args, tag, fn)``: the CPU stream, then the forwards, in
        issue order, the units summed from the rows themselves (never
        from the receive books, which the oracle's own accounting
        checks).  The staging is left empty: bodies run this round stage
        the next one's messages."""
        slots: Dict[int, list] = {}
        bodies = self._handlers
        for q, chunks in ((1, self._cq), (2, self._fq)):
            for ch in chunks:
                fn = ch.fn
                body = bodies[fn]
                for dest, args, tag, size in self._iter_chunk(ch):
                    slot = slots.get(dest)
                    if slot is None:
                        slot = slots[dest] = [0, [], []]
                    slot[0] += size
                    slot[q].append((body, args, tag, fn))
        self._discard_staged()
        return slots

    def _run_round(self, staged: Dict[int, list]) -> List[Reply]:
        """Deliver and execute one round's unstaged slots: the per-task
        loop, each task its function's body over its one row (a chunk
        refilled per task: a body never keeps its chunks past the
        call)."""
        qrqw = self.qrqw
        profiler = self._profiler
        modules = self.modules
        replies: List[Reply] = []
        bct = self._bct
        bct._arm(replies)
        work = bct.work
        sent = bct.sent
        ch = _Chunk("", ROWS)
        chunks = [ch]
        incoming_total = 0
        h = 0
        sent_total = 0
        round_pim_max = 0.0
        tasks = 0
        for mid, (units, *queues) in sorted(staged.items()):
            incoming_total += units
            module = modules[mid]
            module.round_work = 0.0
            if qrqw:
                module.round_touch.clear()
            for queue in queues:
                tasks += len(queue)
                for body, args, tag, fn in queue:
                    ch.fn = fn
                    ch.rows = [(mid, args, tag, 1)]
                    if profiler is None:
                        body(bct, chunks)
                    else:
                        t0 = perf_counter()
                        body(bct, chunks)
                        profiler.add(fn, perf_counter() - t0)
                    w = work[mid]
                    if w:
                        work[mid] = 0.0
                        module.work += w
                        module.round_work += w
            module_round = module.round_work
            if module_round > round_pim_max:
                round_pim_max = module_round
            s = sent[mid]
            sent_total += s
            # A module->module forward is counted once at send (in `s`
            # this round) and once at receive (in the round it is
            # delivered).
            h_mod = units + s
            if h_mod > h:
                h = h_mod
        if qrqw:
            round_pim_max = self._hottest_queue(staged, round_pim_max)

        self._commit_round(h, incoming_total + sent_total, round_pim_max,
                           tasks)
        bct._disarm()
        return replies
