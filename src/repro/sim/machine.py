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

Handlers are plain functions ``handler(ctx, *args) -> None`` registered
under a function id; they receive a :class:`repro.sim.module.ModuleContext`.

One round engine
----------------

The round engine is the hot loop of every benchmark.  It is one engine
with two staging forms, chosen per *function id* when a message is
issued or forwarded:

- **Slots (the scalar loop).**  A message for a function with no
  registered batch handler is placed straight into its destination's
  slot (``_staged``) by ``send``/``send_all``/``broadcast``/``forward``,
  carrying its handler *callable*, resolved at issue time (an unknown
  function id raises :class:`~repro.sim.errors.UnknownHandlerError` when
  the message is issued, not a round later).  A round iterates only the
  modules that received messages (in module-id order, for reply-order
  stability) and calls one handler per task; CPU-issued messages are
  delivered before module-to-module continuations within a slot.
- **Chunks (the array-native path).**  A message for a function with a
  batch handler (:meth:`PIMMachine.register_batch`) is appended to a
  per-function chunk, and the round makes ONE batch-handler call per
  function over all of its chunks; see :mod:`repro.sim.fastpath` for the
  layout and the execution contract.

A round with no chunks *is* the scalar loop (``_run_round``); a round
with chunks runs its slots first, in the same order, then the batch
handlers, and accounts both halves in one pass (``_array_round``).
Three things keep every message in slots: a machine built with qrqw or
access tracing (per-object accounting is per-task by definition), a
fault plan for as long as it is installed (installing one needs a
quiescent machine, so no chunk is ever pending under chaos), and
:class:`ReferencePIMMachine` -- the per-task oracle the differ, the
tests and the perf gates compare the engine against.  The profiler is
not one of them: it times slot tasks one by one and each batch-handler
call as a whole, on whichever loop the round runs.

Bookkeeping is gated: round logs (``trace_rounds``), access tracing
(``trace_accesses``) and qrqw queue accounting are no-ops when disabled
-- the flags are folded into the context at construction and checked
once per call or per round.

All *model* metrics (IO time, rounds, messages, sync cost, PIM time,
per-module work) are accounted exactly the same way on both forms; the
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
from repro.sim.fastpath import (BCAST, COLS, ROWS, _CPU_Q, _FWD_Q,
                                BatchRound, _Chunk)
from repro.sim.metrics import Metrics, MetricsDelta
from repro.sim.module import ModuleContext, PIMModule
from repro.sim.task import Reply
from repro.sim.tracing import Tracer

Handler = Callable[..., None]

# What ``_chunk_fns`` points at while no function is routed to chunks
# (qrqw, access tracing, a fault plan, the reference oracle).  Never
# mutated.
_NO_CHUNK_FNS: Dict[str, Any] = {}


def _run_timed(profiler: Any, ctx: ModuleContext, cpu_q: list,
               fwd_q: list) -> None:
    """Run one slot's tasks in order, timing each into ``profiler``."""
    for queue in (cpu_q, fwd_q):
        for handler, args, tag, fn in queue:
            t0 = perf_counter()
            handler(ctx, *args, tag=tag)
            profiler.add(fn, perf_counter() - t0)


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
    if not cols or any(len(col) != n for col in cols):
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
    >>> def hello(ctx, x, tag=None):  # handlers must accept tag
    ...     ctx.charge(1)
    ...     ctx.reply(x * 2, tag=tag)
    >>> m.register("hello", hello)
    >>> m.send(2, "hello", (21,))
    >>> [r.payload for r in m.drain()]
    [42]

    There is one round engine and no option that selects another: rounds
    run array-native for every function with a batch handler
    (:attr:`columnar_active`) and per-task for the rest.  qrqw and access
    tracing, fixed at construction, and an installed fault plan keep
    every message in slots.
    """

    #: False only on :class:`ReferencePIMMachine`, which opts out of the
    #: array-native path for its whole lifetime.
    _array_native = True

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
        self._tasks_chunked = 0  # of those, run by batch handlers
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
        self._handlers: Dict[str, Handler] = {}
        # fn -> batch handler (see register_batch): a round's tasks for a
        # registered fn run as ONE call over contiguous chunks.
        self._batch_handlers: Dict[str, Callable[..., None]] = {}
        # The functions whose messages are staged as chunks right now:
        # ``_batch_handlers`` itself on the engine, the empty
        # ``_NO_CHUNK_FNS`` on the reference oracle and on a machine
        # built with qrqw or access tracing (``_base_chunk_fns``), and
        # while a fault plan is installed.  Every issue path asks
        # ``fn in self._chunk_fns`` once per message.
        self._base_chunk_fns: Dict[str, Any] = (
            self._batch_handlers
            if self._array_native and not (self.qrqw
                                           or config.trace_accesses)
            else _NO_CHUNK_FNS)
        self._chunk_fns = self._base_chunk_fns
        # mid -> [units_in, cpu_entries, forward_entries]; see module doc.
        self._staged: Dict[int, list] = {}
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
        self._contexts: List[ModuleContext] = [
            ModuleContext(self, m) for m in self.modules
        ]
        # Installed fault plan (see repro.sim.chaos).  None on the
        # fault-free path: the round loop pays exactly one attribute
        # check per round for the chaos capability.
        self._chaos: Optional[ChaosState] = None
        # Modules whose DRAM was wiped.  The chaos filter keeps them
        # unreachable for the machine's lifetime (typed faults, not
        # KeyErrors on missing state); recovery abandons the machine.
        self.wiped_modules: set = set()

    # -- handler registry ---------------------------------------------------

    def register(self, fn: str, handler: Handler) -> None:
        """Register ``handler`` under function id ``fn``.

        Re-registering the same id with a different handler is an error
        (two structures must not collide on a function id); re-registering
        the identical handler is a no-op so structures can be constructed
        repeatedly on one machine.
        """
        existing = self._handlers.get(fn)
        if existing is not None and existing is not handler:
            raise ValueError(f"handler id {fn!r} already registered")
        self._handlers[fn] = handler

    def register_all(self, handlers: Dict[str, Handler]) -> None:
        """Register every (function id, handler) pair in ``handlers``."""
        for fn, h in handlers.items():
            self.register(fn, h)

    def register_batch(self, fn: str,
                       batch_handler: Callable[..., None]) -> None:
        """Register a *batch* variant of the handler for ``fn``.

        A batch handler ``batch_handler(bct, chunks)`` processes one
        round's entire task population for ``fn`` in a single call over
        contiguous chunk buffers (see
        :class:`repro.sim.fastpath.BatchRound`); the engine dispatches
        it instead of calling the scalar handler per task.  Wherever
        messages stay in slots (qrqw, access tracing, a fault plan,
        :class:`ReferencePIMMachine`) the registration is inert -- the
        scalar handler remains the reference semantics, and the
        differential oracle certifies the two produce bit-identical
        metric streams.

        Batch handlers must be behaviourally equivalent to their scalar
        handler under the execution contract: order-insensitive within a
        round, every task paying the charges its own arguments determine
        (no first-executor-pays mutation of shared replicated
        structure), and no reads of the machine RNG (see
        ``repro/sim/fastpath.py``).

        Same collision rule as :meth:`register`: re-registering a
        different callable under an existing id is an error, the
        identical callable is a no-op.
        """
        existing = self._batch_handlers.get(fn)
        if existing is not None and existing is not batch_handler:
            raise ValueError(f"batch handler id {fn!r} already registered")
        self._batch_handlers[fn] = batch_handler

    @property
    def backend(self) -> str:
        """A read-only label, not a selector: ``"columnar"`` on the
        engine, ``"object"`` on :class:`ReferencePIMMachine`."""
        return "columnar" if self._array_native else "object"

    @property
    def tasks_chunked(self) -> int:
        """How many of :attr:`tasks_executed` ran inside a batch-handler
        call rather than through a slot.  :attr:`columnar_active` says
        the array-native path is *on*; this says how much of the
        traffic it actually carries."""
        return self._tasks_chunked

    @property
    def columnar_active(self) -> bool:
        """A read-only label: True while batch-handled functions run
        array-native (the engine, built without qrqw or access tracing,
        with no fault plan installed)."""
        return self._chunk_fns is self._batch_handlers

    def _iter_chunk(self, ch: _Chunk) -> Iterable[tuple]:
        """The ``(dest, args, tag, size)`` rows of a chunk of any kind.
        The column and broadcast forms are C-level iterators: a batch
        handler with no arm of its own for them reads their rows without
        an interpreted step per row."""
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
        changes no routing: the engine times every slot task (one
        ``add`` per task) and every batch-handler call (one ``add`` per
        call, with the number of tasks it ran), so the profile is of the
        rounds the machine runs unprofiled.  The clock reads around slot
        tasks cost more than dispatching most handlers, so attach it
        only when attributing wall time.
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
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        if fn in self._chunk_fns:
            self._stage_row(self._cq, fn, dest, args, tag, size)
            return
        slot = self._staged.get(dest)
        if slot is None:
            self._staged[dest] = [size, [(handler, args, tag, fn)], []]
        else:
            slot[0] += size
            slot[1].append((handler, args, tag, fn))

    def send_all(self, messages: Iterable[Sequence]) -> None:
        """Queue many CPU->PIM messages in one call.

        Each message is ``(dest, fn, args, tag)`` or, with an explicit
        message size in constant-size units, ``(dest, fn, args, tag,
        size)``.  This is the allocation-light bulk path: a message is
        staged directly into its function's tail chunk or its
        destination's slot, resolving the handler once per run of
        messages for the same function.  Malformed
        messages -- wrong arity, or a size element that is not a
        positive ``int`` -- raise
        :class:`~repro.sim.errors.MalformedMessageError` here, at issue
        time, rather than corrupting the round accounting.
        """
        staged = self._staged
        handlers = self._handlers
        chunk_fns = self._chunk_fns
        n = self.num_modules
        cq = self._cq
        recv = self._recv
        active = self._active
        inc = 0
        # Resolved once per run of same-fn messages: the handler, and
        # the run's row chunk (``None`` for a slot-routed function).
        run_fn = None
        handler = None
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
                    handler = handlers.get(fn)
                    if handler is None:
                        raise UnknownHandlerError(
                            f"no handler for {fn!r} (resolved at send time)")
                    run_fn = fn
                    if fn not in chunk_fns:
                        tail = None
                    elif cq and cq[-1].fn == fn and cq[-1].kind == ROWS:
                        tail = cq[-1]
                    else:
                        tail = _Chunk(fn, ROWS)
                        tail.rows = []
                        cq.append(tail)
                if tail is None:
                    slot = staged.get(dest)
                    if slot is None:
                        staged[dest] = [size, [(handler, args, tag, fn)], []]
                    else:
                        slot[0] += size
                        slot[1].append((handler, args, tag, fn))
                    continue
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
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        if fn in self._chunk_fns:
            ch = _Chunk(fn, BCAST)
            ch.args = args
            ch.tag = tag
            ch.size = size
            self._cq.append(ch)
            self._bcast_units += size
            self._incoming_total += size * self.num_modules
            return
        staged = self._staged
        entry = (handler, args, tag, fn)
        for mid in range(self.num_modules):
            slot = staged.get(mid)
            if slot is None:
                staged[mid] = [size, [entry], []]
            else:
                slot[0] += size
                slot[1].append(entry)

    def send_cols(self, fn: str, dests: Sequence[int],
                  cols: Sequence[Sequence[Any]], size: int = 1) -> None:
        """Issue one CPU-side batch of messages as a column chunk.

        The bulk form of :meth:`send_all` for one function's messages:
        message ``i`` goes to module ``dests[i]`` with arguments
        ``(cols[0][i], cols[1][i], ...)``, no tag.  ``dests`` and every
        column are plain lists of one length; they land as one chunk
        that ``fn``'s registered batch handler reads next round.  A
        function that is not chunked right now -- no batch handler, or a
        machine whose messages all stay in slots -- gets the rows in its
        destinations' slots, exactly where :meth:`send_all` would put
        them.  The destinations are counted once: that count is the bounds
        check, the receive accounting -- the same per-module units and
        task counts as sending the rows one by one, so metric streams do
        not depend on which form a caller uses -- and the chunk's
        ``counts``.  A column of another length than ``dests`` (or no
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
        handler = self._handlers.get(fn)
        if handler is None:
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
        ch.counts = counts
        ch.size = size
        if fn not in self._chunk_fns:
            self._rows_to_slots(_CPU_Q, fn, handler, self._iter_chunk(ch))
            return
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
        self._staged = {}
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

    def _rows_to_slots(self, q: int, fn: str, handler: Any,
                       rows: Iterable[tuple]) -> None:
        """Place ``(dest, args, tag, size)`` rows in their destination
        slots (queue ``q``), preserving arrival order and units."""
        staged = self._staged
        for dest, args, tag, size in rows:
            slot = staged.get(dest)
            if slot is None:
                slot = staged[dest] = [0, [], []]
            slot[0] += size
            slot[q].append((handler, args, tag, fn))

    def _stage_fwd_rows(self, fn: str, rows: list) -> None:
        """Bulk-append continuation rows (``BatchRound.stage_rows``)."""
        if not rows:
            return
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        if fn not in self._chunk_fns:
            self._rows_to_slots(_FWD_Q, fn, handler, rows)
            return
        recv = self._recv
        active = self._active
        inc = 0
        for dest, _args, _tag, size in rows:
            if recv[dest] == 0:
                active.append(dest)
            recv[dest] += size
            inc += size
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
        round is routed through the chaos filter first; the fault-free
        path is otherwise untouched.
        """
        if self._chaos is not None:
            return self._chaos_round()
        if self._cq or self._fq:
            return self._array_round()
        staged = self._staged
        if not staged:
            return []
        # Swap in a fresh staging dict: handlers forwarding during this
        # round stage messages for the NEXT round.
        self._staged = {}
        return self._run_round(staged)

    def _run_round(self, staged: Dict[int, list]) -> List[Reply]:
        """Deliver and execute one round's already-unstaged slots: the
        per-task scalar loop."""
        incoming_total = 0

        qrqw = self.qrqw
        profiler = self._profiler
        contexts = self._contexts
        modules = self.modules
        replies: List[Reply] = []
        h = 0
        sent_total = 0
        round_pim_max = 0.0
        tasks = 0
        for mid, slot in sorted(staged.items()):
            incoming_total += slot[0]
            ctx = contexts[mid]
            ctx._replies = replies
            ctx._sent_size = 0
            module = modules[mid]
            module.round_work = 0.0
            if qrqw:
                module.round_touch.clear()
            cpu_q = slot[_CPU_Q]
            fwd_q = slot[_FWD_Q]
            tasks += len(cpu_q) + len(fwd_q)
            if profiler is None:
                for handler, args, tag, _fn in cpu_q:
                    handler(ctx, *args, tag=tag)
                for handler, args, tag, _fn in fwd_q:
                    handler(ctx, *args, tag=tag)
            else:
                _run_timed(profiler, ctx, cpu_q, fwd_q)
            module_round = module.round_work
            if qrqw and module.round_touch:
                # Queue-write variant (paper §2.1 Discussion): a module's
                # effective round time is at least its hottest object's
                # access-queue length.
                hottest = max(module.round_touch.values())
                if hottest > module_round:
                    module_round = hottest
            if module_round > round_pim_max:
                round_pim_max = module_round
            sent = ctx._sent_size
            sent_total += sent
            # A module->module forward is counted once at send (in `sent`
            # this round) and once at receive (in the round it is
            # delivered).
            h_mod = slot[0] + sent
            if h_mod > h:
                h = h_mod

        self._commit_round(h, incoming_total + sent_total, round_pim_max,
                           tasks)
        return replies

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
        """One round with chunks pending: the slots run first, through
        the scalar loop's own order (module id ascending, CPU-issued
        before forwarded, arrival order within), then every chunked
        function runs as one batch-handler call; both halves are
        accounted together.  A machine with qrqw or access tracing, or
        with a fault plan installed, has no chunk to run, so neither
        needs handling here; an attached profiler times each slot task
        and each batch-handler call."""
        P = self.num_modules
        cq = self._cq
        fq = self._fq
        staged = self._staged
        recv = self._recv
        active = self._active
        bcast_units = self._bcast_units
        incoming_total = self._incoming_total
        # Install fresh staging (pooled recv buffer) for the messages
        # this round's handlers emit toward the NEXT round.
        spare = self._recv_spare
        if spare is None:
            spare = [0] * P
        else:
            self._recv_spare = None
        self._cq = []
        self._fq = []
        self._staged = {}
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
        # A module that receives row, column or slot traffic starts the
        # round with ``round_work`` zero (``active`` lists the chunk
        # receivers; the slot receivers join it below) and has it read
        # back afterwards, so a batch handler may charge such a module
        # through ``module.charge`` -- the callback its local structures
        # hold -- as well as through ``bct.work``.
        for mid in active:
            modules[mid].round_work = 0.0
        tasks = 0
        profiler = self._profiler
        if staged:
            # Scalar charges go through ctx.charge into round_work; the
            # slot's receive and send units join the chunks' flat
            # per-module counters so one accounting pass covers both.
            contexts = self._contexts
            for mid, slot in sorted(staged.items()):
                ctx = contexts[mid]
                ctx._replies = replies
                ctx._sent_size = 0
                modules[mid].round_work = 0.0
                cpu_q = slot[_CPU_Q]
                fwd_q = slot[_FWD_Q]
                tasks += len(cpu_q) + len(fwd_q)
                if profiler is None:
                    for handler, args, tag, _fn in cpu_q:
                        handler(ctx, *args, tag=tag)
                    for handler, args, tag, _fn in fwd_q:
                        handler(ctx, *args, tag=tag)
                else:
                    _run_timed(profiler, ctx, cpu_q, fwd_q)
                if recv[mid] == 0:
                    active.append(mid)
                recv[mid] += slot[0]
                incoming_total += slot[0]
                bsent[mid] = ctx._sent_size

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
        batch_handlers = self._batch_handlers
        for fn, fn_chunks in by_fn.items():
            if profiler is None:
                batch_handlers[fn](bct, fn_chunks)
            else:
                t0 = perf_counter()
                batch_handlers[fn](bct, fn_chunks)
                profiler.add(fn, perf_counter() - t0,
                             sum(ch.task_count(P) for ch in fn_chunks))

        # -- round accounting (exact; see repro.sim.fastpath) ---------------
        # Batch charges made through ``bct`` are folded into cumulative
        # per-module work here (``ctx.charge`` / ``module.charge`` already
        # added theirs); a module's round total is the two together.
        # Only a broadcast reaches modules outside ``active``.
        h = 0
        round_pim_max = 0.0
        sent_total = 0
        for mid in (range(P) if bcast_units else active):
            w = bwork[mid]
            if recv[mid]:
                # A chunk or slot receiver: round_work is this round's.
                module = modules[mid]
                if w:
                    module.work += w
                    module.round_work += w
                w = module.round_work
            elif w:
                modules[mid].work += w
            s = bsent[mid]
            sent_total += s
            hm = recv[mid] + bcast_units + s
            if hm > h:
                h = hm
            if w > round_pim_max:
                round_pim_max = w

        self._commit_round(h, incoming_total + sent_total, round_pim_max,
                           tasks)
        # Return the consumed recv buffer to the pool, zeroed.
        for mid in active:
            recv[mid] = 0
        if self._recv_spare is None:
            self._recv_spare = recv
        return replies

    # -- unreliable execution (chaos) ---------------------------------------

    def _chaos_round(self) -> List[Reply]:
        """One round under an installed fault plan.

        The chaos filter decides each staged message's fate (deliver,
        drop, duplicate, delay, corrupt; whole slots defer on stalls and
        are lost or hard-fault on crashes); whatever survives runs
        through the ordinary round executor so all cost accounting is
        identical.  A round with nothing deliverable but work still in
        flight (delayed messages, stalled slots) is charged as an *idle*
        round -- waiting on the network is not free.
        """
        chaos = self._chaos
        assert chaos is not None
        rnd = self.metrics.rounds - chaos.base_round
        chaos.begin_round(self, rnd)
        staged = self._staged
        self._staged = {}
        deliver = chaos.filter_round(self, staged, rnd)
        if deliver:
            return self._run_round(deliver)
        if self._staged or chaos.has_pending():
            self._charge_idle_round()
        return []

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
        point.  Installing also registers the protocol's envelope handler
        and makes :func:`repro.ops.run_batch` wrap every CPU->module
        message in the reliable-delivery protocol, and
        keeps every message in slots until :meth:`uninstall_fault_plan`
        (the chaos filter rewrites per-destination queues in place).
        Refuses while any message is :attr:`pending` -- rows, columns,
        slots or a previous plan's delayed messages -- so no chunk is
        ever pending under a plan.  Returns the runtime
        :class:`~repro.sim.chaos.ChaosState` (fault statistics,
        delayed-message buffer).
        """
        if self.pending:
            raise RuntimeError("cannot install a fault plan with messages "
                               "pending; drain first")
        self.register(DELIVER_FN, deliver_envelope)
        self._chunk_fns = _NO_CHUNK_FNS
        self._chaos = ChaosState(plan, base_round=self.metrics.rounds)
        return self._chaos

    def uninstall_fault_plan(self) -> Optional[ChaosState]:
        """Disarm the fault plan, restoring the perfect network.

        Refuses while chaos-held (delayed) messages are in flight --
        uninstalling then would silently lose them.
        """
        chaos = self._chaos
        if chaos is not None and chaos.has_pending():
            raise RuntimeError("fault plan holds delayed messages; "
                               "drain before uninstalling")
        self._chaos = None
        self._chunk_fns = self._base_chunk_fns
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
        self._contexts[mid].reset_replay_guard()
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
        module ids in ascending order, over slots and chunks alike."""
        pending: Dict[int, int] = {}
        by_fn: Dict[str, int] = {}
        for mid, slot in self._staged.items():
            pending[mid] = len(slot[_CPU_Q]) + len(slot[_FWD_Q])
            for queue in (slot[_CPU_Q], slot[_FWD_Q]):
                for entry in queue:
                    by_fn[entry[3]] = by_fn.get(entry[3], 0) + 1
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
        if self._staged or self._cq or self._fq:
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
    """The per-task reference oracle: every message, whatever its
    function, is placed in a slot and run by the scalar loop, and a
    registered batch handler is never dispatched.

    This is what the engine is certified against -- the differ's
    cross-engine replay, the parity tests and the perf gates construct
    it by name; nothing on a production path does, and no string, config
    field or environment variable selects it.
    """

    _array_native = False
