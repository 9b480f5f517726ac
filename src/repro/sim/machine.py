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

Engine fast path
----------------

The round engine is the hot loop of every benchmark, so it is built around
three invariants that keep a round touching ``k`` modules at ``O(k + tasks)``
Python work rather than ``O(P)``:

- **Staged delivery.**  ``send``/``send_all``/``broadcast``/``forward``
  route directly into per-destination queues (``_staged``), so ``step``
  never scans or re-buckets a message list.  Each staged entry carries its
  handler *callable*, resolved at issue time (an unknown function id
  raises :class:`~repro.sim.errors.UnknownHandlerError` when the message
  is issued, not a round later).  CPU-issued messages are delivered before
  module-to-module continuations within a destination queue, mirroring the
  historical ``outbox + forwards`` concatenation order.
- **Active-module scheduling.**  A round iterates only the modules that
  received messages (in module-id order, for reply-order stability).
  Per-round work/contention state lives on the per-module
  :class:`~repro.sim.module.ModuleContext`, re-armed on activation, so
  nothing is reset machine-wide.
- **Gated bookkeeping.**  Round logs (``trace_rounds``), access tracing
  (``trace_accesses``) and qrqw queue accounting are no-ops when disabled:
  the flags are folded into the context at construction and checked once
  per call or per round.

All *model* metrics (IO time, rounds, messages, sync cost, PIM time,
per-module work) are accounted exactly as before; the golden-metrics
regression suite (``tests/test_golden_metrics.py``) pins the values the
pre-fast-path engine produced on seed workloads.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.sim.chaos import ChaosState, FaultPlan
from repro.sim.config import MachineConfig, resolve_backend
from repro.sim.cpu import CPUSide
from repro.sim.errors import (LivelockError, MalformedMessageError,
                              UnknownHandlerError)
from repro.sim.metrics import Metrics, MetricsDelta
from repro.sim.module import ModuleContext, PIMModule
from repro.sim.task import Reply
from repro.sim.tracing import Tracer

Handler = Callable[..., None]

# A staged per-destination slot: [units_in, cpu_entries, forward_entries]
# where each entry is (handler, args, tag, fn).
_CPU_Q, _FWD_Q = 1, 2


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

    Two round-engine backends exist behind this constructor:
    ``PIMMachine(..., backend="object")`` (this class -- the reference
    slotted-object engine) and ``backend="columnar"`` (the array-native
    engine, :class:`repro.sim.fastpath.ColumnarPIMMachine`).  With no
    explicit backend the ``REPRO_SIM_BACKEND`` environment variable
    decides, defaulting to ``"object"``.  Both backends produce
    bit-identical model metrics (certified by ``repro.verify.differ``).
    """

    def __new__(cls, num_modules: Optional[int] = None,
                config: Optional[MachineConfig] = None,
                **kwargs: Any) -> "PIMMachine":
        # Backend dispatch happens only for direct PIMMachine(...) calls
        # with construction arguments; subclasses and argument-less
        # allocation (copy protocols) get the class they asked for.
        if cls is PIMMachine and (num_modules is not None
                                  or config is not None or kwargs):
            backend = kwargs.get("backend")
            if backend is None and config is not None:
                backend = config.backend
            if resolve_backend(backend) == "columnar":
                from repro.sim.fastpath import ColumnarPIMMachine
                return object.__new__(ColumnarPIMMachine)
        return object.__new__(cls)

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
        #: Optional per-batch metric feed: when set to a callable
        #: ``observer(op_name, delta)``, the op-pipeline driver
        #: (:func:`repro.ops.run_batch`) reports every completed op's
        #: :class:`~repro.sim.metrics.MetricsDelta`.  Used by
        #: ``repro.verify`` to check cost invariants batch by batch;
        #: observers must be passive (no sends, no charging).
        self.batch_observer: Optional[Callable[[str, MetricsDelta], None]] = None
        self._handlers: Dict[str, Handler] = {}
        # fn -> batch handler (see register_batch).  The object engine
        # never consults this; the columnar backend dispatches a round's
        # tasks for a registered fn as ONE call over contiguous chunks.
        self._batch_handlers: Dict[str, Callable[..., None]] = {}
        # mid -> [units_in, cpu_entries, forward_entries]; see module doc.
        self._staged: Dict[int, list] = {}
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
        # Modules whose DRAM was wiped and not yet repaired.  The chaos
        # filter keeps them unreachable (typed faults, not KeyErrors on
        # missing state) until recovery calls :meth:`mark_repaired`.
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
        :class:`repro.sim.fastpath.BatchRound`); the columnar backend
        dispatches it instead of calling the scalar handler per task.
        On the object backend the registration is inert -- the scalar
        handler remains the reference semantics, and the differential
        oracle certifies the two produce bit-identical metric streams.

        Batch handlers must be behaviourally equivalent to their scalar
        handler under the columnar execution contract: order-insensitive
        within a round, no reads of the machine RNG, and no mutation of
        shared replicated structure (see ``repro/sim/fastpath.py``).

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
        """The round-engine backend this machine runs (``"object"``)."""
        return "object"

    # -- profiling ----------------------------------------------------------

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) a per-handler time profiler.

        The profiler must expose ``add(fn, seconds)``; see
        :class:`repro.sim.profiling.HandlerProfile`.  While attached, the
        engine times every handler invocation -- attach only when
        attributing wall time, as the two clock reads per task cost more
        than dispatching most handlers.

        A profiler whose ``enabled`` attribute is false is dropped here:
        the round loop then runs its unprofiled path with zero per-task
        attribute lookups or callable checks, identical to having no
        profiler installed.
        """
        if profiler is not None and not getattr(profiler, "enabled", True):
            profiler = None
        self._profiler = profiler

    # -- message issue ----------------------------------------------------

    def send(self, dest: int, fn: str, args: tuple = (), tag: Any = None,
             size: int = 1) -> None:
        """Queue a ``TaskSend`` from the CPU side to module ``dest``."""
        if not 0 <= dest < self.num_modules:
            raise ValueError(f"bad module id {dest}")
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
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
        size)``.  This is the allocation-light bulk path: handlers are
        resolved once per message and staged directly into the
        per-destination queues.  Malformed messages -- wrong arity, or a
        size element that is not a positive ``int`` -- raise
        :class:`~repro.sim.errors.MalformedMessageError` here, at issue
        time, rather than corrupting the round accounting.
        """
        staged = self._staged
        handlers = self._handlers
        n = self.num_modules
        for msg in messages:
            if len(msg) == 4:
                dest, fn, args, tag = msg
                size = 1
            elif len(msg) == 5:
                dest, fn, args, tag, size = msg
                if type(size) is not int or size < 1:
                    raise MalformedMessageError(
                        f"send_all message {(dest, fn)} has invalid size "
                        f"{size!r}: the optional 5th element must be a "
                        f"positive int (constant-size message units)")
            else:
                raise MalformedMessageError(
                    f"send_all message has {len(msg)} elements; expected "
                    f"(dest, fn, args, tag) or (dest, fn, args, tag, size): "
                    f"{msg!r}")
            if not 0 <= dest < n:
                raise ValueError(f"bad module id {dest}")
            handler = handlers.get(fn)
            if handler is None:
                raise UnknownHandlerError(
                    f"no handler for {fn!r} (resolved at send time)")
            slot = staged.get(dest)
            if slot is None:
                staged[dest] = [size, [(handler, args, tag, fn)], []]
            else:
                slot[0] += size
                slot[1].append((handler, args, tag, fn))

    def broadcast(self, fn: str, args: tuple = (), tag: Any = None,
                  size: int = 1) -> None:
        """Queue one message to every module (an h=1 relation by itself)."""
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        staged = self._staged
        entry = (handler, args, tag, fn)
        for mid in range(self.num_modules):
            slot = staged.get(mid)
            if slot is None:
                staged[mid] = [size, [entry], []]
            else:
                slot[0] += size
                slot[1].append(entry)

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
        staged = self._staged
        if not staged:
            return []
        # Swap in a fresh staging dict: handlers forwarding during this
        # round stage messages for the NEXT round.
        self._staged = {}
        return self._run_round(staged)

    def _run_round(self, staged: Dict[int, list]) -> List[Reply]:
        """Deliver and execute one round's already-unstaged slots."""
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
                for queue in (cpu_q, fwd_q):
                    for handler, args, tag, fn in queue:
                        t0 = perf_counter()
                        handler(ctx, *args, tag=tag)
                        profiler.add(fn, perf_counter() - t0)
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

        total_msgs = incoming_total + sent_total
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
        metrics = self.metrics
        metrics.rounds += 1
        metrics.sync_cost += self._log_p
        if self._chaos is not None:
            self._chaos.stats.idle_rounds += 1
        if self._trace_rounds:
            self.tracer.log_round(metrics.rounds - 1, 0, 0, 0.0, 0)
        elif self._trace_access:
            self.tracer.access.end_round()

    def idle_rounds(self, count: int) -> None:
        """Charge ``count`` idle rounds (retry backoff windows)."""
        for _ in range(count):
            self._charge_idle_round()

    # -- fault plan lifecycle -----------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> ChaosState:
        """Arm a :class:`~repro.sim.chaos.FaultPlan` on this machine.

        Event rounds in the plan are interpreted relative to the install
        point.  Installing also makes :func:`repro.ops.run_batch` wrap
        every CPU->module message in the reliable-delivery protocol.
        Returns the runtime :class:`~repro.sim.chaos.ChaosState` (fault
        statistics, delayed-message buffer).
        """
        if self._chaos is not None and self._chaos.has_pending():
            raise RuntimeError("cannot replace a fault plan with delayed "
                               "messages still in flight; drain first")
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
        return chaos

    def wipe_module(self, mid: int) -> None:
        """Simulate total local-DRAM loss on module ``mid``.

        Clears the module's structure state, its footprint accounting
        and its replay guards (a wiped module cannot remember which
        deliveries it executed -- safe, because an acknowledged envelope
        was executed *before* the wipe destroyed its guard, and the
        recovery layer rebuilds state rather than replaying messages).
        Used by crash-and-wipe fault schedules and recovery tests.
        """
        module = self.modules[mid]
        module.state.clear()
        module.words_used = 0
        self._contexts[mid].reset_replay_guard()
        # Under a fault plan the module stays unreachable (protocol
        # envelopes are dead-dropped, anything else is a typed
        # ModuleCrashed) until recovery declares it repaired -- a blank
        # module serving traffic would fault on missing state instead
        # of failing typed.
        self.wiped_modules.add(mid)

    def mark_repaired(self, mid: int) -> None:
        """Declare a wiped module's state re-replicated and routable again
        (see :func:`repro.recovery.repair.reattach_module`)."""
        self.wiped_modules.discard(mid)

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
        chaos = self._chaos
        if chaos is None:
            while self._staged:
                if rounds >= max_rounds:
                    raise LivelockError(
                        self._livelock_report(rounds, max_rounds, label))
                replies.extend(self.step())
                rounds += 1
            return replies
        # Chaos drain: delayed messages held by the fault plan count as
        # pending work, and the report separates genuinely stuck ops
        # from in-flight protocol retries / chaos-held traffic.
        while self._staged or chaos.has_pending():
            if rounds >= max_rounds:
                extra = chaos.describe(self.metrics.rounds - chaos.base_round)
                rdp = getattr(self, "_rdp", None)
                if rdp is not None and rdp.inflight:
                    extra += "; " + rdp.describe()
                raise LivelockError(
                    self._livelock_report(rounds, max_rounds, label)
                    + "; " + extra)
            replies.extend(self.step())
            rounds += 1
        return replies

    def _pending_stats(self) -> tuple:
        """Pending-queue diagnostics: ``({mid: tasks}, {fn: tasks})``,
        module ids in ascending order.  Backends with their own staging
        representation override this; the report formatting is shared."""
        pending = {
            mid: len(slot[_CPU_Q]) + len(slot[_FWD_Q])
            for mid, slot in sorted(self._staged.items())
        }
        by_fn: Dict[str, int] = {}
        for slot in self._staged.values():
            for entry in slot[_CPU_Q]:
                by_fn[entry[3]] = by_fn.get(entry[3], 0) + 1
            for entry in slot[_FWD_Q]:
                by_fn[entry[3]] = by_fn.get(entry[3], 0) + 1
        return pending, by_fn

    def _livelock_report(self, rounds: int, max_rounds: int,
                         label: Optional[str]) -> str:
        """The drain-exhaustion report: op label, handlers, queue depths."""
        pending, by_fn = self._pending_stats()
        total = sum(pending.values())
        shown = dict(list(pending.items())[:8])
        more = "" if len(pending) <= 8 else \
            f" (+{len(pending) - 8} more modules)"
        fn_list = sorted(by_fn.items(), key=lambda kv: -kv[1])
        fn_shown = ", ".join(f"{fn}={cnt}" for fn, cnt in fn_list[:8])
        fn_more = "" if len(fn_list) <= 8 else \
            f" (+{len(fn_list) - 8} more handler ids)"
        origin = f" during op {label!r}" if label else ""
        return (
            f"drain{origin} executed {rounds} rounds (max_rounds="
            f"{max_rounds}) with {total} tasks still pending; "
            f"livelock?  pending handlers: {fn_shown}{fn_more}; "
            f"pending tasks per module: {shown}{more}"
        )

    @property
    def pending(self) -> bool:
        """True if messages await delivery in a future round (including
        messages the fault plan is holding back for later rounds)."""
        if self._staged:
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
