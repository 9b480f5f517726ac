"""The async multi-tenant PIM server: admit -> coalesce -> run -> demux.

:class:`Server` fronts one batched structure (plus its recovery
standby) with many concurrent asyncio client streams.  The contract is
the PR 5 SLO lifted to a serving surface: every ``submit`` resolves to
**a correct answer, or a typed refusal** (:class:`~repro.serve.errors.Refusal`
/ :class:`~repro.recovery.DegradedResult`) -- never a wrong answer,
and never a hang (a bounded-progress watchdog turns a stall into a
loud :class:`~repro.serve.errors.ServerStalled`).

Time is **virtual**: the scheduler tick advances once per dispatch
iteration, and every time-dependent decision (token-bucket refill,
deadline expiry, breaker cooldown, retry backoff) reads that tick --
never the wall clock.  With asyncio's deterministic FIFO ready queue
this makes an entire serve session a pure function of the submission
program and the fault seed, which is what lets the soak harness replay
it bit-for-bit and compare against a sequential oracle.

The scheduler loop pipelines: it dispatches the next tick's batches
(one same-op batch, or one per class of a grouped tick -- see
:mod:`repro.serve.coalesce`; a write shares its tick only with its
riders) as soon as the previous tick resolves, yielding to the event
loop between ticks so clients can consume results and submit follow-ups
(closed loop).  Per-tenant *program order* is preserved end to end --
the coalescer only ever drains queue heads -- so each client's response
stream is comparable against a sequential replay of the journal.

The **journal** records every batch that produced an answer (live
results and degraded stale reads) in execution order, with the demux
slices: a grouped tick's write before its riders, whose answers are the
ones a sequential replay gives after it.  Refused requests are never
journaled: a refusal is proof of non-effect, and the soak harness leans
on exactly that when it replays the journal sequentially.
"""

from __future__ import annotations

import asyncio
import gc
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ops import collector_paused
from repro.recovery import (
    DegradedReason,
    DegradedResult,
    RecoveryManager,
)
from repro.recovery.durable import DurabilityPolicy, DurableStore
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Coalescer, MergedBatch
from repro.serve.errors import Refusal, RefusalReason, Request, ServerStalled
from repro.serve.health import HealthMonitor
from repro.serve.policy import ResiliencePolicy, jittered_backoff

__all__ = ["JournalEntry", "Server", "ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for all four serving stages (defaults are soak-tested)."""

    # coalescer
    max_batch_items: int = 512
    quantum: int = 64
    # admission
    rate: Optional[float] = None     # tokens (items) per tick; None = off
    burst: float = 1024
    max_pending: int = 256           # per-tenant queue bound
    # recovery manager
    checkpoint_every: int = 4
    allow_restore: bool = True
    max_recoveries: int = 4
    read_retry_attempts: int = 2
    # resilience policy
    breaker_threshold: int = 3
    cooldown_ticks: int = 32
    healthy_streak: int = 4
    # liveness
    watchdog_ticks: int = 64
    seed: int = 0                    # jitter seed (backoff decorrelation)
    # durability (None = in-memory only, the pre-PR-10 behaviour)
    state_dir: Optional[str] = None  # WAL + snapshot directory
    os_fsync: bool = True            # real fsyncs (False: modeled only)


class JournalEntry:
    """One executed batch, in execution order, with its demux map.

    ``kind`` is ``"live"`` (ran on live hardware) or ``"stale"``
    (answered from the durable checkpoint+log view while the circuit
    was open -- still journal-replayable, because the durable view
    contains exactly the journaled mutations).

    The journal lives as long as the server, so an entry keeps the
    ``(request_id, tenant, lo, hi)`` demux slices it is given as
    per-batch columns -- request ids and slice bounds as arrays,
    tenants as a tuple -- and :attr:`slices` builds the tuples again
    when it is read: no collector-tracked object per request outlives
    the tick.
    """

    __slots__ = ("tick", "op", "items", "ids", "tenants", "los", "his",
                 "kind")

    def __init__(self, tick: int, op: str, items: Tuple[Any, ...],
                 slices: Sequence[Tuple[int, str, int, int]],
                 kind: str = "live") -> None:
        self.tick = tick
        self.op = op
        self.items = items
        ids, self.tenants, los, his = zip(*slices)
        self.ids = array("q", ids)
        self.los = array("q", los)
        self.his = array("q", his)
        self.kind = kind

    @property
    def slices(self) -> Tuple[Tuple[int, str, int, int], ...]:
        """``(request_id, tenant, lo, hi)`` demux slices."""
        return tuple(zip(self.ids, self.tenants, self.los, self.his))


def _gc_collections() -> List[int]:
    """Completed collections per generation, youngest first."""
    return [gen["collections"] for gen in gc.get_stats()]


class Server:
    """Serve many concurrent client streams over one PIM structure.

    ``structure`` is the live structure (its machine may carry a fault
    plan); ``rebuild`` is the standby factory handed to the
    :class:`RecoveryManager`.  Call :meth:`start`, then ``await
    submit(...)`` from any number of client coroutines, then
    :meth:`stop`.
    """

    def __init__(self, structure: Any, rebuild: Any,
                 config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        cfg = self.config
        self.caps = frozenset(getattr(type(structure), "BATCH_CAPS",
                                      frozenset()))
        # The classes one tick drains together (see coalesce.py): the
        # structure's fact, like its caps.
        self.groups = tuple(getattr(type(structure), "TICK_GROUPS", ()))
        self.health = HealthMonitor()
        # With a state dir the journaled answer contract gains a leg:
        # policy.execute -> manager.run only returns after the batch's
        # WAL record is durable, so every acked answer survives a host
        # crash (RPO = 0) and a restarted server resumes from disk.
        self.durable: Optional[DurableStore] = None
        if cfg.state_dir is not None:
            self.durable = DurableStore.open(
                cfg.state_dir,
                DurabilityPolicy(os_fsync=cfg.os_fsync))
        self.manager = RecoveryManager(
            structure, rebuild,
            checkpoint_every=cfg.checkpoint_every,
            allow_restore=cfg.allow_restore,
            max_recoveries=cfg.max_recoveries,
            read_retry_attempts=cfg.read_retry_attempts,
            retry_backoff=jittered_backoff(cfg.seed),
            durable=self.durable)
        self.policy = ResiliencePolicy(
            self.manager, self.health,
            breaker_threshold=cfg.breaker_threshold,
            cooldown_ticks=cfg.cooldown_ticks,
            healthy_streak=cfg.healthy_streak)
        self.admission = AdmissionController(
            rate=cfg.rate, burst=cfg.burst, max_pending=cfg.max_pending)
        self.coalescer = Coalescer(
            max_batch_items=cfg.max_batch_items, quantum=cfg.quantum)
        self.tick = 0
        self.journal: List[JournalEntry] = []
        self.batches_served = 0
        #: Ticks that ran a batch, by kind: the op, or the ops of a
        #: grouped tick joined with ``+``.
        self.ticks_by_kind: Dict[str, int] = {}
        self._work = asyncio.Event()
        self._running = False
        self._task: Optional[asyncio.Task] = None
        self._failure: Optional[BaseException] = None
        self._last_progress = 0
        self._gc_at_start = _gc_collections()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._gc_at_start = _gc_collections()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop the scheduler; refuse (typed) whatever is still queued."""
        self._running = False
        self._work.set()
        if self._task is not None:
            try:
                await self._task
            finally:
                self._task = None
        for req in self._drain_queues():
            self._refuse(req, RefusalReason.SHUTDOWN,
                         "server stopped with request queued")
        if self.durable is not None:
            self.durable.close()
        if self._failure is not None:
            raise self._failure

    # -- the client surface -----------------------------------------------

    def submit(self, tenant: str, op: str, payload: Sequence, *,
               timeout_ticks: Optional[int] = None) -> "asyncio.Future[Any]":
        """Submit one request; ``await`` the returned future for its outcome.

        It resolves to the op's result list (reads) / ``None`` (writes),
        a :class:`Refusal`, or a :class:`DegradedResult` -- the falsy
        cases are the typed refusals.  ``timeout_ticks`` sets a
        deadline that many scheduler ticks from now (virtual time).
        """
        if self._failure is not None:
            raise self._failure
        admission, tick = self.admission, self.tick
        if not self._running:
            refusal = admission.refuse(tenant, op, RefusalReason.SHUTDOWN,
                                       "server is not running")
        elif op not in self.caps:
            refusal = admission.refuse(tenant, op, RefusalReason.UNSUPPORTED,
                                       f"op {op!r} not in structure caps")
        else:
            request = Request(
                tenant, op, list(payload),
                None if timeout_ticks is None else tick + timeout_ticks, tick)
            refusal = admission.admit(request, tick)
        future = asyncio.get_running_loop().create_future()
        if refusal is not None:
            future.set_result(refusal)
        else:
            request.future = future
            self._work.set()
        return future

    # -- the scheduler loop -----------------------------------------------

    async def _run(self) -> None:
        try:
            while self._running:
                if self.admission.pending == 0:
                    self._work.clear()
                    self._last_progress = self.tick  # idle is not a stall
                    await self._work.wait()
                    continue
                # A tick is one reclamation epoch (DESIGN.md §16): what
                # it allocates is dead when _tick returns, so nothing of
                # it reaches the collector.
                with collector_paused():
                    self._tick()
                # Yield so clients consume results and submit follow-ups
                # before the next batch forms (closed-loop pipelining);
                # their code runs with the collector as they left it.
                await asyncio.sleep(0)
        except BaseException as exc:
            self._failure = exc
            self._running = False
            self._abort_pending(exc)
            raise

    def _tick(self) -> None:
        """One scheduler tick: form the batches, refuse the expired
        requests, run the batches and fan their outcomes out.  Its own
        frame, so the tick's batches, requests and slices are released
        when it returns; a tick that raises fails the requests it took
        out of admission, and everything still queued."""
        self.tick += 1
        batches, expired = self.coalescer.next_batch(
            self.admission, self.tick, self.groups)
        try:
            progressed = False
            for req in expired:
                self._refuse(
                    req, RefusalReason.DEADLINE,
                    f"deadline tick {req.deadline} passed at tick "
                    f"{self.tick} before dispatch")
                progressed = True
            if batches:
                self._execute(batches)
                progressed = True
            if progressed:
                self._last_progress = self.tick
            elif (self.admission.pending
                  and self.tick - self._last_progress
                  > self.config.watchdog_ticks):
                raise ServerStalled(
                    f"{self.admission.pending} request(s) pending but "
                    f"no progress for {self.config.watchdog_ticks} "
                    f"ticks (tick {self.tick})")
        except BaseException as exc:
            self._abort_pending(exc, batches)
            raise

    def _execute(self, batches: List[MergedBatch]) -> None:
        """Run one tick's batches -- a lone batch is a group of one --
        and fan their outcomes back out batch by batch, in drain order
        (the write first)."""
        self.batches_served += len(batches)
        kind = "+".join(sorted(batch.op for batch in batches))
        self.ticks_by_kind[kind] = self.ticks_by_kind.get(kind, 0) + 1
        outcomes = self.policy.execute(batches, self.tick)
        for batch, outcome in zip(batches, outcomes):
            self._demux(batch, outcome)

    # -- demux ------------------------------------------------------------

    def _journal(self, batch: MergedBatch, kind: str) -> None:
        self.journal.append(JournalEntry(
            self.tick, batch.op, tuple(batch.items),
            [(r.id, r.tenant, lo, hi) for r, lo, hi in batch.slices], kind))

    def _demux(self, batch: MergedBatch, result: Any) -> None:
        """Fan one batch outcome back out to its requests' futures."""
        if isinstance(result, Refusal):
            for req, _, _ in batch.slices:
                self._refuse(req, result.reason, result.detail)
            return
        if isinstance(result, DegradedResult):
            if result.reason is DegradedReason.STALE_READ:
                self._journal(batch, "stale")
                values = result.value
                for req, lo, hi in batch.slices:
                    self._resolve(req, DegradedResult(
                        req.op, result.reason, result.cause,
                        None if values is None else values[lo:hi]))
            else:
                for req, _, _ in batch.slices:
                    self._resolve(req, DegradedResult(
                        req.op, result.reason, result.cause))
            return
        self._journal(batch, "live")
        tick = self.tick
        for req, lo, hi in batch.slices:
            metrics = req.state.metrics
            metrics.completed += 1
            metrics.items_served += hi - lo
            metrics.queue_wait_ticks += tick - req.submitted_tick
            if not req.future.done():
                req.future.set_result(
                    None if result is None else result[lo:hi])

    def _resolve(self, request: Request, outcome: DegradedResult) -> None:
        metrics = request.state.metrics
        metrics.degraded += 1
        metrics.queue_wait_ticks += self.tick - request.submitted_tick
        if not request.future.done():
            request.future.set_result(outcome)

    def _refuse(self, request: Request, reason: RefusalReason,
                detail: str) -> None:
        request.state.metrics.refuse(reason)
        if not request.future.done():
            request.future.set_result(
                Refusal(request.op, request.tenant, reason, detail))

    def _drain_queues(self) -> List[Request]:
        """Take everything still queued, tenants in creation order."""
        take = self.admission.take
        return [take(state) for state in self.admission.tenants.values()
                for _ in range(len(state.queue))]

    def _abort_pending(self, exc: BaseException,
                       batches: Sequence[MergedBatch] = ()) -> None:
        """Fail with ``exc`` every request the failed tick took out of
        admission (``batches``) and every request still queued."""
        taken = [req for batch in batches for req, _, _ in batch.slices]
        for req in taken + self._drain_queues():
            if not req.future.done():
                req.future.set_exception(exc)

    # -- status API -------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The health/metrics surface (everything JSON-serialisable)."""
        manager = self.manager
        machine = getattr(manager.structure, "machine", None)
        # The checkpoint cadence, visible: what has been captured, what
        # a failover (or, with a state dir, a restart) would replay
        # right now, and the served-items threshold of the next capture.
        cadence = {
            "checkpoints_captured": manager.checkpoints_captured,
            "replay_debt_items": manager.replay_debt_items,
            "last_checkpoint_items": manager.last_checkpoint_items,
        }
        return {
            "tick": self.tick,
            "running": self._running,
            "failure": (None if self._failure is None
                        else f"{type(self._failure).__name__}: "
                             f"{self._failure}"),
            "health": self.health.as_dict(),
            "policy": self.policy.as_dict(),
            "pending": self.admission.pending,
            "batches_served": self.batches_served,
            "journal_batches": len(self.journal),
            "rounds": (None if machine is None
                       else machine.metrics.rounds),
            "recovery": cadence,
            # What a tick was (ticks that ran a batch, by kind; the
            # same-op batches they ran, per tick -- above one only where
            # grouped ticks happen: ``batches_served`` and the
            # journal count same-op batches, ``tick`` counts ticks), and
            # what the host interpreter did since start(): collections
            # per generation (every tick, and every batch outside one,
            # runs with the cyclic collector paused --
            # repro.ops.collector_paused -- so what is counted here
            # started between ticks, and a fault-free session runs no
            # full collection), and how many
            # outermost batch scopes the live machine has run, and what
            # share of its tasks ran inside batch handlers (every one on
            # the engine, under a fault plan too; the per-task loop is
            # the reference oracle's alone).
            "runtime": {
                "ticks_by_kind": dict(sorted(self.ticks_by_kind.items())),
                "batches_per_tick": (
                    self.batches_served
                    / max(1, sum(self.ticks_by_kind.values()))),
                "gc_collections": [now - then for now, then in
                                   zip(_gc_collections(),
                                       self._gc_at_start)],
                "batch_epochs": (None if machine is None
                                 else machine.batch_epochs),
                "chunked_task_share": (
                    None if machine is None or not machine.tasks_executed
                    else machine.tasks_chunked / machine.tasks_executed),
            },
            "durability": (None if self.durable is None
                           else dict(self.durable.stats(), **cadence,
                                     restored=manager.restored_from_disk)),
            "tenants": {name: state.metrics.as_dict()
                        for name, state in
                        sorted(self.admission.tenants.items())},
        }
