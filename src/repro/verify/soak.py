"""Chaos soak harness for the serving layer (:mod:`repro.serve`).

Replays a swarm of synthetic concurrent clients against a
:class:`~repro.serve.server.Server` whose live machine carries a PR 5
fault schedule, then proves the serving SLO from the outside:

1. **Sequential-replay equivalence** -- the server's journal (every
   answered batch, in execution order, with demux slices) is replayed
   through the :class:`~repro.verify.oracle.SequentialOracle`; each
   client's answered stream must match its slice of the replay, *in
   its own program order*.  This is the interleaving check: whatever
   order the coalescer merged tenants in, the result must be
   explainable by one sequential execution.
2. **Correct or typed refusal** -- every outcome a client saw is
   either its replay-expected answer, or a falsy typed value
   (:class:`~repro.serve.errors.Refusal` /
   :class:`~repro.recovery.DegradedResult`).  Refused requests must be
   absent from the journal (refusal == proof of non-effect).
3. **No hangs** -- the run completes with the bounded-progress
   watchdog silent; a :class:`~repro.serve.errors.ServerStalled` (or
   any scheduler failure) is a violation, not an exception.
4. **Fault-free honesty** -- under ``schedule="none"`` the refusal
   rate must be exactly zero: typed refusals are a *fault* response,
   never a steady-state tax.

Everything is deterministic: client programs are pure functions of
``(seed, client, step)`` via the chaos layer's splitmix hash, the
server runs on virtual ticks, and asyncio's ready queue is FIFO -- so
both digests (every client's outcomes and the journal's length; rounds
and failovers) are stable and reruns can be demanded bit-identical.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.recovery import DegradedReason, DegradedResult
from repro.serve import Refusal, Server, ServerConfig
from repro.sim.chaos import MACHINE_SCHEDULES, _mix, build_schedule
from repro.sim.machine import PIMMachine
from repro.verify.certificate import Certificate, cpu_books
from repro.verify.chaos import STRUCTURE_FACTORIES
from repro.verify.oracle import SequentialOracle

__all__ = ["SoakReport", "soak_session"]

#: Wall-clock guard for the whole async drive.  Purely a harness
#: backstop (virtual time governs every decision); it only fires if the
#: event loop itself wedges, which is exactly what the soak must not
#: mask with an infinite hang.
_HARNESS_TIMEOUT_S = 600.0


# ---------------------------------------------------------------------------
# synthetic clients


def _client_op(seed: int, cid: int, step: int, key_space: int,
               ) -> Tuple[str, list, Optional[int]]:
    """The deterministic ``step``-th request of client ``cid``.

    Mix: 40% get, 25% upsert, 10% delete, 10% range, 5% successor,
    10% multi-get.  Roughly one request in six carries a deadline
    (generous: 16-31 ticks, so deadlines only ever fire when faults
    actually back the pipeline up).
    """
    draw = _mix(seed, cid, step, 0xA0) % 100
    key = _mix(seed, cid, step, 0xA1) % key_space
    timeout: Optional[int] = None
    if _mix(seed, cid, step, 0xA2) % 6 == 0:
        timeout = 16 + _mix(seed, cid, step, 0xA3) % 16
    if draw < 40:
        return "get", [key], timeout
    if draw < 65:
        return "upsert", [(key, _mix(seed, cid, step, 0xA4) % 10_000)], timeout
    if draw < 75:
        return "delete", [key], timeout
    if draw < 85:
        span = 1 + _mix(seed, cid, step, 0xA5) % 8
        return "range", [(key, min(key_space - 1, key + span))], timeout
    if draw < 90:
        return "successor", [key], timeout
    count = 2 + _mix(seed, cid, step, 0xA6) % 3
    keys = [_mix(seed, cid, step, 0xA7 + i) % key_space
            for i in range(count)]
    return "get", keys, timeout


@dataclass
class _Record:
    """One client-side observation: what was asked, what came back."""

    op: str
    payload: list
    outcome: Any
    wait_ticks: int


# ---------------------------------------------------------------------------
# the report


@dataclass
class SoakReport(Certificate):
    """Everything one soak run observed, plus the SLO verdict."""

    schedule: str
    fault_seed: int
    seed: int
    clients: int
    ops_per_client: int
    structure: str = "skiplist"
    answered: int = 0
    refused: Dict[str, int] = field(default_factory=dict)
    degraded: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    health_state: str = ""
    health_transitions: int = 0
    recoveries: int = 0
    #: ``Server.status()["recovery"]`` at the end of the run: the
    #: checkpoint cadence counters (in neither digest).
    recovery: Dict[str, int] = field(default_factory=dict)
    #: ``Server.status()["runtime"]`` at the end of the run: host
    #: interpreter counters (not deterministic, so neither in a digest
    #: nor in :meth:`as_dict`).
    runtime: Dict[str, Any] = field(default_factory=dict)
    trips: int = 0
    stale_reads: int = 0
    ticks: int = 0
    batches: int = 0
    journal_batches: int = 0
    rounds: int = 0
    items_served: int = 0
    latencies: List[int] = field(default_factory=list)

    @property
    def total_refused(self) -> int:
        return sum(self.refused.values())

    @property
    def total_degraded(self) -> int:
        return sum(self.degraded.values())

    def latency_percentile(self, q: float) -> int:
        """Queue-wait percentile in ticks (0 when nothing completed)."""
        if not self.latencies:
            return 0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"soak {self.schedule}/f{self.fault_seed}/s{self.seed}"
                f"/{self.structure}: "
                f"{self.clients} clients x {self.ops_per_client} ops -> "
                f"{self.answered} answered, {self.total_refused} refused, "
                f"{self.total_degraded} degraded | "
                f"{self.recoveries} failover(s), {self.trips} trip(s), "
                f"health={self.health_state} | {self.ticks} ticks, "
                f"{self.rounds} rounds | {verdict}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "schedule": self.schedule,
            "fault_seed": self.fault_seed,
            "seed": self.seed,
            "clients": self.clients,
            "ops_per_client": self.ops_per_client,
            "structure": self.structure,
            "answered": self.answered,
            "refused": dict(self.refused),
            "degraded": dict(self.degraded),
            "violations": list(self.violations),
            "health_state": self.health_state,
            "health_transitions": self.health_transitions,
            "recoveries": self.recoveries,
            "recovery": dict(self.recovery),
            "trips": self.trips,
            "stale_reads": self.stale_reads,
            "ticks": self.ticks,
            "batches": self.batches,
            "journal_batches": self.journal_batches,
            "rounds": self.rounds,
            "items_served": self.items_served,
            "latency_p50": self.latency_percentile(0.50),
            "latency_p99": self.latency_percentile(0.99),
            "result_digest": self.result_digest,
            "model_digest": self.model_digest,
        }


# ---------------------------------------------------------------------------
# the soak


def soak_session(schedule: str = "none", fault_seed: int = 0, *,
                 clients: int = 64, ops_per_client: int = 8,
                 num_modules: int = 8, seed: int = 0,
                 structure: str = "skiplist",
                 config: Optional[ServerConfig] = None) -> SoakReport:
    """Run one soak: ``clients`` concurrent streams under ``schedule``.

    ``schedule`` is a :data:`~repro.sim.chaos.MACHINE_SCHEDULES` name
    or ``"none"`` (fault-free baseline, where the refusal rate must be
    exactly zero).  ``structure`` picks the structure under serve from
    the chaos harness's :data:`~repro.verify.chaos.STRUCTURE_FACTORIES`
    (both expose the full batch-op surface, so the client mix is
    unchanged).  Returns a :class:`SoakReport`; ``report.ok`` is the
    SLO verdict.  A ``config`` (``repro serve``'s state dir) is not part
    of the report's certificate config.
    """
    if schedule != "none" and schedule not in MACHINE_SCHEDULES:
        raise ValueError(
            f"unknown fault schedule {schedule!r}; known: none, "
            f"{', '.join(sorted(MACHINE_SCHEDULES))}")
    factory = STRUCTURE_FACTORIES.get(structure)
    if factory is None:
        raise ValueError(f"unknown soak structure {structure!r}; known: "
                         f"{', '.join(sorted(STRUCTURE_FACTORIES))}")
    if clients < 1 or ops_per_client < 1:
        raise ValueError("clients and ops_per_client must be >= 1")
    key_space = max(64, 2 * clients)
    report = SoakReport(
        schedule=schedule, fault_seed=fault_seed, seed=seed, clients=clients,
        ops_per_client=ops_per_client, structure=structure,
        config=dict(kind="soak", schedule=schedule, fault_seed=fault_seed,
                    clients=clients, ops_per_client=ops_per_client,
                    seed=seed, num_modules=num_modules, structure=structure))

    initial = [(k, k * 3) for k in range(0, key_space, 2)]
    machines: List[PIMMachine] = []

    def standby() -> Any:
        m = PIMMachine(num_modules=num_modules, seed=seed)
        machines.append(m)
        return factory(m)

    live = standby()
    live.build(initial)
    if schedule != "none":
        machines[0].install_fault_plan(
            build_schedule(schedule, fault_seed, num_modules))
    server = Server(live, standby,
                    config or ServerConfig(seed=seed))
    if server.manager.restored_from_disk:
        # Non-fresh state dir: the disk is the source of truth -- the
        # manager just restored snapshot + WAL tail over the built
        # structure, so the replay oracle must start from the restored
        # state, not the synthetic build.
        initial = server.manager.durable_items()

    records: Dict[str, List[_Record]] = {}

    async def client(cid: int) -> None:
        name = f"c{cid:04d}"
        stream = records.setdefault(name, [])
        for step in range(ops_per_client):
            op, payload, timeout = _client_op(seed, cid, step, key_space)
            before = server.tick
            outcome = await server.submit(name, op, payload,
                                          timeout_ticks=timeout)
            stream.append(_Record(op, payload, outcome,
                                  server.tick - before))

    async def drive() -> None:
        await server.start()
        try:
            await asyncio.gather(*[client(c) for c in range(clients)])
        finally:
            try:
                await server.stop()
            except Exception as exc:  # watchdog / scheduler failure
                report.violations.append(
                    f"server failed: {type(exc).__name__}: {exc}")

    try:
        asyncio.run(asyncio.wait_for(drive(), _HARNESS_TIMEOUT_S))
    except asyncio.TimeoutError:
        report.violations.append(
            f"harness timeout: soak did not finish within "
            f"{_HARNESS_TIMEOUT_S:.0f}s wall-clock")
        return report
    except Exception as exc:
        report.violations.append(
            f"client crashed: {type(exc).__name__}: {exc}")
        return report

    _tally(report, records)
    _verify_replay(report, records, server, initial)

    if schedule == "none":
        if report.total_refused:
            report.violations.append(
                f"fault-free run refused {report.total_refused} "
                f"request(s): {report.refused}")
        if report.total_degraded:
            report.violations.append(
                f"fault-free run degraded {report.total_degraded} "
                f"request(s): {report.degraded}")

    status = server.status()
    report.health_state = status["health"]["state"]  # type: ignore[index]
    report.health_transitions = len(
        status["health"]["transitions"])  # type: ignore[index]
    report.recoveries = server.manager.recoveries
    report.recovery = dict(status["recovery"])  # type: ignore[call-overload]
    report.runtime = dict(status["runtime"])  # type: ignore[call-overload]
    report.trips = server.policy.stats["trips"]
    report.stale_reads = server.policy.stats["stale_reads"]
    report.ticks = server.tick
    report.batches = server.batches_served
    report.journal_batches = len(server.journal)
    report.rounds = sum(m.metrics.rounds for m in machines)
    report.items_served = sum(s.metrics.items_served
                              for s in server.admission.tenants.values())

    if server.manager.healthy:
        try:
            server.manager.structure.check_integrity()
        except AssertionError as exc:
            report.violations.append(f"integrity violated after soak: {exc}")

    report.seal([f"{name}:{record.op}:{record.outcome!r}"
                 for name in sorted(records) for record in records[name]]
                + [f"journal={report.journal_batches}"],
                [f"rounds={report.rounds}",
                 f"recoveries={report.recoveries}",
                 *cpu_books(machines)])
    return report


def _tally(report: SoakReport, records: Dict[str, List[_Record]]) -> None:
    for stream in records.values():
        for record in stream:
            outcome = record.outcome
            if isinstance(outcome, Refusal):
                key = outcome.reason.value
                report.refused[key] = report.refused.get(key, 0) + 1
            elif isinstance(outcome, DegradedResult):
                key = outcome.reason.value
                report.degraded[key] = report.degraded.get(key, 0) + 1
                report.latencies.append(record.wait_ticks)
            else:
                report.answered += 1
                report.latencies.append(record.wait_ticks)


def _verify_replay(report: SoakReport, records: Dict[str, List[_Record]],
                   server: Server, initial: List[Tuple[Any, Any]]) -> None:
    """Checks 1 and 2: journal replay vs each client's program order."""
    oracle = SequentialOracle(initial)
    expect: Dict[str, List[Tuple[str, Any, str]]] = {}
    for entry in server.journal:
        answers = oracle.apply_batch(entry.op, list(entry.items))
        for _, tenant, lo, hi in entry.slices:
            expect.setdefault(tenant, []).append(
                (entry.op,
                 None if answers is None else answers[lo:hi],
                 entry.kind))

    for tenant in sorted(records):
        stream = records[tenant]
        slots = expect.get(tenant, [])
        cursor = 0
        for step, record in enumerate(stream):
            outcome = record.outcome
            if isinstance(outcome, Refusal):
                continue  # refusals are never journaled
            if isinstance(outcome, DegradedResult) \
                    and outcome.reason is not DegradedReason.STALE_READ:
                continue  # quiesced refusal: no answer, no journal entry
            if cursor >= len(slots):
                report.violations.append(
                    f"{tenant} step {step} ({record.op}): answered but "
                    f"absent from the journal")
                continue
            op, expected, kind = slots[cursor]
            cursor += 1
            if op != record.op:
                report.violations.append(
                    f"{tenant} step {step}: journal order mismatch "
                    f"(journal has {op!r}, client ran {record.op!r})")
                continue
            if isinstance(outcome, DegradedResult):
                if kind != "stale":
                    report.violations.append(
                        f"{tenant} step {step} ({record.op}): stale answer "
                        f"for a live-journaled batch")
                value = outcome.value
            else:
                if kind != "live":
                    report.violations.append(
                        f"{tenant} step {step} ({record.op}): live answer "
                        f"for a stale-journaled batch")
                value = outcome
            if value != expected:
                report.violations.append(
                    f"{tenant} step {step} ({record.op}): answer diverges "
                    f"from sequential replay: got {value!r}, "
                    f"expected {expected!r}")
        if cursor != len(slots):
            report.violations.append(
                f"{tenant}: journal holds {len(slots) - cursor} "
                f"extra batch slice(s) beyond the client's answered "
                f"stream (refused request executed?)")
