"""The differential chaos harness: fuzz sessions on an unreliable machine.

Extends the differential driver (:mod:`repro.verify.differ`) with fault
injection at the *machine* level: each chaos session replays one seeded
fuzz session on a machine running a named fault schedule
(:data:`repro.sim.chaos.MACHINE_SCHEDULES`), under a
:class:`~repro.recovery.manager.RecoveryManager`, and checks

- **equivalence** -- every read batch and the final full-range state
  must match the :class:`~repro.verify.oracle.SequentialOracle` exactly
  (the reliable-delivery protocol and crash recovery must be invisible
  in *results*), or end in a typed
  :class:`~repro.recovery.manager.DegradedResult` -- never a wrong
  answer;
- **overhead envelopes** -- retry/backoff/failover traffic shows up in
  *rounds*; each schedule's total must stay inside a calibrated
  multiple of the fault-free twin's rounds;
- **determinism** -- the whole chaos run is a pure function of
  ``(session seed, fault seed)``: a rerun must seal the same digests
  (results and final state; fault statistics, recoveries and rounds).

Violations reuse :class:`~repro.verify.differ.Divergence` with
``chaos_*`` kinds.  A report's config carries the session it ran, its
fault schedule, fault seed and structure, so a diverging chaos session
shrinks to a replayable JSON repro like a differential one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.skiplist import PIMSkipList
from repro.recovery import DegradedResult, RecoveryManager
from repro.sim.chaos import MACHINE_SCHEDULES, build_schedule
from repro.sim.machine import PIMMachine
from repro.structures.pimtree import PIMTree
from repro.verify.certificate import Certificate, cpu_books
from repro.verify.differ import (
    Divergence,
    READ_OPS,
    _diff_results,
    _session_key_bounds,
    verify_containers,
)
from repro.verify.fuzz import fuzz_session, initial_items_for
from repro.verify.oracle import SequentialOracle
from repro.verify.shrink import session_to_dict
from repro.workloads.sessions import Session

__all__ = [
    "ChaosReport",
    "MESSAGE_SCHEDULES",
    "MIN_ROTATIONS",
    "OVERHEAD_ENVELOPES",
    "STRUCTURE_FACTORIES",
    "chaos_containers",
    "chaos_session",
    "sized_session",
]

#: Structures the chaos harness can put under a fault schedule.  Each
#: factory builds a fresh *empty* structure on ``machine``.  The
#: PIM-tree uses the same tiny geometry as its differ adapter, so
#: chaos-sized sessions exercise interior levels, splits, and shadow
#: promotion/rebroadcast.
STRUCTURE_FACTORIES = {
    "skiplist": PIMSkipList,
    "pimtree": lambda machine: PIMTree(
        machine, leaf_size=4, fanout=4, promote_threshold=2),
}

#: Schedules with no crash events: safe for structures that issue
#: unprotected module->module forwards outside the recovery manager
#: (the container checks run these).  Decided by probing the plan's
#: crash list (crash presence is seed-independent for every builder),
#: not by name-matching -- ``intermittent`` carries crashes too.
MESSAGE_SCHEDULES: Tuple[str, ...] = tuple(
    name for name in MACHINE_SCHEDULES
    if not build_schedule(name, 0, 8).spec.crashes
)

#: Per-schedule round-overhead envelopes: chaos rounds must stay within
#: ``factor * fault-free rounds + constant``.  Calibrated against the
#: fuzz corpus (seeds 0..24, all schedules, P=8) at roughly 2x the
#: observed maxima; the constant absorbs failover rebuild+replay, whose
#: cost is history- not batch-proportional.  A regression that turns
#: retries into per-message round trips blows the factor; one that
#: makes recovery replay quadratic blows the constant.
OVERHEAD_ENVELOPES: Dict[str, Tuple[float, int]] = {
    "drop": (4.0, 64),
    "dup_delay": (4.0, 64),
    "corrupt": (4.0, 64),
    "stall": (3.0, 64),
    "crash_restart": (5.0, 512),
    "crash_wipe": (5.0, 512),
    "mixed": (4.0, 128),
    "intermittent": (6.0, 768),
}


#: Checkpoint rotations (captures after the initial one) every sweep
#: session must cross: recovery from the bootstrap checkpoint, from a
#: rotated one, and from a rotated one with an older one behind it are
#: three different code paths, and only the third needs two.
MIN_ROTATIONS = 2

#: The longest session :func:`sized_session` will try before giving up
#: on a seed (sessions of single-item batches over the fuzzer's 60
#: initial keys need ~150).
_MAX_BATCHES = 256


def sized_session(seed: int, make: Callable[[int], Any], *,
                  num_batches: int, batch_size: int,
                  checkpoint_every: int) -> Session:
    """The fuzz session for ``seed``, long enough to cross
    :data:`MIN_ROTATIONS` checkpoint rotations.

    The recovery manager captures only once the items served reach the
    checkpoint's size, so how many batches a rotation takes depends on
    the seed's op mix; a fixed length would leave some seeds restarting
    from the bootstrap checkpoint only.  ``num_batches`` is therefore a
    floor: a fuzz session is a prefix of every longer one on the same
    seed, so the session is cut at the first batch, at or past the
    floor, where a fault-free manager over ``make(session.seed)`` (a
    fresh empty structure) has rotated often enough *and* logged two
    mutations since: the last rotation, too, is then followed by
    recoveries that replay on top of it, and the newest WAL segment
    holds a record with a valid one after it (what separates mid-log
    corruption from a torn tail in the disk-fault sweep).
    """
    longest = fuzz_session(seed, num_batches=max(num_batches, _MAX_BATCHES),
                           batch_size=batch_size)
    live = make(longest.seed)
    live.build(initial_items_for(longest))
    manager = RecoveryManager(live, lambda: make(longest.seed),
                              checkpoint_every=checkpoint_every)
    for done, batch in enumerate(longest.batches, start=1):
        manager.run([(batch.op, batch.payload)])
        if (done >= num_batches and manager.log_size >= 2
                and manager.checkpoints_captured > MIN_ROTATIONS):
            return Session(batches=longest.batches[:done],
                           initial_keys=longest.initial_keys,
                           seed=longest.seed)
    raise ValueError(
        f"session seed {seed} crossed {manager.checkpoints_captured - 1} "
        f"checkpoint rotation(s) in {len(longest.batches)} batches; "
        f"sweeps need {MIN_ROTATIONS} and two mutations past the last "
        f"(raise batch_size)")


@dataclass
class ChaosReport(Certificate):
    """Everything one chaos session observed."""

    session_seed: int
    fault_seed: int
    schedule: str
    num_modules: int
    num_batches: int
    structure: str = "skiplist"
    violations: List[Divergence] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    degraded: bool = False
    degraded_at: int = -1  # batch index at which the run quiesced
    recoveries: int = 0
    rotations: int = 0     # checkpoint captures after the initial one
    base_rounds: int = 0   # fault-free twin, whole session
    chaos_rounds: int = 0  # chaos machine + any standby machines
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        return self.chaos_rounds / max(1, self.base_rounds)

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.violations)} divergence(s)"
        tail = f", degraded at batch {self.degraded_at}" if self.degraded \
            else ""
        faults = self.stats.get("transmissions", 0) and (
            f", {sum(self.stats.get(k, 0) for k in ('drops', 'dups', 'delays', 'corrupts', 'dead_drops', 'stalled_slots'))}"
            f"/{self.stats['transmissions']} envelopes faulted") or ""
        return (f"seed={self.session_seed} fault_seed={self.fault_seed} "
                f"schedule={self.schedule}: {self.num_batches} batches -> "
                f"{state}; rounds {self.base_rounds} -> {self.chaos_rounds} "
                f"({self.overhead:.2f}x), {self.recoveries} recovery(ies), "
                f"{self.rotations} rotation(s){faults}{tail}")


def chaos_session(session_seed: int, schedule: str, fault_seed: int = 0, *,
                  num_modules: int = 8, num_batches: int = 10,
                  batch_size: int = 16, checkpoint_every: int = 3,
                  session: Optional[Session] = None,
                  structure: str = "skiplist") -> ChaosReport:
    """Replay one fuzz session under a machine-level fault schedule.

    ``session`` overrides the fuzzed one (the repro-replay path); its
    seed then labels the report.  A fuzzed session is at least
    ``num_batches`` long and crosses :data:`MIN_ROTATIONS` checkpoint
    rotations fault-free (:func:`sized_session`).  ``structure`` picks
    the structure under chaos (see :data:`STRUCTURE_FACTORIES`).  The
    report's config holds the session that ran.
    """
    if schedule not in MACHINE_SCHEDULES:
        raise ValueError(f"unknown fault schedule {schedule!r}; known: "
                         f"{', '.join(sorted(MACHINE_SCHEDULES))}")
    factory = STRUCTURE_FACTORIES.get(structure)
    if factory is None:
        raise ValueError(f"unknown chaos structure {structure!r}; known: "
                         f"{', '.join(sorted(STRUCTURE_FACTORIES))}")
    if session is None:
        session = sized_session(
            session_seed,
            lambda seed: factory(PIMMachine(num_modules=num_modules,
                                            seed=seed)),
            num_batches=num_batches, batch_size=batch_size,
            checkpoint_every=checkpoint_every)
    items = initial_items_for(session)
    report = ChaosReport(
        session_seed=session.seed, fault_seed=fault_seed, schedule=schedule,
        num_modules=num_modules, num_batches=len(session.batches),
        structure=structure,
        config=dict(session_to_dict(session), kind="chaos",
                    fault_schedule=schedule, fault_seed=fault_seed,
                    num_modules=num_modules, structure=structure,
                    checkpoint_every=checkpoint_every))

    # Oracle answers + the fault-free twin's round count (the overhead
    # baseline; same machine seed, so the structure evolves identically
    # and the only difference under chaos is fault handling).
    oracle = SequentialOracle(items)
    twin_machine = PIMMachine(num_modules=num_modules, seed=session.seed)
    twin = factory(twin_machine)
    twin.build(items)
    expected: List = []
    for batch in session.batches:
        expected.append(oracle.apply_batch(batch.op, batch.payload))
        twin.apply_batch(batch.op, batch.payload)
    report.base_rounds = twin_machine.metrics.rounds

    # The chaos run: same structure seed, fault plan installed, wrapped
    # in a recovery manager whose standby factory builds clean machines.
    machines: List[PIMMachine] = []

    def standby():
        m = PIMMachine(num_modules=num_modules, seed=session.seed)
        machines.append(m)
        return factory(m)

    chaotic = standby()
    chaotic.build(items)
    chaos_state = machines[0].install_fault_plan(
        build_schedule(schedule, fault_seed, num_modules))
    manager = RecoveryManager(chaotic, standby,
                              checkpoint_every=checkpoint_every)

    parts: List[str] = []  # what a client observed, for the result digest

    def diverge(i: int, op: str, kind: str, detail: str) -> None:
        report.violations.append(Divergence(
            seed=session.seed, batch_index=i, op=op,
            impl=f"{structure}+chaos", kind=kind, detail=detail))

    for i, batch in enumerate(session.batches):
        [result] = manager.run([(batch.op, batch.payload)])
        if isinstance(result, DegradedResult):
            report.degraded = True
            report.degraded_at = i
            parts.append(f"degraded@{i}:{result.reason.value}")
            break
        parts.append(repr(result))
        if batch.op in READ_OPS and result != expected[i]:
            diverge(i, batch.op, "chaos_result",
                    _diff_results(batch.op, batch.payload, expected[i],
                                  result))

    # Final state + integrity, unless the run (correctly) quiesced.
    if not report.degraded:
        bounds = _session_key_bounds(session)
        if bounds is not None:
            [final] = manager.run([("range", [bounds])])
            if isinstance(final, DegradedResult):
                report.degraded = True
                report.degraded_at = len(session.batches)
                parts.append(f"degraded@final:{final.reason.value}")
            else:
                got = dict(final[0])
                want = oracle.as_dict()
                if got != want:
                    missing = sorted(set(want) - set(got))[:4]
                    extra = sorted(set(got) - set(want))[:4]
                    diverge(-1, "final", "chaos_final_state",
                            f"{len(want)} keys expected, {len(got)} found; "
                            f"missing={missing} extra={extra}")
                parts.append(repr(sorted(got.items())))
        try:
            manager.structure.check_integrity()
        except AssertionError as exc:
            diverge(-1, "final", "chaos_integrity",
                    f"invariant violated after chaos session: {exc}")

    report.recoveries = manager.recoveries
    report.rotations = manager.checkpoints_captured - 1
    report.chaos_rounds = sum(m.metrics.rounds for m in machines)
    report.stats = chaos_state.stats.as_dict()
    report.seal(parts, [repr(sorted(report.stats.items())),
                        f"recoveries={report.recoveries}",
                        f"rounds={report.chaos_rounds}",
                        *cpu_books(machines)])

    if not report.degraded:
        factor, constant = OVERHEAD_ENVELOPES[schedule]
        budget = int(factor * report.base_rounds) + constant
        if report.chaos_rounds > budget:
            diverge(-1, "session", "chaos_overhead",
                    f"{report.chaos_rounds} chaos rounds > envelope "
                    f"{budget} ({factor:g}x{report.base_rounds}+{constant} "
                    f"for schedule {schedule!r})")
    return report


def chaos_containers(seed: int, schedule: str, fault_seed: int = 0, *,
                     num_modules: int = 8) -> List[Divergence]:
    """The FIFO/priority-queue exact-result checks on a faulty machine.

    Restricted to :data:`MESSAGE_SCHEDULES`: the containers run outside
    the recovery manager, so crash schedules would (correctly) escalate
    unprotected forwards to :class:`~repro.sim.errors.ModuleCrashed`
    rather than produce a comparable result.
    """
    if schedule not in MESSAGE_SCHEDULES:
        raise ValueError(f"container chaos wants a crash-free schedule; "
                         f"{schedule!r} not in {MESSAGE_SCHEDULES}")
    machine = PIMMachine(num_modules=num_modules, seed=seed & 0x7FFFFFFF)
    machine.install_fault_plan(build_schedule(schedule, fault_seed,
                                              num_modules))
    return verify_containers(seed, num_modules=num_modules, machine=machine)
