"""Restart-equivalence certification for :mod:`repro.recovery.durable`.

Two sweeps, both differential against the
:class:`~repro.verify.oracle.SequentialOracle` and both bit-identical
across reruns:

1. **Kill sweep** (:func:`kill_sweep`) -- drive a seeded fuzz session
   through a :class:`~repro.recovery.manager.RecoveryManager` with a
   durable state dir and crash the host at *every* record boundary
   (including mid-record, via seeded torn-fragment variants of the
   in-flight append).  Each restart must restore **exactly** the
   oracle's acked prefix -- zero acked-write loss (RPO = 0), zero
   phantom writes -- and the resumed session must finish with the full
   oracle state, every read answered oracle-exact along the way.
2. **Disk-fault sweep** (:func:`fault_sweep`) -- run the session to
   completion, close the state dir, apply one registered disk fault
   (:data:`~repro.verify.faults.DISK_FAULTS`), and demand the damage
   is *caught*: ``fsck`` must report it, and reopen must either
   recover to an exact oracle prefix (full state where the fault
   destroys nothing acked, e.g. a duplicated record) or refuse with a
   typed :class:`~repro.recovery.durable.store.DurabilityError` that
   ``fsck --repair`` resolves.  A recovered state that is not an
   oracle prefix is the one unforgivable outcome.

Both sweeps size their session with
:func:`~repro.verify.chaos.sized_session`, so each crosses at least
:data:`~repro.verify.chaos.MIN_ROTATIONS` snapshot rotations (the
manager's checkpoint cadence follows the items served, not a batch
count), and both check that the driven store really rotated that often:
the kill sweep then restarts from the bootstrap snapshot (early
boundaries) and from rotated ones (late boundaries), and the snapshot
faults always find an older snapshot behind the one they damage.

State dirs live in fresh temp directories and are removed on the way
out, pass or fail.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.skiplist import PIMSkipList
from repro.recovery import RecoveryManager
from repro.recovery.durable import (
    DurabilityError,
    DurabilityPolicy,
    DurableStore,
    fsck,
)
from repro.recovery.durable.wal import WalRecord, encode_record
from repro.recovery.manager import MUTATING_OPS
from repro.sim.chaos import _mix
from repro.sim.machine import PIMMachine
from repro.verify.certificate import Certificate
from repro.verify.chaos import MIN_ROTATIONS, sized_session
from repro.verify.faults import DISK_FAULTS
from repro.verify.fuzz import initial_items_for
from repro.verify.oracle import SequentialOracle
from repro.workloads.sessions import Session

__all__ = ["DurableReport", "fault_sweep", "kill_sweep"]


@dataclass
class DurableReport(Certificate):
    """One sweep's observations and verdict."""

    mode: str  # "kill" | "fault"
    session_seed: int
    fault_seed: int
    cases: int = 0
    mutations: int = 0
    #: Snapshot rotations the uninterrupted session crossed.
    rotations: int = 0
    violations: List[str] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    #: fault name -> how the damage was caught ("recovered" /
    #: "refused+repaired" / "refused+unrepairable"), fault sweep only.
    caught: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        detail = (f"{self.cases} boundary(ies)" if self.mode == "kill"
                  else f"{self.cases} fault(s): "
                       + ", ".join(f"{k}={v}"
                                   for k, v in sorted(self.caught.items())))
        return (f"durable {self.mode} seed={self.session_seed} "
                f"fault_seed={self.fault_seed}: {self.mutations} acked "
                f"record(s), {self.rotations} rotation(s), {detail} -> "
                f"{verdict}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "session_seed": self.session_seed,
            "fault_seed": self.fault_seed,
            "cases": self.cases,
            "mutations": self.mutations,
            "rotations": self.rotations,
            "violations": list(self.violations),
            "caught": dict(self.caught),
            "result_digest": self.result_digest,
            "model_digest": self.model_digest,
        }


# ---------------------------------------------------------------------------
# shared plumbing


#: Modeled-fsync policy for every sweep: the crash model is exact
#: either way, and skipping physical fsyncs keeps the O(boundaries x
#: session) kill sweep fast.
_POLICY = DurabilityPolicy(os_fsync=False)


def _plan(session_seed: int, num_batches: int, batch_size: int,
          num_modules: int, checkpoint_every: int,
          ) -> Tuple[Session, list, List[Dict[Any, Any]], List[Any]]:
    """Session (at least ``num_batches`` long, sized to cross
    ``MIN_ROTATIONS`` rotations) + initial items + oracle state after
    each mutating batch (index = acked-record count) + expected answers
    per batch."""
    session = sized_session(
        session_seed,
        lambda seed: PIMSkipList(PIMMachine(num_modules=num_modules,
                                            seed=seed)),
        num_batches=num_batches, batch_size=batch_size,
        checkpoint_every=checkpoint_every)
    initial = initial_items_for(session)
    oracle = SequentialOracle(initial)
    states: List[Dict[Any, Any]] = [dict(oracle.data)]
    answers: List[Any] = []
    for batch in session.batches:
        answers.append(oracle.apply_batch(batch.op, list(batch.payload)))
        if batch.op in MUTATING_OPS:
            states.append(dict(oracle.data))
    return session, initial, states, answers


def _open_manager(root: str, session: Session, initial: list,
                  num_modules: int, checkpoint_every: int,
                  ) -> Tuple[RecoveryManager, DurableStore]:
    """Open the state dir and front it with a RecoveryManager (fresh
    dirs bootstrap from the initial build; reopened dirs restore)."""
    store = DurableStore.open(root, _POLICY)

    def rebuild() -> PIMSkipList:
        return PIMSkipList(PIMMachine(num_modules=num_modules,
                                      seed=session.seed))

    live = rebuild()
    if store.report.created and initial:
        live.build(initial)
    manager = RecoveryManager(live, rebuild,
                              checkpoint_every=checkpoint_every,
                              durable=store)
    return manager, store


def _drive(manager: RecoveryManager, session: Session, answers: List[Any],
           start: int, stop_mutations: Optional[int],
           violations: List[str], label: str) -> Tuple[int, int]:
    """Apply ``session.batches[start:]``, checking every answer against
    the oracle's, stopping *before* the mutating batch that would be
    acked record ``stop_mutations + 1``.  Returns ``(next_batch_index,
    mutations_applied_here)``."""
    mutated = 0
    for index in range(start, len(session.batches)):
        batch = session.batches[index]
        if (stop_mutations is not None and batch.op in MUTATING_OPS
                and mutated >= stop_mutations):
            return index, mutated
        result = manager.run(batch.op, list(batch.payload))
        if batch.op in MUTATING_OPS:
            mutated += 1
        elif result != answers[index]:
            violations.append(
                f"{label}: batch {index} ({batch.op}) answer diverges "
                f"from oracle: got {result!r}, expected {answers[index]!r}")
    return len(session.batches), mutated


def _note_rotations(report: DurableReport, store: DurableStore) -> None:
    """Record what the uninterrupted session rotated, and hold the
    sweep to the coverage its sizing promised."""
    report.rotations = store.snapshots_written
    if report.rotations < MIN_ROTATIONS:
        report.violations.append(
            f"coverage: the session crossed {report.rotations} snapshot "
            f"rotation(s); the sweep needs {MIN_ROTATIONS} to restart "
            f"both before and after a rotation")


def _state_key(state: Dict[Any, Any]) -> str:
    return repr(sorted(state.items()))


def _torn_fragment(session: Session, boundary: int, lsn: int,
                   next_index: int, variant: int) -> bytes:
    """A prefix of the record that was mid-write at the crash: nothing
    (clean cut at the sync boundary), a partial header, or a partial
    body -- the three shapes a power cut leaves behind."""
    if variant == 0 or next_index >= len(session.batches):
        return b""
    batch = session.batches[next_index]
    blob = encode_record(WalRecord(lsn=lsn, op=batch.op,
                                   payload=list(batch.payload)))
    if variant == 1:
        cut = 1 + _mix(session.seed, boundary, 0xF1) % 7       # header only
    else:
        cut = 8 + _mix(session.seed, boundary, 0xF2) % max(1, len(blob) - 8)
    return blob[:cut]


# ---------------------------------------------------------------------------
# sweep 1: kill at every record boundary


def kill_sweep(session_seed: int, *, fault_seed: int = 0,
               num_batches: int = 14, batch_size: int = 12,
               num_modules: int = 8, checkpoint_every: int = 3,
               ) -> DurableReport:
    """Crash at every acked-record boundary; each restart must equal
    the oracle's acked prefix and resume to the full oracle state."""
    session, initial, states, answers = _plan(
        session_seed, num_batches, batch_size, num_modules, checkpoint_every)
    total = len(states) - 1
    report = DurableReport(
        mode="kill", session_seed=session_seed, fault_seed=fault_seed,
        mutations=total,
        config=dict(kind="durable", mode="kill", session_seed=session_seed,
                    fault_seed=fault_seed, num_batches=num_batches,
                    batch_size=batch_size, num_modules=num_modules,
                    checkpoint_every=checkpoint_every))
    restarts: List[str] = []
    for boundary in range(total + 1):
        report.cases += 1
        root = tempfile.mkdtemp(prefix="repro-durable-kill-")
        try:
            manager, store = _open_manager(root, session, initial,
                                           num_modules, checkpoint_every)
            next_index, _ = _drive(manager, session, answers, 0, boundary,
                                   report.violations,
                                   f"kill@{boundary} pre-crash")
            if boundary == total:
                _note_rotations(report, store)
            variant = _mix(session_seed, fault_seed, boundary, 0xF0) % 3
            store.crash(_torn_fragment(session, boundary, boundary + 1,
                                       next_index, variant))

            manager2, store2 = _open_manager(root, session, initial,
                                             num_modules, checkpoint_every)
            restored = manager2.structure.to_dict()
            if restored != states[boundary]:
                missing = sorted(set(states[boundary]) - set(restored))
                phantom = sorted(set(restored) - set(states[boundary]))
                report.violations.append(
                    f"kill@{boundary} (variant {variant}): restart state "
                    f"is not the acked prefix: {len(missing)} acked "
                    f"key(s) lost {missing[:5]!r}, {len(phantom)} phantom "
                    f"key(s) {phantom[:5]!r}")
            _drive(manager2, session, answers, next_index, None,
                   report.violations, f"kill@{boundary} post-restart")
            final = manager2.structure.to_dict()
            if final != states[-1]:
                report.violations.append(
                    f"kill@{boundary}: resumed session ended away from "
                    f"the full oracle state ({len(final)} vs "
                    f"{len(states[-1])} key(s))")
            store2.close()
            restarts.append(f"{boundary}:{variant}:{_state_key(restored)}")
        finally:
            shutil.rmtree(root, ignore_errors=True)
    report.seal(restarts, [f"rotations={report.rotations}"])
    return report


# ---------------------------------------------------------------------------
# sweep 2: every registered disk fault


#: What each fault may legitimately look like after reopen.
#: ``open_state``: "full" (no acked loss tolerated), "prefix_minus_one"
#: (the damaged final record drops), "any_prefix".  ``may_refuse``:
#: a typed DurabilityError is an acceptable catch.
_FAULT_EXPECT: Dict[str, Tuple[str, bool]] = {
    "wal_torn_tail": ("prefix_minus_one", True),
    "wal_bitflip": ("any_prefix", True),
    "snapshot_truncated": ("full", True),
    "crash_before_rename": ("full", True),
    "wal_dup_record": ("full", False),
}


def fault_sweep(session_seed: int, *, fault_seed: int = 1,
                faults: Optional[List[str]] = None,
                num_batches: int = 14, batch_size: int = 12,
                num_modules: int = 8, checkpoint_every: int = 3,
                damage_override: Optional[Callable[[str, int], str]] = None,
                ) -> DurableReport:
    """Inject every disk fault into a completed session's state dir;
    each must be caught by fsck or recovery, and any recovered state
    must be an exact oracle prefix.

    ``damage_override`` substitutes one damage function for every
    fault -- the mutation-test hook the suite uses to prove a fault
    the function fails to inject makes this harness light up.
    """
    names = faults if faults is not None else sorted(DISK_FAULTS)
    unknown = [n for n in names if n not in DISK_FAULTS]
    if unknown:
        raise ValueError(f"unknown disk fault(s) {unknown}; known: "
                         f"{', '.join(sorted(DISK_FAULTS))}")
    session, initial, states, answers = _plan(
        session_seed, num_batches, batch_size, num_modules, checkpoint_every)
    total = len(states) - 1
    report = DurableReport(
        mode="fault", session_seed=session_seed, fault_seed=fault_seed,
        mutations=total,
        config=dict(kind="durable", mode="fault", session_seed=session_seed,
                    fault_seed=fault_seed, faults=faults,
                    num_batches=num_batches, batch_size=batch_size,
                    num_modules=num_modules, checkpoint_every=checkpoint_every))
    if total < 2:
        raise ValueError(
            f"session seed {session_seed} produced only {total} mutating "
            f"batch(es); disk faults need >= 2 (raise num_batches)")
    state_keys = {_state_key(s): i for i, s in enumerate(states)}
    outcomes: List[str] = []
    for name in names:
        report.cases += 1
        expect_state, may_refuse = _FAULT_EXPECT.get(name,
                                                     ("any_prefix", True))
        damage = damage_override or DISK_FAULTS[name]
        root = tempfile.mkdtemp(prefix=f"repro-durable-{name}-")
        try:
            manager, store = _open_manager(root, session, initial,
                                           num_modules, checkpoint_every)
            _drive(manager, session, answers, 0, None, report.violations,
                   f"{name} baseline")
            if name == names[0]:  # every baseline runs the same session
                _note_rotations(report, store)
            store.close()

            detail = damage(root, fault_seed)
            check = fsck(root)
            if check.clean:
                report.violations.append(
                    f"{name}: damage ({detail}) invisible to fsck -- the "
                    f"checker cannot see this fault class")

            outcome = ""
            restored: Optional[Dict[Any, Any]] = None
            try:
                manager2, store2 = _open_manager(root, session, initial,
                                                 num_modules,
                                                 checkpoint_every)
                restored = manager2.structure.to_dict()
                store2.close()
                outcome = "recovered"
            except DurabilityError as exc:
                if not may_refuse:
                    report.violations.append(
                        f"{name}: reopen refused "
                        f"({type(exc).__name__}: {exc}) but this fault "
                        f"destroys nothing recovery needs")
                repaired = fsck(root, repair=True)
                if repaired.repairable:
                    outcome = "refused+repaired"
                    manager3, store3 = _open_manager(root, session, initial,
                                                     num_modules,
                                                     checkpoint_every)
                    restored = manager3.structure.to_dict()
                    store3.close()
                else:
                    outcome = "refused+unrepairable"

            if restored is not None:
                prefix = state_keys.get(_state_key(restored))
                if prefix is None:
                    report.violations.append(
                        f"{name}: recovered state is NOT an oracle "
                        f"prefix ({len(restored)} key(s)) -- wrong "
                        f"answers would follow")
                elif outcome == "recovered":
                    if expect_state == "full" and prefix != total:
                        report.violations.append(
                            f"{name}: recovery silently dropped acked "
                            f"record(s): came back at prefix {prefix} "
                            f"of {total}")
                    if expect_state == "prefix_minus_one" \
                            and prefix < total - 1:
                        report.violations.append(
                            f"{name}: recovery lost more than the "
                            f"damaged final record: prefix {prefix} "
                            f"of {total}")
            report.caught[name] = outcome
            outcomes.append(f"{name}:{outcome}:"
                            f"{'' if restored is None else _state_key(restored)}")
        finally:
            shutil.rmtree(root, ignore_errors=True)
    report.seal(outcomes, [f"rotations={report.rotations}"])
    return report
