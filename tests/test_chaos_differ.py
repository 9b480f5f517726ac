"""Tests for :mod:`repro.verify.chaos` and the unified fault registry.

The harness's promises: a fuzz session replayed under any machine
fault schedule produces *exactly* the fault-free results (or degrades
typed -- never diverges); the whole run is a pure function of
``(session seed, fault seed)``; round overhead stays inside the
per-schedule envelopes; the container structures survive message
schedules; and chaos divergences round-trip through repro files that
replay under the recorded schedule.
"""

from __future__ import annotations

import argparse

import pytest

from repro.recovery import DegradedResult, RecoveryManager
from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec, MACHINE_SCHEDULES
from repro.sim.errors import DeliveryTimeout
from repro.sim.machine import PIMMachine
from repro.verify import cli as verify_cli
from repro.verify.chaos import (
    MESSAGE_SCHEDULES,
    OVERHEAD_ENVELOPES,
    STRUCTURE_FACTORIES,
    chaos_containers,
    chaos_matrix,
    chaos_session,
    check_chaos_determinism,
)
from repro.verify.oracle import SequentialOracle
from repro.workloads.sessions import Session, SessionBatch
from repro.verify.faults import (
    DISK_FAULTS,
    FAULTS,
    REGISTRY,
    STORAGE_FAULTS,
    FaultDef,
    _register,
    describe_faults,
    fault_names,
    get_fault,
)
from repro.verify.fuzz import fuzz_session
from repro.verify.shrink import load_repro, write_repro


class TestChaosSessions:
    @pytest.mark.parametrize("schedule",
                             ["drop", "corrupt", "stall", "crash_wipe"])
    def test_session_is_exact_under_schedule(self, schedule):
        report = chaos_session(3, schedule, fault_seed=1,
                               num_batches=6, batch_size=12)
        assert report.ok, [str(d) for d in report.divergences]
        assert report.schedule == schedule
        assert report.chaos_rounds >= report.base_rounds
        assert report.stats.get("transmissions", 0) > 0

    def test_envelope_violation_is_a_divergence(self, monkeypatch):
        monkeypatch.setitem(OVERHEAD_ENVELOPES, "drop", (0.0, 0))
        report = chaos_session(3, "drop", fault_seed=1,
                               num_batches=4, batch_size=8)
        assert not report.ok
        assert any("overhead" in str(d) for d in report.divergences)

    def test_fingerprints_differ_across_fault_seeds(self):
        a = chaos_session(5, "mixed", fault_seed=0,
                          num_batches=4, batch_size=8, check_overhead=False)
        b = chaos_session(5, "mixed", fault_seed=7,
                          num_batches=4, batch_size=8, check_overhead=False)
        assert a.ok and b.ok
        assert a.fingerprint and b.fingerprint
        assert a.fingerprint != b.fingerprint

    def test_determinism_check_passes(self):
        assert check_chaos_determinism(2, "dup_delay", fault_seed=3,
                                       num_batches=4, batch_size=8) is None

    def test_fuzzed_sessions_cross_two_checkpoint_rotations(self):
        # Seeds that serve too few items in 10 batches to rotate the
        # manager's checkpoint twice are extended, never cut short.
        for seed in (4, 5, 7):
            report = chaos_session(seed, "drop", fault_seed=1)
            assert report.ok, report.divergences
            assert report.num_batches >= 10
            assert report.rotations >= 2

    def test_matrix_smoke(self):
        reports = chaos_matrix([1, 2], ["drop", "crash_restart"],
                               num_batches=3, batch_size=8)
        assert len(reports) == 4
        assert all(r.ok for r in reports)
        assert {(r.session_seed, r.schedule) for r in reports} == \
            {(1, "drop"), (2, "drop"),
             (1, "crash_restart"), (2, "crash_restart")}

    def test_containers_survive_message_schedules(self):
        for schedule in MESSAGE_SCHEDULES:
            assert chaos_containers(4, schedule, fault_seed=1) == []

    def test_containers_refuse_crash_schedules(self):
        with pytest.raises(ValueError, match="crash-free"):
            chaos_containers(4, "crash_wipe")


def _shadow_rebuild_session() -> Session:
    """Promotion, then a leaf split under the shadow (the rebuild +
    rebroadcast path), then reads of the moved keys -- the stream whose
    correctness depends on shadow invalidation surviving the fault."""
    hot = [10, 50, 90, 130]
    return Session(
        batches=[
            SessionBatch("get", list(hot)),
            SessionBatch("get", list(hot)),
            SessionBatch("upsert", [(11, 1), (12, 2), (13, 3), (14, 4),
                                    (15, 5), (16, 6)]),
            SessionBatch("get", [14, 20, 30, 40]),
            SessionBatch("successor", [15, 25, 35]),
        ],
        initial_keys=[10 * i for i in range(1, 41)],
        seed=9902,
    )


class TestPimtreeChaos:
    """The PIM-tree under the same machine-fault certification the skip
    list went through: every schedule, determinism, and a crash placed
    at *every* round of a shadow-subtree rebuild."""

    @pytest.mark.parametrize("schedule", sorted(MACHINE_SCHEDULES))
    def test_session_is_exact_under_every_schedule(self, schedule):
        report = chaos_session(3, schedule, fault_seed=1,
                               structure="pimtree",
                               num_batches=6, batch_size=12)
        assert report.ok, [str(d) for d in report.divergences]
        assert report.structure == "pimtree"
        assert report.chaos_rounds >= report.base_rounds

    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos structure"):
            chaos_session(1, "drop", structure="btree")

    def test_determinism_check_passes(self):
        assert check_chaos_determinism(2, "mixed", fault_seed=3,
                                       structure="pimtree",
                                       num_batches=4, batch_size=8) is None

    @pytest.mark.parametrize("wipe", [False, True],
                             ids=["failstop", "wipe"])
    def test_crash_at_every_round_of_shadow_rebuild(self, wipe):
        """Place one crash at round r, for every r the fault-free replay
        of the rebuild session uses: each run must answer every read
        exactly (or end in a typed DegradedResult) -- never wrongly."""
        session = _shadow_rebuild_session()
        items = [(k, k) for k in session.initial_keys]
        factory = STRUCTURE_FACTORIES["pimtree"]

        oracle = SequentialOracle(list(items))
        expected = [oracle.apply_batch(b.op, b.payload)
                    for b in session.batches]
        twin_machine = PIMMachine(num_modules=8, seed=session.seed)
        twin = factory(twin_machine)
        twin.build(items)
        for batch in session.batches:
            twin.apply_batch(batch.op, batch.payload)
        total_rounds = twin_machine.metrics.rounds
        assert twin.shadows, "the session must promote a shadow"

        exact = degraded = 0
        for r in range(1, total_rounds + 1):
            machines = []

            def standby():
                m = PIMMachine(num_modules=8, seed=session.seed)
                machines.append(m)
                return factory(m)

            struct = standby()
            struct.build(items)
            crash = CrashEvent(mid=r % 8, at_round=r,
                               restart_round=r + 3, wipe=wipe)
            state = machines[0].install_fault_plan(
                FaultPlan(FaultSpec(crashes=(crash,)), seed=r))
            manager = RecoveryManager(struct, standby,
                                      checkpoint_every=2)
            ran_degraded = False
            for i, batch in enumerate(session.batches):
                result = manager.run(batch.op, batch.payload)
                if isinstance(result, DegradedResult):
                    ran_degraded = True
                    break
                if batch.op in ("get", "successor", "range"):
                    assert result == expected[i], \
                        (wipe, r, i, batch.op, result, expected[i])
            assert state.stats.crashes <= 1
            if not ran_degraded:
                final = manager.run("range", [(0, 10**6)])
                if isinstance(final, DegradedResult):
                    ran_degraded = True
                else:
                    assert dict(final[0]) == oracle.as_dict(), (wipe, r)
            if ran_degraded:
                degraded += 1
                continue
            exact += 1
            try:
                manager.structure.check_integrity()
            except DeliveryTimeout:
                # the crashed module is still inside its outage window:
                # a typed refusal, and every read above was already exact
                pass
        # the sweep must exercise real crashes and still mostly recover
        assert exact > 0, "no crash placement recovered exactly"
        assert exact + degraded == total_rounds


class TestRegistry:
    def test_every_schedule_and_adapter_fault_is_registered(self):
        assert set(fault_names("machine")) == set(MACHINE_SCHEDULES)
        assert set(fault_names("adapter")) == set(FAULTS)
        assert set(fault_names("storage")) == set(STORAGE_FAULTS)
        assert set(fault_names("disk")) == set(DISK_FAULTS)
        assert set(fault_names()) == (set(MACHINE_SCHEDULES) | set(FAULTS)
                                      | set(STORAGE_FAULTS)
                                      | set(DISK_FAULTS))

    def test_levels_are_wired_for_use(self):
        for name in fault_names("machine"):
            d = get_fault(name)
            assert d.level == "machine" and d.build is not None
        for name in fault_names("adapter"):
            d = get_fault(name)
            assert d.level == "adapter" and d.wrap is not None
        for name in fault_names("storage"):
            d = get_fault(name)
            assert d.level == "storage" and d.corrupt is not None
        for name in fault_names("disk"):
            d = get_fault(name)
            assert d.level == "disk" and d.damage is not None

    def test_get_fault_raises_on_unknown(self):
        with pytest.raises(ValueError, match="unknown fault"):
            get_fault("nope")

    def test_collision_is_refused(self):
        with pytest.raises(ValueError, match="registered twice"):
            _register(FaultDef(name="drop", level="adapter",
                               description="clash"))
        assert REGISTRY["drop"].level == "machine"  # untouched

    def test_describe_lists_every_fault_with_level(self):
        text = describe_faults()
        for name in fault_names():
            assert name in text
        assert "machine" in text and "adapter" in text

    def test_envelopes_cover_every_schedule(self):
        assert set(OVERHEAD_ENVELOPES) == set(MACHINE_SCHEDULES)

    def test_message_schedules_exclude_crashes(self):
        assert set(MESSAGE_SCHEDULES) <= set(MACHINE_SCHEDULES)
        assert not any(s.startswith("crash") for s in MESSAGE_SCHEDULES)
        assert "stall" in MESSAGE_SCHEDULES


class TestChaosRepros:
    def test_chaos_repro_round_trips_and_replays_clean(self, tmp_path,
                                                       capsys):
        session = fuzz_session(6, num_batches=3, batch_size=8)
        path = write_repro(session, str(tmp_path / "chaos.json"),
                           num_modules=8, fault_schedule="drop",
                           fault_seed=2, note="chaos round-trip test")
        data = load_repro(path)
        assert data["fault_schedule"] == "drop"
        assert data["fault_seed"] == 2

        args = argparse.Namespace(modules=8)
        assert verify_cli._replay_one(path, args) is False
        out = capsys.readouterr().out
        assert "'drop'" in out and "clean" in out
