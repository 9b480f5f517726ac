"""Tests for :mod:`repro.verify.chaos` and the unified fault registry.

The harness's promises: a fuzz session replayed under any machine
fault schedule produces *exactly* the fault-free results (or degrades
typed -- never diverges); the whole run is a pure function of
``(session seed, fault seed)``; round overhead stays inside the
per-schedule envelopes; the container structures survive message
schedules; and chaos divergences round-trip through repro files that
replay under the recorded schedule and structure.
"""

from __future__ import annotations

import os

import pytest

from repro.recovery import DegradedResult, RecoveryManager
from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec, MACHINE_SCHEDULES
from repro.sim.errors import DeliveryTimeout
from repro.sim.machine import PIMMachine, ReferencePIMMachine
from repro.core.skiplist import PIMSkipList
from repro.structures.pimtree import PIMTree
from repro.verify import chaos as chaos_harness
from repro.verify import cli as verify_cli
from repro.verify.certificate import certify, load_repro, write_repro
from repro.verify.chaos import (
    MESSAGE_SCHEDULES,
    OVERHEAD_ENVELOPES,
    STRUCTURE_FACTORIES,
    chaos_containers,
    chaos_session,
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
from repro.verify.shrink import session_to_dict


def _chaos_on(monkeypatch, engine, schedule, structure):
    """One chaos session whose machines -- twin, chaotic and standbys --
    are ``engine``'s class (patched into the harness, which takes no
    machine argument); returns the report and, per machine a plan was
    installed on, its tasks run and run chunked since the install."""
    since = []

    class Counted(engine):
        def install_fault_plan(self, plan):
            since.append((self, self.tasks_executed, self.tasks_chunked))
            return super().install_fault_plan(plan)

    monkeypatch.setattr(chaos_harness, "PIMMachine", Counted)
    report = chaos_session(0, schedule, fault_seed=1, structure=structure)
    return report, [(m.tasks_executed - tasks, m.tasks_chunked - chunked)
                    for m, tasks, chunked in since]


class TestChaosAcrossEngines:
    @pytest.mark.parametrize(
        "structure,schedule",
        [("skiplist", name) for name in MACHINE_SCHEDULES]
        + [("pimtree", "mixed"), ("pimtree", "crash_wipe")])
    def test_the_engine_runs_a_plan_chunked_as_the_oracle_runs_it(
            self, monkeypatch, structure, schedule):
        """A chaos session on the engine and on the per-task oracle: the
        same answers, model costs, fault decisions and rounds, and on
        the engine every task under the plan ran inside a body call."""
        engine, engine_counts = _chaos_on(monkeypatch, PIMMachine,
                                          schedule, structure)
        oracle, oracle_counts = _chaos_on(monkeypatch, ReferencePIMMachine,
                                          schedule, structure)
        assert engine.ok, [str(d) for d in engine.violations]
        assert engine.stats["transmissions"] > 0
        assert ((engine.result_digest, engine.model_digest, engine.stats,
                 engine.chaos_rounds)
                == (oracle.result_digest, oracle.model_digest, oracle.stats,
                    oracle.chaos_rounds))
        [(tasks, chunked)] = engine_counts
        assert chunked == tasks > 0
        assert oracle_counts == [(tasks, 0)]


class TestChaosSessions:
    @pytest.mark.parametrize("schedule",
                             ["drop", "corrupt", "stall", "crash_wipe"])
    def test_session_is_exact_under_schedule(self, schedule):
        report = chaos_session(3, schedule, fault_seed=1,
                               num_batches=6, batch_size=12)
        assert report.ok, [str(d) for d in report.violations]
        assert report.schedule == schedule
        assert report.chaos_rounds >= report.base_rounds
        assert report.stats.get("transmissions", 0) > 0

    def test_envelope_violation_is_a_divergence(self, monkeypatch):
        monkeypatch.setitem(OVERHEAD_ENVELOPES, "drop", (0.0, 0))
        report = chaos_session(3, "drop", fault_seed=1,
                               num_batches=4, batch_size=8)
        assert not report.ok
        assert any("overhead" in str(d) for d in report.violations)

    @pytest.mark.parametrize("schedule",
                             ["drop", "mixed", "crash_wipe", "dup_delay"])
    def test_fault_seeds_move_the_model_digest_only(self, schedule):
        # An exact session answers the same under any fault seed; what
        # the faults cost (statistics, recoveries, rounds) differs.
        a = chaos_session(5, schedule, fault_seed=0,
                          num_batches=4, batch_size=8)
        b = chaos_session(5, schedule, fault_seed=7,
                          num_batches=4, batch_size=8)
        assert a.ok and b.ok, (a.violations, b.violations)
        assert a.result_digest == b.result_digest
        assert a.model_digest != b.model_digest

    @pytest.mark.parametrize("harness", ["chaos", "soak"])
    def test_a_cpu_only_charge_moves_the_model_digest(self, monkeypatch,
                                                      harness):
        """The model digest seals the CPU side's books: one extra CPU
        charge per machine moves it, while the rounds and every answer
        stay the same."""
        from repro.verify.soak import soak_session

        def run():
            if harness == "chaos":
                report = chaos_session(5, "crash_wipe", fault_seed=1,
                                       num_batches=4, batch_size=8)
                return report, report.chaos_rounds
            report = soak_session("crash_wipe", clients=8, ops_per_client=4)
            return report, report.rounds

        plain, plain_rounds = run()

        def charged(machine):
            machine.cpu.charge(1.0, 1.0)
            return PIMSkipList(machine)

        monkeypatch.setitem(chaos_harness.STRUCTURE_FACTORIES, "skiplist",
                            charged)
        extra, extra_rounds = run()
        assert plain.ok and extra.ok, (plain.violations, extra.violations)
        assert extra_rounds == plain_rounds
        assert extra.result_digest == plain.result_digest
        assert extra.model_digest != plain.model_digest

    def test_determinism_check_passes(self):
        report = chaos_session(2, "dup_delay", fault_seed=3,
                               num_batches=4, batch_size=8)
        rerun = certify(dict(report.config, check="determinism"))
        assert rerun.ok, rerun.violations
        assert rerun.result_digest == report.result_digest
        assert rerun.model_digest == report.model_digest

    def test_fuzzed_sessions_cross_two_checkpoint_rotations(self):
        # Seeds that serve too few items in 10 batches to rotate the
        # manager's checkpoint twice are extended, never cut short.
        for seed in (4, 5, 7):
            report = chaos_session(seed, "drop", fault_seed=1)
            assert report.ok, report.violations
            assert report.num_batches >= 10
            assert report.rotations >= 2

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
        assert report.ok, [str(d) for d in report.violations]
        assert report.structure == "pimtree"
        assert report.chaos_rounds >= report.base_rounds

    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos structure"):
            chaos_session(1, "drop", structure="btree")

    def test_determinism_check_passes(self):
        report = chaos_session(2, "mixed", fault_seed=3, structure="pimtree",
                               num_batches=4, batch_size=8)
        rerun = certify(dict(report.config, check="determinism"))
        assert rerun.ok, rerun.violations
        assert rerun.config["structure"] == "pimtree"

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
                [result] = manager.run([(batch.op, batch.payload)])
                if isinstance(result, DegradedResult):
                    ran_degraded = True
                    break
                if batch.op in ("get", "successor", "range"):
                    assert result == expected[i], \
                        (wipe, r, i, batch.op, result, expected[i])
            assert state.stats.crashes <= 1
            if not ran_degraded:
                [final] = manager.run([("range", [(0, 10**6)])])
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


class _WrongFirstGet(PIMTree):
    """A PIM-tree that answers the first key of every Get batch wrongly."""

    def apply_batch(self, op, payload):
        result = super().apply_batch(op, payload)
        return ["wrong"] + result[1:] if op == "get" and result else result


class _LateWrongGet(PIMSkipList):
    """A skip list whose 11th and later batches answer Get wrongly."""

    calls = 0

    def apply_batch(self, op, payload):
        self.calls += 1
        result = super().apply_batch(op, payload)
        if op == "get" and result and self.calls > 10:
            return ["wrong"] + result[1:]
        return result


class TestChaosRepros:
    def test_chaos_repro_round_trips_and_replays_clean(self, tmp_path,
                                                       capsys):
        session = fuzz_session(6, num_batches=3, batch_size=8)
        path = write_repro(str(tmp_path / "chaos.json"), dict(
            session_to_dict(session), num_modules=8, fault_schedule="drop",
            fault_seed=2, note="chaos round-trip test"))
        data = load_repro(path)
        assert data["kind"] == "chaos"  # a file from before configs had one
        assert data["fault_schedule"] == "drop"
        assert data["fault_seed"] == 2

        assert verify_cli.main(["replay", path]) == 0
        out = capsys.readouterr().out
        assert "schedule=drop" in out and out.rstrip().endswith("clean")

    @pytest.mark.parametrize("structure, factory, argv", [
        # The shrinker once re-ran a PIM-tree failure on a skip list...
        ("pimtree", _WrongFirstGet, ["--structure", "pimtree"]),
        # ...and re-fuzzed --batches batches, not the longer session
        # sized_session ran (seed 4 runs 24; this fails at batch 11+).
        ("skiplist", _LateWrongGet, ["--seed", "4", "--batches", "10"]),
    ], ids=["pimtree", "past_batches"])
    def test_failure_shrinks_the_session_it_ran(
            self, structure, factory, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(STRUCTURE_FACTORIES, structure, factory)
        rc = verify_cli.main(["chaos", "--sessions", "1", "--schedules",
                              "drop", "--no-containers", "--max-evals", "40",
                              "--repro-dir", str(tmp_path)] + argv)
        assert rc == 1
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert os.path.isfile(last), f"last line not a repro path: {last!r}"
        config = load_repro(last)
        assert config["structure"] == structure
        assert "check" not in config  # the shrunk session, not a rerun
        assert not certify(config).ok  # still fails under the patch
