"""Tests for the differential-verification subsystem (``repro.verify``).

Covers the fuzzer's determinism, the adapter conformance surface, the
differential driver on clean implementations, the pipeline's
``batch_observer`` hook, and -- the mutation test that proves the
verifier can see -- fault injection caught, shrunk to a tiny session,
and round-tripped through a replayable repro file.
"""

from __future__ import annotations

import json

import pytest

from repro.ops import run_batch
from repro.sim.machine import PIMMachine
from repro.verify import (
    DEFAULT_IMPLS,
    FAULTS,
    IMPLEMENTATIONS,
    SequentialOracle,
    build_implementations,
    fuzz_session,
    inject_fault,
    load_repro,
    session_from_dict,
    session_to_dict,
    shrink_session,
    verify_containers,
    verify_session,
    write_repro,
)
from repro.verify.differ import rounds_envelope
from repro.verify.fuzz import MUTATING_SHAPES, initial_items_for
from repro.workloads.sessions import Session, SessionBatch

FAST = dict(check_metamorphic=False, check_determinism=False)


class TestFuzzer:
    def test_same_seed_same_session(self):
        a, b = fuzz_session(7), fuzz_session(7)
        assert a.initial_keys == b.initial_keys
        assert [(x.op, x.payload) for x in a.batches] == \
            [(x.op, x.payload) for x in b.batches]

    def test_different_seeds_differ(self):
        a, b = fuzz_session(1), fuzz_session(2)
        assert [(x.op, x.payload) for x in a.batches] != \
            [(x.op, x.payload) for x in b.batches]

    def test_read_only_sessions_never_mutate(self):
        mutating = set(MUTATING_SHAPES) | {"upsert", "delete"}
        for seed in range(5):
            s = fuzz_session(seed, read_only=True)
            assert all(b.op not in mutating for b in s.batches)

    def test_requested_shape(self):
        s = fuzz_session(3, num_batches=9, batch_size=10, initial_n=20)
        assert len(s.batches) == 9
        assert len(s.initial_keys) == 20
        assert s.seed == 3

    def test_mixed_sessions_exercise_mutations(self):
        ops = set()
        for seed in range(10):
            ops |= {b.op for b in fuzz_session(seed).batches}
        assert {"get", "successor", "upsert", "delete", "range"} <= ops


class TestOracle:
    def test_batch_surface_matches_element_ops(self):
        o = SequentialOracle([(1, 10), (5, 50)])
        assert o.apply_batch("get", [1, 2, 5]) == [10, None, 50]
        assert o.apply_batch("successor", [0, 1, 2, 6]) == \
            [(1, 10), (1, 10), (5, 50), None]
        o.apply_batch("upsert", [(3, 30), (3, 31)])
        assert o.get(3) == 31  # duplicate keys collapse to the last
        o.apply_batch("delete", [1, 99])
        assert o.apply_batch("range", [(0, 10)]) == [[(3, 31), (5, 50)]]
        assert len(o) == 2
        with pytest.raises(ValueError, match="unknown op"):
            o.apply_batch("frobnicate", [])

    def test_conftest_reference_map_is_the_oracle(self):
        from tests.conftest import ReferenceMap

        assert ReferenceMap is SequentialOracle


class TestAdapters:
    def test_unknown_implementation_rejected(self):
        with pytest.raises(ValueError, match="unknown implementation"):
            build_implementations(["warp_drive"], seed=0, items=[],
                                  num_modules=4)

    def test_every_registered_impl_answers_reads(self):
        items = [(k, k) for k in range(1000, 20_000, 1000)]
        adapters = build_implementations(DEFAULT_IMPLS, seed=5,
                                         items=items, num_modules=4)
        assert {a.name for a in adapters} == set(IMPLEMENTATIONS)
        oracle = SequentialOracle(items)
        keys = [500, 1000, 7500, 19_000, 99_999]
        for a in adapters:
            assert a.apply("get", keys) == oracle.apply_batch("get", keys)
            assert a.apply("successor", keys) == \
                oracle.apply_batch("successor", keys)

    def test_fine_grained_is_read_only(self):
        items = [(1, 1), (2, 2)]
        (fg,) = build_implementations(["fine_grained"], seed=0,
                                      items=items, num_modules=4)
        assert not fg.supports("upsert")
        assert fg.final_state(0, 10) is None
        with pytest.raises(ValueError, match="read-only"):
            fg.apply("upsert", [(3, 3)])

    def test_measured_apply_returns_delta(self):
        items = [(k, k) for k in range(1000, 9000, 1000)]
        (sl,) = build_implementations(["skiplist"], seed=0, items=items,
                                      num_modules=4)
        result, delta = sl.measured_apply("get", [1000, 4000])
        assert result == [1000, 4000]
        assert delta is not None and delta.rounds >= 1
        (local,) = build_implementations(["local"], seed=0, items=items,
                                         num_modules=4)
        _, none_delta = local.measured_apply("get", [1000])
        assert none_delta is None


class TestDiffer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clean_sessions_verify_clean(self, seed):
        session = fuzz_session(seed, num_batches=8, batch_size=16)
        report = verify_session(session)
        assert report.ok, [str(d) for d in report.violations]
        assert report.observed_ops > 0  # the batch_observer hook fired

    def test_read_only_session_keeps_fine_grained_live(self):
        session = fuzz_session(11, num_batches=6, read_only=True)
        report = verify_session(session)
        assert report.ok, [str(d) for d in report.violations]
        assert "fine_grained" not in report.retired

    def test_mutating_session_retires_fine_grained(self):
        session = Session(
            batches=[SessionBatch(op="upsert", payload=[(5, 5)])],
            initial_keys=[1, 2, 3], seed=0)
        report = verify_session(session, **FAST)
        assert report.ok
        assert report.retired == {"fine_grained": 0}

    def test_containers_verify_clean(self):
        for seed in range(3):
            assert verify_containers(seed) == []

    def test_rounds_envelope_scales(self):
        assert rounds_envelope("get", 24, 8, 100) < \
            rounds_envelope("successor", 24, 8, 100)
        # Range budgets grow with the collected result size.
        assert rounds_envelope("range", 4, 8, 100, result_size=10) < \
            rounds_envelope("range", 4, 8, 100, result_size=500)


class TestFaultInjection:
    """The mutation test: every fault must be visible to the driver."""

    IMPLS = ("skiplist", "local")  # small comparison set keeps this fast

    def _hunt(self, fault_name, max_seed=12):
        for seed in range(max_seed):
            session = fuzz_session(seed)
            report = verify_session(session, impls=self.IMPLS,
                                    fault=("skiplist", fault_name), **FAST)
            if not report.ok:
                return session, report
        raise AssertionError(f"fault {fault_name} never caught in "
                             f"{max_seed} sessions")

    @pytest.mark.parametrize("fault_name", sorted(FAULTS))
    def test_fault_is_caught(self, fault_name):
        _, report = self._hunt(fault_name)
        assert not report.ok

    def test_fault_shrinks_to_tiny_repro_and_round_trips(self, tmp_path):
        session, _ = self._hunt("lose_upsert")

        def is_failing(candidate):
            return not verify_session(candidate, impls=self.IMPLS,
                                      fault=("skiplist", "lose_upsert"),
                                      **FAST).ok

        small = shrink_session(session, is_failing)
        assert len(small.batches) <= 3
        assert sum(len(b.payload) for b in small.batches) <= 6

        path = str(tmp_path / "repro.json")
        write_repro(path, dict(session_to_dict(small), kind="differential",
                               impls=list(self.IMPLS), num_modules=8,
                               note="unit-test fault repro"))
        data = load_repro(path)
        loaded = session_from_dict(data)
        assert [(b.op, b.payload) for b in loaded.batches] == \
            [(b.op, b.payload) for b in small.batches]
        # The loaded repro still fails under the fault...
        assert is_failing(loaded)
        # ...and replays clean against the real implementations.
        assert verify_session(loaded, impls=self.IMPLS, **FAST).ok

    def test_unknown_fault_rejected(self):
        items = [(1, 1)]
        (sl,) = build_implementations(["skiplist"], seed=0, items=items,
                                      num_modules=4)
        with pytest.raises(ValueError, match="unknown fault"):
            inject_fault(sl, "gremlins")


class TestShrinker:
    def test_shrinks_to_the_failing_batch(self):
        session = fuzz_session(3, num_batches=10)
        # An artificial predicate: failing iff a delete batch remains.
        def is_failing(s):
            return any(b.op == "delete" for b in s.batches)

        if not is_failing(session):
            pytest.skip("seed produced no delete batch")
        small = shrink_session(session, is_failing)
        assert len(small.batches) == 1
        assert small.batches[0].op == "delete"
        assert len(small.batches[0].payload) == 1

    def test_requires_a_failing_session(self):
        session = fuzz_session(0, num_batches=2)
        with pytest.raises(AssertionError, match="failing session"):
            shrink_session(session, lambda s: False)

    def test_bounded_evaluations(self):
        session = fuzz_session(1, num_batches=10)
        calls = [0]

        def is_failing(s):
            calls[0] += 1
            return True

        shrink_session(session, is_failing, max_evals=25)
        assert calls[0] <= 26  # the entry assert plus the budget


class TestReproFormat:
    def test_round_trip_preserves_payload_types(self):
        session = Session(
            batches=[
                SessionBatch(op="upsert", payload=[(1, 2), (3, 4)]),
                SessionBatch(op="range", payload=[(0, 10)]),
                SessionBatch(op="get", payload=[1, 3]),
            ],
            initial_keys=[5], seed=9)
        loaded = session_from_dict(
            json.loads(json.dumps(session_to_dict(session))))
        assert loaded.seed == 9
        assert loaded.initial_keys == [5]
        assert loaded.batches[0].payload == [(1, 2), (3, 4)]
        assert loaded.batches[1].payload == [(0, 10)]
        assert loaded.batches[2].payload == [1, 3]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            session_from_dict({"format": 99, "seed": 0,
                               "initial_keys": [], "batches": []})

    def test_write_repro_records_metadata(self, tmp_path):
        session = Session(batches=[SessionBatch(op="get", payload=[1])],
                          initial_keys=[1], seed=4)
        path = str(tmp_path / "x" / "y.json")  # parent dir is created
        write_repro(path, dict(session_to_dict(session), num_modules=16,
                               note="hello"))
        data = load_repro(path)
        assert data["num_modules"] == 16
        assert data["note"] == "hello"


class TestBatchObserverHook:
    def test_observer_sees_each_pipeline_op(self):
        from repro.core.skiplist import PIMSkipList

        machine = PIMMachine(num_modules=4, seed=0)
        sl = PIMSkipList(machine)
        sl.build([(k, k) for k in range(1000, 9000, 1000)])
        events = []
        machine.batch_observer = lambda op, d: events.append((op, d))
        sl.batch_get([1000, 4000])
        sl.batch_successor([1500])
        machine.batch_observer = None
        sl.batch_get([2000])  # detached: not observed
        ops = [op for op, _ in events]
        assert any("get" in op for op in ops)
        assert len(events) >= 2
        assert all(d.rounds >= 1 for _, d in events)

    def test_observer_exempts_its_own_callback(self):
        """The observer may run pipeline ops itself without recursing."""
        from repro.core.skiplist import PIMSkipList

        machine = PIMMachine(num_modules=4, seed=0)
        sl = PIMSkipList(machine)
        sl.build([(k, k) for k in range(1000, 9000, 1000)])
        events = []

        def nosy_observer(op, delta):
            events.append(op)
            sl.batch_get([1000])  # must not re-trigger the observer

        machine.batch_observer = nosy_observer
        sl.batch_get([2000])
        machine.batch_observer = None
        assert len(events) == 1
