"""Tests for the structure-storage layer: the flat node arena, the
vectorized wavefront walk that reads it, and the cross-storage
equivalence machinery (PR 8).

The storage contract: the object node graph stays authoritative; the
arena mirrors it as flat int64 columns kept in sync by the storage
hooks, and the two backends must be observationally identical -- same
results, same per-op :class:`~repro.sim.metrics.MetricsDelta` streams,
bit for bit.
"""

import random

import pytest

from repro.core.node import UPPER
from repro.core.skiplist import PIMSkipList
from repro.core.storage import (
    STORAGE_ENV_VAR,
    STORAGES,
    key_to_i64,
    make_storage,
    resolve_storage,
)
from repro.recovery.checkpoint import checkpoint_structure, restore_structure
from repro.sim.machine import PIMMachine
from repro.verify.adapters import ImplAdapter
from repro.verify.differ import verify_session
from repro.verify.faults import inject_fault
from repro.verify.fuzz import fuzz_session


def make_sl(storage, *, p=8, seed=0, n=0, stride=2):
    machine = PIMMachine(num_modules=p, seed=seed)
    sl = PIMSkipList(machine, storage=storage)
    if n:
        sl.build([(k, k) for k in range(0, n * stride, stride)])
    return machine, sl


class TestSelection:
    def test_explicit_param_wins(self, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV_VAR, "arena")
        _, sl = make_sl("object")
        assert sl.storage == "object"
        assert sl.struct.storage.arena is None

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV_VAR, "arena")
        _, sl = make_sl(None)
        assert sl.storage == "arena"
        assert sl.struct.storage.arena is not None

    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv(STORAGE_ENV_VAR, raising=False)
        assert resolve_storage(None) == "object"

    def test_unknown_names_raise(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown structure storage"):
            resolve_storage("linked")
        monkeypatch.setenv(STORAGE_ENV_VAR, "nonsense")
        with pytest.raises(ValueError, match=STORAGE_ENV_VAR):
            make_storage(None)

    def test_key_i64_images(self):
        assert key_to_i64(42) == 42
        assert key_to_i64(2 ** 63) is None  # out of int64 range
        assert key_to_i64("k") is None
        assert key_to_i64(1.5) is None


class TestArenaMirror:
    def test_mirror_parity_after_churn(self):
        _, sl = make_sl("arena", n=120)
        rng = random.Random(7)
        for _ in range(4):
            sl.batch_delete(rng.sample(range(0, 240, 2), 24))
            sl.batch_upsert([(rng.randrange(500), rng.randrange(99))
                             for _ in range(24)])
            # check_integrity section 8 walks every tower and asserts the
            # arena row-for-row against the object graph.
            sl.check_integrity()

    def test_free_list_reuse_after_churn(self):
        _, sl = make_sl("arena", n=100)
        arena = sl.struct.storage.arena
        keys = list(range(0, 200, 2))
        high_water = arena.size
        for _ in range(5):
            sl.batch_delete(keys[:40])
            sl.batch_upsert([(k, k + 1) for k in keys[:40]])
        assert arena.reuses > 50
        assert arena.frees > arena.reuses  # some freed rows still pooled
        # Churn refills freed rows instead of growing the arrays: five
        # rounds of 40-key delete/re-insert churn may grow the high-water
        # mark a little (re-inserted towers redraw their heights), but
        # nowhere near the hundreds of rows the churn allocated.
        assert arena.size - high_water < 40
        assert len(arena) == arena.live_count
        sl.check_integrity()

    def test_non_int_keys_disable_vectorization_not_correctness(self):
        machine, sl = make_sl("arena")
        items = [(f"k{i:03d}", i) for i in range(64)]
        sl.build(items)
        arena = sl.struct.storage.arena
        assert not arena.vector_ok  # string keys have no int64 image
        got = sl.apply_batch("successor", [f"k{i:03d}" for i in range(64)])
        assert got == [(f"k{i:03d}", i) for i in range(64)]
        sl.check_integrity()

    def test_split_inherits_storage(self):
        for kind in STORAGES:
            _, sl = make_sl(kind, n=60)
            out = sl.split(60)
            assert out.storage == kind
            assert (out.struct.storage.arena is not None) == (kind == "arena")
            out.check_integrity()


class TestCrossStorageEquivalence:
    def test_bit_identical_deltas_and_results(self):
        """The same batched-successor session on both storages, per-op
        deltas compared bit-for-bit on the engine (where the arena
        drives the vectorized wavefront walk)."""
        runs = {}
        for kind in STORAGES:
            machine, sl = make_sl(kind, n=200)
            queries = list(range(1, 399, 2))
            before = machine.snapshot()
            res = sl.apply_batch("successor", queries)
            runs[kind] = (res, machine.delta_since(before))
        assert runs["object"][0] == runs["arena"][0]
        assert runs["object"][1] == runs["arena"][1]

    def test_chaos_plan_gates_column_sends(self):
        """With a fault plan installed the reliable-delivery protocol
        wraps every CPU-issued message in envelopes, so the stage-2
        column-send fast path must stand down; results stay correct."""
        from repro.sim.chaos import FaultPlan, FaultSpec

        machine, sl = make_sl("arena", n=100)
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        assert machine._chaos is not None and not machine.columnar_active
        queries = list(range(1, 199, 4))
        got = sl.apply_batch("successor", queries)
        assert got == [(q + 1, q + 1) for q in queries]

    def test_differ_runs_storage_replay_clean(self):
        session = fuzz_session(5, num_batches=6, batch_size=16)
        report = verify_session(session, impls=["skiplist"],
                                storage="arena")
        assert report.ok, [str(d) for d in report.divergences]


class TestStorageMutation:
    """The differ's cross-storage replay must *see*: a seeded successor-
    index corruption in the arena mirror (one module's segment severed,
    object graph intact) has to surface as ``storage`` divergences."""

    def test_arena_succ_corrupt_is_visible(self):
        machine, sl = make_sl("arena", n=200)
        inject_fault(ImplAdapter("skiplist", sl, machine),
                     "arena_succ_corrupt")
        queries = list(range(1, 399, 2))
        got = sl.apply_batch("successor", queries)
        want = [(q + 1, q + 1) for q in queries]
        assert got != want  # the vectorized walk read the severed rows

    def test_arena_succ_corrupt_is_noop_on_object_storage(self):
        machine, sl = make_sl("object", n=200)
        inject_fault(ImplAdapter("skiplist", sl, machine),
                     "arena_succ_corrupt")
        queries = list(range(1, 399, 2))
        got = sl.apply_batch("successor", queries)
        assert got == [(q + 1, q + 1) for q in queries]

    def test_cross_storage_differ_catches_corruption(self):
        session = fuzz_session(3, num_batches=8, batch_size=32)
        report = verify_session(session, impls=["skiplist"],
                                storage="arena",
                                fault=("skiplist", "arena_succ_corrupt"))
        kinds = {d.kind for d in report.divergences}
        assert "storage" in kinds, [str(d) for d in report.divergences]
        clean = verify_session(session, impls=["skiplist"],
                               storage="arena")
        assert clean.ok, [str(d) for d in clean.divergences]


class TestRecoveryRoundTrip:
    @pytest.mark.parametrize("src,dst", [("object", "arena"),
                                         ("arena", "object")])
    def test_checkpoint_restore_across_storages(self, src, dst):
        """A checkpoint is logical (key/value pairs), so it restores
        across storage backends; the restored arena must pass the
        mirror-parity integrity check."""
        _, a = make_sl(src, n=150, stride=3)
        a.batch_delete(list(range(0, 90, 9)))
        chk = checkpoint_structure(a)
        _, b = make_sl(dst, seed=1)
        restored = restore_structure(chk, b)
        assert restored == a.size
        assert b.scan_all() == a.scan_all()
        b.check_integrity()
        got = b.apply_batch("successor", [1, 100, 448])
        assert got == a.apply_batch("successor", [1, 100, 448])
