"""Tests for range operations (paper §5, Theorems 5.1 & 5.2)."""

import random

import pytest

from repro.core.ops_range import (
    Bound,
    JustBelow,
    batch_range_tree,
    range_broadcast,
    range_tree_single,
)
from tests.conftest import make_skiplist


class TestJustBelowOrdering:
    def test_sits_between_predecessor_and_key(self):
        jb = JustBelow(10)
        assert jb > 9 and jb < 10
        assert 9 < jb and 10 > jb
        assert jb <= 10 and jb >= 9
        assert not (jb >= 10)

    def test_total_order_with_other_justbelows(self):
        assert JustBelow(5) < JustBelow(6)
        assert JustBelow(5) == JustBelow(5)
        assert JustBelow(5) <= JustBelow(5)
        assert hash(JustBelow(5)) == hash(JustBelow(5))

    def test_sortable_mixed_with_raw_keys(self):
        xs = [7, JustBelow(7), 6, JustBelow(9), 8]
        assert sorted(xs) == [6, JustBelow(7), 7, 8, JustBelow(9)]


class TestBound:
    def test_inclusive(self):
        b = Bound(10, inclusive=True)
        assert b.admits(10) and b.admits(9) and not b.admits(11)

    def test_exclusive(self):
        b = Bound(10, inclusive=False)
        assert not b.admits(10) and b.admits(9)


class TestBroadcast:
    def test_matches_reference(self, built8):
        _, sl, ref = built8
        r = sl.range_broadcast(2500, 9500)
        assert r.values == ref.range(2500, 9500)
        assert r.count == len(r.values)

    def test_boundary_keys_included(self, built8):
        _, sl, ref = built8
        r = sl.range_broadcast(2000, 4000)
        assert r.values == ref.range(2000, 4000)
        assert r.values[0][0] == 2000 and r.values[-1][0] == 4000

    def test_empty_range(self, built8):
        _, sl, _ = built8
        r = sl.range_broadcast(2001, 2999)
        assert r.count == 0 and r.values == []

    def test_funcs(self, built8):
        _, sl, ref = built8
        c = sl.range_broadcast(2000, 6000, func="count")
        assert c.count == len(ref.range(2000, 6000)) and c.values == []
        old = sl.range_broadcast(2000, 3000, func="fetch_and_add", func_arg=5)
        assert old.values == ref.range(2000, 3000)
        assert sl.batch_get([2000])[0] == ref.get(2000) + 5
        sl.range_broadcast(2000, 3000, func="set", func_arg=0)
        assert sl.batch_get([2000, 3000]) == [0, 0]

    def test_always_one_round_out(self, built8):
        """Theorem 5.1: O(1) bulk-synchronous rounds."""
        machine, sl, _ = built8
        before = machine.snapshot()
        sl.range_broadcast(2000, 50000, func="count")
        d = machine.delta_since(before)
        assert d.rounds == 1  # broadcast and count replies share a round
        assert d.io_time <= 1 + 2 * (50 // machine.num_modules + 10)


class TestTreeSingle:
    def test_matches_reference(self, built8):
        _, sl, ref = built8
        r = range_tree_single(sl.struct, 2500, 9500)
        assert r.values == ref.range(2500, 9500)
        assert r.count == len(r.values)

    @pytest.mark.parametrize("lo,hi", [
        (0, 10**9),       # everything
        (2000, 2000),     # single stored point
        (2001, 2001),     # single missing point
        (-100, 500),      # before first key
        (10**9, 2 * 10**9),  # after last key
    ])
    def test_edge_ranges(self, built8, lo, hi):
        _, sl, ref = built8
        r = range_tree_single(sl.struct, lo, hi)
        assert r.values == ref.range(lo, hi)

    def test_indices_are_range_order(self, built8):
        """The prefix-sum pass gives each leaf its index within the range."""
        machine, sl, ref = built8
        replies = []
        machine.send(machine.random_module(), f"{sl.struct.name}:rng_root",
                     (0, JustBelow(2000), Bound(9000, True), "read", None,
                      None))
        for r in machine.drain():
            if r.payload[0] == "item":
                replies.append((r.payload[4], r.payload[2]))
        replies.sort()
        expect = [k for k, _ in ref.range(2000, 9000)]
        assert [k for _, k in replies] == expect
        assert [i for i, _ in replies] == list(range(len(expect)))

    def test_on_empty_structure(self):
        _, sl, _ = make_skiplist(n=0)
        r = range_tree_single(sl.struct, 0, 100)
        assert r.count == 0 and r.values == []


class TestTreeBatched:
    def test_disjoint_ops(self, built8):
        _, sl, ref = built8
        ops = [(1000, 5000), (20000, 30000), (150000, 160000)]
        res = sl.batch_range(ops)
        for (l, r), rr in zip(ops, res):
            assert rr.values == ref.range(l, r)
            assert rr.count == len(rr.values)

    def test_overlapping_and_nested_ops(self, built8):
        _, sl, ref = built8
        ops = [(1000, 50000), (2000, 3000), (2500, 60000), (1000, 50000)]
        res = sl.batch_range(ops)
        for (l, r), rr in zip(ops, res):
            assert rr.values == ref.range(l, r), (l, r)

    def test_shared_endpoints(self, built8):
        _, sl, ref = built8
        ops = [(1000, 5000), (5000, 9000), (5000, 5000)]
        res = sl.batch_range(ops)
        for (l, r), rr in zip(ops, res):
            assert rr.values == ref.range(l, r), (l, r)

    def test_count_func(self, built8):
        _, sl, ref = built8
        ops = [(1000, 40000), (0, 10**9)]
        res = sl.batch_range(ops, func="count")
        for (l, r), rr in zip(ops, res):
            assert rr.count == len(ref.range(l, r))
            assert rr.values == []

    def test_invalid_range_rejected(self, built8):
        _, sl, _ = built8
        with pytest.raises(ValueError):
            sl.batch_range([(10, 5)])

    def test_randomized_vs_reference(self):
        for p in (4, 16):
            machine, sl, ref = make_skiplist(num_modules=p, n=300, seed=41)
            rng = random.Random(p)
            ops = []
            for _ in range(30):
                a = rng.randrange(-5000, 320000)
                ops.append((a, a + rng.randrange(0, 50000)))
            res = sl.batch_range(ops)
            for (l, r), rr in zip(ops, res):
                assert rr.values == ref.range(l, r), (p, l, r)

    def test_fetch_and_add_disjoint_ops(self, built8):
        _, sl, ref = built8
        res = sl.batch_range([(2000, 4000), (5000, 7000)],
                             func="fetch_and_add", func_arg=1)
        assert res[0].values == ref.range(2000, 4000)  # old values returned
        assert sl.batch_get([2000, 4000, 5000, 8000]) == [
            ref.get(2000) + 1, ref.get(4000) + 1,
            ref.get(5000) + 1, ref.get(8000),
        ]

    def test_overlapping_mutating_ops_rejected(self, built8):
        _, sl, _ = built8
        with pytest.raises(ValueError):
            sl.batch_range([(2000, 4000), (3000, 5000)],
                           func="fetch_and_add", func_arg=1)
        with pytest.raises(ValueError):
            sl.batch_range([(2000, 4000), (4000, 5000)], func="set",
                           func_arg=0)


class TestTreeVsBroadcastCost:
    def test_tree_cheaper_for_small_ranges(self):
        """§5.2's motivation: broadcasting is wasteful when K is small."""
        p = 32
        machine, sl, ref = make_skiplist(num_modules=p, n=2000, seed=42)
        s0 = machine.snapshot()
        sl.range_broadcast(1000, 3000, func="count")
        bcast = machine.delta_since(s0)
        s1 = machine.snapshot()
        range_tree_single(sl.struct, 1000, 3000, func="count")
        tree = machine.delta_since(s1)
        # tiny range: the broadcast pays >= P messages, the tree O(K + log)
        assert bcast.messages >= p
        assert tree.messages < bcast.messages

    def test_broadcast_cheaper_for_huge_ranges(self):
        p = 8
        machine, sl, ref = make_skiplist(num_modules=p, n=3000, seed=43)
        lo, hi = 0, 10**9
        s0 = machine.snapshot()
        sl.range_broadcast(lo, hi, func="count")
        bcast = machine.delta_since(s0)
        s1 = machine.snapshot()
        range_tree_single(sl.struct, lo, hi, func="count")
        tree = machine.delta_since(s1)
        assert bcast.io_time < tree.io_time


class TestAbortedTraversals:
    """A range op that raises part-way (here a fail-stop crash) never
    runs the passes that release its traversal state; the route drops
    it on its way out, on every module, and ``check_integrity`` holds
    that none is left."""

    @pytest.mark.parametrize("single", [False, True])
    def test_crash_at_every_round_leaves_no_state(self, single):
        from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec
        from repro.sim.errors import ModuleCrashed

        crashed = 0
        for at_round in range(15, 40):
            machine, sl, _ = make_skiplist(num_modules=8, n=2000, stride=10)
            machine.install_fault_plan(FaultPlan(FaultSpec(
                crashes=(CrashEvent(mid=3, at_round=at_round),)), seed=0))
            try:
                if single:
                    # the rng_boundary descent; its round count depends
                    # on the start module, so shift the crash with it
                    for lo in (100, 5000, 12000):
                        range_tree_single(sl.struct, lo, lo + 900)
                else:
                    sl.batch_range([(100, 1000), (5000, 5900),
                                    (12000, 12900)])
            except ModuleCrashed:
                crashed += 1
            for mid in range(8):
                assert sl.struct.mlocal(mid).range_ctx == {}, (at_round, mid)
            sl.check_integrity()
        assert crashed > 0
