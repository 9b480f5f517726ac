"""Tests for the structural layer: layout, placement, space (Thm 3.1)."""

import math

import pytest

from repro.core.node import NEG_INF, NODE_WORDS, UPPER
from repro.core.skiplist import PIMSkipList
from repro.core.structure import SkipListStructure
from repro.sim.machine import PIMMachine
from repro.workloads import build_items
from tests.conftest import make_skiplist


def make_struct(p=8, seed=0):
    return SkipListStructure(PIMMachine(num_modules=p, seed=seed))


def built(items, p=8, seed=0, machine=None):
    """The structure of a skip list loaded with ``items`` by ``build``."""
    sl = PIMSkipList(machine or PIMMachine(num_modules=p, seed=seed))
    sl.build(items)
    return sl.struct


class TestGeometry:
    def test_h_low_is_log_p(self):
        assert make_struct(p=16).h_low == 4
        assert make_struct(p=8).h_low == 3
        assert make_struct(p=1).h_low == 1  # degenerate floor

    def test_sentinel_tower_spans_all_levels(self):
        s = make_struct(p=8)
        assert s.root.key is NEG_INF
        assert s.root.level == s.top_level
        for lvl, node in enumerate(s.sentinels):
            assert node.level == lvl
            assert node.owner == UPPER
        assert s.upper_leaf_sentinel.next_leaf == [None] * 8

    def test_empty_build_is_valid(self):
        s = built([])
        s.check_integrity()
        assert s.keys_in_order() == []

    def test_grow_to_level_idempotent(self):
        s = make_struct()
        top = s.top_level
        s.grow_to_level(top + 3, lambda w: None)
        assert s.top_level == top + 4
        s.grow_to_level(top, lambda w: None)  # no shrink, no change
        assert s.top_level == top + 4
        assert s.root.down is s.sentinels[s.top_level - 1]


class TestPlacement:
    def test_lower_owner_matches_hash(self):
        s = built(build_items(100))
        for lvl in range(s.h_low):
            for node in s.iter_level(lvl):
                assert node.owner == s.owner_of(node.key, lvl)

    def test_upper_nodes_replicated(self):
        s = built(build_items(300), p=4, seed=3)
        found_upper = False
        for lvl in range(s.h_low, s.top_level + 1):
            for node in s.iter_level(lvl):
                assert node.owner == UPPER
                found_upper = True
        assert found_upper  # 300 keys over P=4 must reach level 2

    def test_make_node_level_validation(self):
        s = make_struct()
        with pytest.raises(ValueError):
            s.make_lower_node(1, s.h_low)
        with pytest.raises(ValueError):
            s.make_upper_node(1, s.h_low - 1)

    def test_build_rejects_unsorted_and_nonempty(self):
        sl = PIMSkipList(PIMMachine(num_modules=8, seed=0))
        for bad in ([(2, 0), (1, 0)], [(1, 0), (1, 1)]):
            with pytest.raises(ValueError, match="sorted unique"):
                sl.build(bad)
        assert sl.machine.metrics.rounds == 0  # refused before any send
        sl.build([(1, 0)])
        with pytest.raises(ValueError, match="empty"):
            sl.build([(2, 0)])


class TestSpaceTheorem31:
    """Theorem 3.1: O(n) words total, O(n/P) whp per module."""

    @pytest.mark.parametrize("p", [4, 16])
    def test_per_module_space_balanced(self, p):
        n = 600 * p // 4
        machine = PIMMachine(num_modules=p, seed=5)
        built(build_items(n), machine=machine)
        words = [m.words_used for m in machine.modules]
        mean = sum(words) / p
        assert max(words) < 2.2 * mean
        assert min(words) > 0.4 * mean

    def test_total_space_linear_in_n(self):
        per_n = {}
        for n in (500, 2000):
            machine = PIMMachine(num_modules=8, seed=6)
            built(build_items(n), machine=machine)
            per_n[n] = sum(m.words_used for m in machine.modules) / n
        # words per key roughly constant (towers avg 2 nodes * 8 words,
        # plus the replicated upper part's P-fold copies ~ another 2P/P*8)
        assert per_n[2000] < 1.5 * per_n[500]

    def test_upper_part_is_small(self):
        """Upper part has O(n/P) nodes whp (height cut at log P)."""
        n = 4000
        s = built(build_items(n), p=16, seed=7)
        upper = sum(1 for lvl in range(s.h_low, s.top_level + 1)
                    for _ in s.iter_level(lvl))
        assert upper < 4 * n / 16


class TestLocalPosition:
    def test_local_position_cases(self):
        machine, sl, ref = make_skiplist(num_modules=4, n=120, seed=1)
        s = sl.struct
        charge = lambda w: None
        for mid in range(4):
            ml = s.mlocal(mid)
            chain = []
            x = ml.first_leaf
            while x is not None:
                chain.append(x)
                x = x.local_right
            if not chain:
                continue
            # probe: before first, between, after last, exact hit
            probes = [chain[0].key - 1, chain[-1].key + 1]
            if len(chain) > 2:
                probes.append(chain[1].key + 1)
            probes.append(chain[0].key)
            for key in probes:
                pred, succ = s.local_position(mid, key, charge)
                expect_pred = None
                expect_succ = None
                for leaf in chain:
                    if leaf.key < key:
                        expect_pred = leaf
                    elif expect_succ is None:
                        expect_succ = leaf
                assert pred is expect_pred
                assert succ is expect_succ


class TestDiagnostics:
    def test_keys_in_order(self):
        _, sl, ref = make_skiplist(n=50)
        assert sl.struct.keys_in_order() == sorted(ref.data)

    def test_check_integrity_catches_order_violation(self):
        _, sl, _ = make_skiplist(n=30)
        leaf = next(sl.struct.iter_level(0))
        leaf.key, save = leaf.key + 10**9, leaf.key
        with pytest.raises(AssertionError):
            sl.check_integrity()
        leaf.key = save
        sl.check_integrity()

    def test_check_integrity_catches_bad_next_leaf(self):
        _, sl, _ = make_skiplist(n=200, num_modules=4)
        s = sl.struct
        s.upper_leaf_sentinel.next_leaf[0] = None
        if s.mlocal(0).first_leaf is not None:
            with pytest.raises(AssertionError):
                sl.check_integrity()
