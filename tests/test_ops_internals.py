"""Unit tests for op-module internals: write handlers, tower building,
Algorithm 1 row segmentation, and the CPU-side general range function."""

import pytest

from repro.core.node import UPPER
from repro.core.ops_upsert import _build_towers
from repro.core.ops_write import remote_write
from tests.conftest import make_skiplist


class TestWriteHandlers:
    def test_remote_write_to_owned_node_is_one_message(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=20, seed=50)
        leaf = next(sl.struct.iter_level(0))
        other = leaf.right
        before = machine.snapshot()
        remote_write(sl.struct, leaf, "right", other)
        machine.drain()
        d = machine.delta_since(before)
        assert leaf.right is other
        assert d.messages == 1  # the write; the barrier is its ack

    def test_remote_write_to_replicated_node_broadcasts(self):
        machine, sl, _ = make_skiplist(num_modules=8, n=20, seed=51)
        sentinel = sl.struct.sentinels[0]
        target = sentinel.right
        before = machine.snapshot()
        remote_write(sl.struct, sentinel, "right", target)
        machine.drain()
        d = machine.delta_since(before)
        assert d.messages == 8  # one write per replica, no replies
        assert sentinel.right is target

    def test_invalid_field_rejected(self):
        machine, sl, _ = make_skiplist(num_modules=4, n=10, seed=52)
        leaf = next(sl.struct.iter_level(0))
        machine.send(leaf.owner, f"{sl.struct.name}:write_ptr",
                     (leaf, "key", None))
        with pytest.raises(ValueError):
            machine.drain()

    def test_grow_handler_idempotent_across_modules(self):
        machine, sl, _ = make_skiplist(num_modules=4, n=10, seed=53)
        s = sl.struct
        top0 = s.top_level
        machine.broadcast(f"{s.name}:grow", (top0 + 2, 3))
        machine.drain()
        assert s.top_level == top0 + 3
        # each module charged its share of the new sentinel words
        machine.broadcast(f"{s.name}:grow", (top0 + 2, 0))
        machine.drain()
        assert s.top_level == top0 + 3  # no further growth


class TestBuildTower:
    def test_short_tower_all_lower(self):
        machine, sl, _ = make_skiplist(num_modules=16, n=10, seed=54)
        s = sl.struct
        levels, reach, lower, upper = _build_towers(s, [(999, "v")], [1])
        assert [n.level for n in lower] == [0, 1] and upper == []
        assert levels == [[lower[0]], [lower[1]]]
        assert [list(r) for r in reach] == [[0], [0]]
        assert all(n.owner != UPPER for n in lower)
        leaf = lower[0]
        assert leaf.value == "v"
        assert leaf.up_chain == [lower[1]]
        assert leaf.has_upper is False
        assert lower[0].up is lower[1]
        assert lower[1].down is lower[0]

    def test_tall_tower_crosses_into_upper_part(self):
        machine, sl, _ = make_skiplist(num_modules=16, n=10, seed=55)
        s = sl.struct  # h_low = 4
        _, _, lowers, uppers = _build_towers(s, [(999, "v")], [6])
        assert [n.level for n in lowers + uppers] == list(range(7))
        assert len(lowers) == 4 and len(uppers) == 3
        assert all(n.owner == UPPER for n in uppers)
        leaf = lowers[0]
        assert leaf.has_upper is True
        assert leaf.up_chain == lowers[1:]
        # vertical chain is continuous across the boundary
        tower = lowers + uppers
        for below, above in zip(tower, tower[1:]):
            assert below.up is above and above.down is below
        # the new upper leaf carries a per-module next-leaf array
        boundary = tower[s.h_low]
        assert boundary.next_leaf is not None
        assert len(boundary.next_leaf) == 16

    def test_owners_follow_the_hash(self):
        machine, sl, _ = make_skiplist(num_modules=8, n=10, seed=56)
        s = sl.struct
        _, _, lower, _ = _build_towers(s, [(555, None)], [2])
        assert len(lower) == 3
        for n in lower:
            if n.level < s.h_low:
                assert n.owner == s.owner_of(555, n.level)
