"""The skip list's write group: Successor keys and Range batches riding
an Upsert batch.

``PIMSkipList.apply_group([("upsert", pairs), ("successor", keys),
("range", ops)])`` -- any of the two riders, in either order -- must
answer exactly what the sequential oracle answers running the Upsert
and then each read batch, leave a sound structure, and run the same
rounds -- and draw the same random modules -- on the engine and on the
per-task reference oracle.  When nothing rides the Upsert's search
(``ops_successor.rides``), or the Upsert inserts nothing (no search to
ride), the group *is* its batches run one after another, down to the
next RNG draw.  (What riding saves is a count of search stages; on a
structure of a handful of keys a stage's rounds are not the rule's
proxy, so the round comparisons run on the grid at the end, 8 <= P <=
64 over 64 P keys, as ``tests/test_read_groups.py``'s do.)
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.ops_range import _cut_pieces
from repro.core.ops_successor import rides
from repro.sim.machine import ReferencePIMMachine
from repro.verify.oracle import SequentialOracle
from repro.workloads import build_items
from tests.conftest import DETERMINISTIC


@st.composite
def write_groups(draw):
    """``(P, items, group)``: items on multiples of 3; an Upsert of
    fresh and stored keys (sometimes stored keys only: no insert, no
    search), possibly empty; then a Successor batch, a Range batch or
    both, in either order.  Riders hold duplicates, inserted and
    updated keys, and keys below and past everything stored; ranges
    are empty, overlapping, past the largest key or inverted."""
    p = draw(st.sampled_from([1, 2, 8, 64]))
    n = draw(st.integers(0, 40))
    items = [(3 * i, i) for i in range(n)]
    key = st.integers(-5, 3 * n + 5)
    if n and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from([k for k, _ in items]),
                             max_size=12))
    else:
        keys = draw(st.lists(key, max_size=24))
    pairs = [(k, draw(st.integers(0, 9))) for k in keys]
    rider = st.one_of(key, st.sampled_from([-100, 10 ** 6]),
                      *([st.sampled_from(keys)] if keys else []))
    riders = draw(st.lists(rider, max_size=30))
    ranges = draw(st.lists(st.tuples(rider, st.integers(-2, 12)).map(
        lambda lo_w: (lo_w[0], lo_w[0] + lo_w[1])), max_size=16))
    reads = draw(st.sampled_from([
        [("successor", riders)], [("range", ranges)],
        [("successor", riders), ("range", ranges)],
        [("range", ranges), ("successor", riders)]]))
    return p, items, [("upsert", pairs)] + reads


def _run(machine_cls, p, items, call):
    sl = PIMSkipList(machine_cls(num_modules=p, seed=p + 1))
    sl.build(items)
    before = sl.machine.snapshot()
    got = call(sl)
    sl.check_integrity()
    return got, sl.machine.delta_since(before), sl.machine.rng.random()


def _rides(p, items, group):
    """Whether anything of ``group`` rides its Upsert's search: the
    rule applied to the widths the route sees."""
    sl = PIMSkipList(PIMMachine(num_modules=p, seed=p + 1)).struct
    payloads = dict(group)
    inserted = len({k for k, _ in payloads["upsert"]}
                   - {k for k, _ in items})
    keys = payloads.get("successor", [])
    ranges = [(lo, hi) for lo, hi in payloads.get("range", []) if lo <= hi]
    if not inserted:
        return False
    own = inserted
    riding = bool(keys) and rides(sl, own, len(keys))
    own += len(keys) if riding else 0
    pieces = _cut_pieces(ranges)[0] if ranges else []
    return riding or bool(pieces) and rides(sl, own, len(pieces))


@DETERMINISTIC
@given(write_groups())
def test_a_write_group_is_the_oracles_upsert_then_its_reads(case):
    p, items, group = case
    want = SequentialOracle(items).apply_group(group)
    joined = _run(PIMMachine, p, items, lambda sl: sl.apply_group(group))
    assert joined[0] == want
    assert _run(ReferencePIMMachine, p, items,
                lambda sl: sl.apply_group(group)) == joined
    if _rides(p, items, group):
        return
    assert _run(PIMMachine, p, items, lambda sl: [
        sl.apply_batch(op, payload) for op, payload in group]) == joined


def test_ranges_over_inserted_and_updated_keys_ride():
    """A write that inserts, updates and leaves keys alone, and ranges
    over each kind -- overlapping, empty, past the largest key and one
    inverted -- answered as after the write, on both engines."""
    items = [(3 * i, i) for i in range(40)]
    pairs = [(4, "new"), (6, "upd"), (7, "new"), (500, "far")]
    ranges = [(0, 9), (5, 7), (6, 6), (1, 2), (200, 300), (118, 1000),
              (9, 3), (4, 4)]
    group = [("upsert", pairs), ("range", ranges), ("successor", [5, 119])]
    assert _rides(8, items, group)
    want = SequentialOracle(items).apply_group(group)
    assert want[1] == [
        [(0, 0), (3, 1), (4, "new"), (6, "upd"), (7, "new"), (9, 3)],
        [(6, "upd"), (7, "new")], [(6, "upd")], [], [],
        [(500, "far")], [], [(4, "new")]]
    got = _run(PIMMachine, 8, items, lambda sl: sl.apply_group(group))
    assert got[0] == want
    assert _run(ReferencePIMMachine, 8, items,
                lambda sl: sl.apply_group(group)) == got


def test_an_all_update_write_runs_its_reads_after_it():
    """No key is new: the Upsert runs no search, so there is nothing to
    ride -- the group is its three batches one after another."""
    items = [(3 * i, i) for i in range(40)]
    group = [("upsert", [(3, "a"), (9, "b")]), ("range", [(0, 10)]),
             ("successor", [4])]
    apart = _run(PIMMachine, 8, items, lambda sl: [
        sl.apply_batch(op, payload) for op, payload in group])
    assert apart[0] == [None, [[(0, 0), (3, "a"), (6, 2), (9, "b")]],
                        [(6, 2)]]
    assert _run(PIMMachine, 8, items,
                lambda sl: sl.apply_group(group)) == apart


def _grid():
    for p in (8, 16, 64):
        edge = p * int(math.log2(p))
        for upserts in (4, edge // 4, edge - 8):
            for ranges in (1, 4, edge // 4, edge + 1):
                yield p, upserts, ranges


def _measured(structure, call):
    before = structure.machine.snapshot()
    result = call()
    return result, structure.machine.delta_since(before)


@pytest.mark.parametrize("p,upserts,ranges", list(_grid()))
def test_a_riding_range_group_costs_fewer_rounds(p, upserts, ranges):
    """An Upsert of fresh keys with Successor and Range riders against
    the same batches one after another: equal answers; a group where a
    class rides costs strictly fewer rounds, and one where nothing
    rides is its batches, cost for cost."""
    items = build_items(64 * p, stride=2)
    top = 2 * len(items)
    rng = random.Random(p * upserts + ranges)
    group = [
        ("upsert", [(k, -k) for k in rng.sample(range(1, top, 2), upserts)]),
        ("range", [(lo, lo + 1 + rng.randrange(8))
                   for lo in rng.sample(range(0, top, 16), ranges)]),
        ("successor", [rng.randrange(top) for _ in range(3)]),
    ]
    apart = PIMSkipList(PIMMachine(num_modules=p, seed=5))
    together = PIMSkipList(PIMMachine(num_modules=p, seed=5))
    for sl in (apart, together):
        sl.build(items)
    want, sum_of = _measured(apart, lambda: [
        apart.apply_batch(op, payload) for op, payload in group])
    got, cost = _measured(together, lambda: together.apply_group(group))
    assert got == want == SequentialOracle(items).apply_group(group)
    if _rides(p, items, group):
        assert cost.rounds < sum_of.rounds
    else:
        assert cost == sum_of


def test_ranges_too_wide_to_ride_run_after_the_write():
    """Pieces that would push the search past P log P, onto a narrower
    pivot spacing, stay apart: the group is the Upsert batch and, after
    it, the Range batch, model cost for model cost."""
    p = 8
    items = build_items(512, stride=2)
    rng = random.Random(3)
    group = [("upsert", [(k, -k) for k in rng.sample(range(1, 1024, 2), 4)]),
             ("range", [(lo, lo + 3)
                        for lo in rng.sample(range(0, 1024, 16), 24)])]
    assert not _rides(p, items, group)
    apart = _run(PIMMachine, p, items, lambda sl: [
        sl.apply_batch(op, payload) for op, payload in group])
    assert _run(PIMMachine, p, items,
                lambda sl: sl.apply_group(group)) == apart


def test_a_joint_search_past_p_log_p_stays_apart():
    """72 Upsert keys in one gap between stored keys and 72 Successor
    keys in another, at P = 8 (P log P = 24): the Upsert's own search
    settles its phases by the squeeze, a joint one would walk them from
    the root (18 rounds against 10 apart when it rode), so the keys stay
    apart and the group is its two batches, cost for cost."""
    items = [(1000 * i, i) for i in range(1, 61)]
    group = [("upsert", [(k, 7) for k in range(792, 864)]),
             ("successor", list(range(27566, 27638)))]
    assert not _rides(8, items, group)
    apart = _run(PIMMachine, 8, items, lambda sl: [
        sl.apply_batch(op, payload) for op, payload in group])
    assert _run(PIMMachine, 8, items,
                lambda sl: sl.apply_group(group)) == apart
