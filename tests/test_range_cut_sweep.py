"""The cut-point sweep behind the batched tree range (paper §5.2 step 1).

``_cut_pieces`` cuts the union of a batch's ops where the set of
covering ops changes; the batch's route pays one boundary search,
one root and one go per kept piece.  Hypothesis checks the geometry of
the pieces on the real line (half-integer probes see open and closed
ends apart) and the results of whole batches against the oracle, in the
shapes that stress the sweep: nested, overlapping, duplicated,
shared-endpoint and point ops.  One fixed, derandomized profile: the
examples are the same on every run, so tier-1 and CI are deterministic.

Also here: the ``h_low == 1`` double count the old duplicate-spawn guard
let through (P <= 2), pinned against a sorted-list reference.
"""

import functools
import random

import pytest
from hypothesis import example, given, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.ops_range import JustBelow, _cut_pieces, _require_disjoint
from tests.conftest import DETERMINISTIC, ReferenceMap

KEY = st.integers(0, 40)
OP = st.tuples(KEY, KEY).map(lambda p: (min(p), max(p)))
OPS = st.lists(OP, min_size=1, max_size=8)

NESTED = [(2, 30), (5, 20), (8, 9)]
OVERLAPPING = [(2, 12), (8, 20), (12, 25)]
DUPLICATED = [(4, 9), (4, 9), (4, 9)]
SHARED_ENDPOINT = [(3, 7), (7, 11), (11, 11)]
POINTS = [(5, 5), (5, 5), (6, 6), (40, 40)]


@st.composite
def disjoint_ops(draw):
    """Pairwise-disjoint ops (points included), in a drawn order."""
    keys = sorted(draw(st.sets(KEY, min_size=1, max_size=12)))
    ops, i = [], 0
    while i < len(keys):
        if i + 1 < len(keys) and draw(st.booleans()):
            ops.append((keys[i], keys[i + 1]))
            i += 2
        else:
            ops.append((keys[i], keys[i]))
            i += 1
    return draw(st.permutations(ops))


def _cuts(piece):
    """A piece's two cuts, as ``(key, side)`` with side 0 below the key."""
    lq, bound = piece
    left = (lq.key, 0) if isinstance(lq, JustBelow) else (lq, 1)
    return left, (bound.key, 1 if bound.inclusive else 0)


def _admits(piece, x):
    lq, bound = piece
    return lq < x and bound.admits(x)


def _probes(ops):
    lo = min(l for l, _ in ops) - 1
    hi = max(r for _, r in ops) + 1
    return [lo + i / 2 for i in range(2 * (hi - lo) + 1)]


@DETERMINISTIC
@given(OPS)
@example(NESTED)
@example(OVERLAPPING)
@example(DUPLICATED)
@example(SHARED_ENDPOINT)
@example(POINTS)
def test_pieces_tile_the_union_of_the_ops(ops):
    pieces, spans = _cut_pieces(ops)
    assert 1 <= len(pieces) <= 2 * len(ops) - 1
    cuts = [_cuts(p) for p in pieces]
    for left, right in cuts:
        assert left < right
    for (_, right), (left, _) in zip(cuts, cuts[1:]):
        assert right <= left                      # ascending and disjoint
    for x in _probes(ops):
        covering = sum(_admits(p, x) for p in pieces)
        assert covering == any(l <= x <= r for l, r in ops), x
    for (l, r), (first, stop) in zip(ops, spans):
        assert 0 <= first < stop <= len(pieces)
        for x in _probes(ops):
            assert any(_admits(p, x) for p in pieces[first:stop]) \
                == (l <= x <= r), ((l, r), x)


@DETERMINISTIC
@given(disjoint_ops())
def test_disjoint_ops_are_their_own_pieces(ops):
    pieces, spans = _cut_pieces(ops)
    assert len(pieces) == len(ops)
    assert sorted(spans) == [(i, i + 1) for i in range(len(ops))]
    for (l, r), (first, _) in zip(ops, spans):
        assert _cuts(pieces[first]) == ((l, 0), (r, 1))
    _require_disjoint(ops)  # and a mutating func would accept them


@DETERMINISTIC
@given(OPS)
@example(SHARED_ENDPOINT)
def test_require_disjoint_rejects_exactly_the_overlapping_batches(ops):
    overlap = any(a[0] <= b[1] and b[0] <= a[1]
                  for i, a in enumerate(ops) for b in ops[i + 1:])
    if overlap:
        with pytest.raises(ValueError, match="must be disjoint"):
            _require_disjoint(ops)
    else:
        _require_disjoint(ops)


# -- whole batches against the oracle ----------------------------------------

@functools.lru_cache(maxsize=None)
def _built():
    """One read-only skip list (built once) under a shared memory small
    enough that most batches fetch in several groups (§5.2 step 4):
    M/2 = 16 words against up to ~27 stored keys per op."""
    rng = random.Random(19)
    items = [(k, -k) for k in sorted(rng.sample(range(41), 27))]
    machine = PIMMachine(num_modules=4, seed=19, shared_memory_words=32)
    sl = PIMSkipList(machine)
    sl.build(items)
    return sl, ReferenceMap(items)


@DETERMINISTIC
@given(OPS, st.sampled_from(["read", "count"]))
@example(NESTED, "read")
@example(NESTED, "count")
@example(OVERLAPPING, "read")
@example(OVERLAPPING, "count")
@example(DUPLICATED, "read")
@example(SHARED_ENDPOINT, "read")
@example(SHARED_ENDPOINT, "count")
@example(POINTS, "read")
@example(POINTS, "count")
def test_batched_results_equal_the_oracles(ops, func):
    sl, ref = _built()
    got = sl.batch_range(ops, func=func)
    for (l, r), res in zip(ops, got):
        want = ref.range(l, r)
        assert res.count == len(want), (l, r)
        assert res.values == (want if func == "read" else []), (l, r)
    for mid in range(sl.machine.num_modules):
        assert sl.struct.mlocal(mid).range_ctx == {}


@pytest.mark.parametrize("func", ["set", "fetch_and_add"])
def test_mutating_funcs_still_reject_overlap(func):
    sl, _ = _built()
    for ops in (NESTED, OVERLAPPING, DUPLICATED, SHARED_ENDPOINT):
        with pytest.raises(ValueError, match="must be disjoint"):
            sl.batch_range(ops, func=func, func_arg=1)


# -- h_low == 1: the side chain's head is a childless leaf -------------------

@pytest.mark.parametrize("func", ["count", "read"])
@pytest.mark.parametrize("num_modules,h_low_override",
                         [(1, None), (2, None), (8, 1)])
def test_no_double_count_when_the_lower_part_is_one_level(
        num_modules, h_low_override, func):
    """With one lower level, a side-chain head whose tower reaches the
    upper part is a childless leaf: in count mode it reports and frees
    its context in the same call, so a second spawn of it from the
    upper leaf's down chain (never created now) used to count it again
    -- 286 of 3200 single-range counts at P = 2."""
    for seed in range(4):
        rng = random.Random(seed)
        keys = sorted(rng.sample(range(100), 60))
        machine = PIMMachine(num_modules=num_modules, seed=seed)
        sl = PIMSkipList(machine, h_low_override=h_low_override)
        sl.build([(k, k) for k in keys])
        assert sl.struct.h_low == 1
        for _ in range(100):
            a = rng.randrange(100)
            b = rng.randrange(a, 100)
            want = [(k, k) for k in keys if a <= k <= b]
            (res,) = sl.batch_range([(a, b)], func=func)
            assert res.count == len(want), (seed, a, b)
            assert res.values == (want if func == "read" else [])
        for mid in range(num_modules):
            assert sl.struct.mlocal(mid).range_ctx == {}
