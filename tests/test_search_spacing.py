"""The batched search's pivot spacing (``core/ops_successor.py``).

A search batch spaces its pivots ``max(log P, min(log^2 P,
ceil(P log^3 P / b)))`` apart: ``log^2 P`` up to ``P log P`` keys, the
paper's ``log P`` from its ``P log^2 P`` on, continuous between; up to
``P log P`` keys phase 0 searches the median pivot from the root beside
the two extremes.  What has to hold at every width:

- one ``log P``: the structure and :class:`PIMSkipList`'s batch minima
  read the same rounded integer;
- a batch answers as its two halves do and costs no more rounds / IO
  than they do run back to back, under the slack the differ's
  split-monotonicity check uses -- the property the coalescer relies on
  when it merges requests, and the one a single-stage narrow search
  broke;
- the paper's adversary, distinct keys sharing one successor, is settled
  from phase 0's paths: its cost is the one recorded before either rule
  existed, to the unit, wherever phase 0 walks two pivots, and one more
  root walk where it walks three;
- one hot segment stays inside Theorem 4.3's ``O(log^3 P)`` IO;
- ``search_stages``, which ``ops_successor.rides`` decides riding from, is
  the number of stages the route runs.
"""

import functools
import math
import random

import pytest
from hypothesis import given, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.ops_successor import (batch_search, batch_successor,
                                      search_stages)
from repro.workloads import build_items, same_successor_batch
from tests.conftest import DETERMINISTIC

STRIDE = 4096


def _built(p: int, n: int, seed: int = 7, stride: int = STRIDE) -> PIMSkipList:
    sl = PIMSkipList(PIMMachine(num_modules=p, seed=seed))
    sl.build(build_items(n, stride=stride))
    return sl


def _cost(sl: PIMSkipList, op: str, payload):
    before = sl.machine.snapshot()
    result = sl.apply_batch(op, payload)
    return result, sl.machine.delta_since(before)


# -- one log P ---------------------------------------------------------------


@pytest.mark.parametrize("p, log_p", [(6, 3), (12, 4), (48, 6), (64, 6)])
def test_one_log_p(p, log_p):
    """At P = 6, 12, 48 the floor of ``log2 P`` is one less than the
    rounded value every other reader used."""
    sl = _built(p, 4 * p * log_p, stride=1)
    s = sl.struct
    assert s.log_p == s.h_low == log_p
    assert sl.min_point_batch == s.min_point_batch == p * log_p
    assert sl.min_search_batch == p * log_p ** 2


# -- (a) a batch against its two halves --------------------------------------


@st.composite
def split_cases(draw):
    p = draw(st.sampled_from([8, 16, 64]))
    edge = p * int(math.log2(p))
    width = draw(st.one_of(
        st.integers(2, 3 * edge),
        # Around the widths where the whole batch, or its halves, change
        # spacing.
        st.sampled_from([edge - 1, edge, edge + 1, edge + 2,
                         2 * edge - 1, 2 * edge, 2 * edge + 1,
                         2 * edge + 2])))
    return p, width, draw(st.integers(0, 2 ** 16))


@DETERMINISTIC
@given(split_cases())
def test_a_batch_costs_no_more_than_its_halves(case):
    """``verify/differ.py::_check_split``'s invariant and slack, over
    every width from 2 to ``3 P log P``."""
    p, width, seed = case
    n = 32 * p
    rng = random.Random(seed)
    keys = [rng.randrange(-STRIDE, (n + 1) * STRIDE) for _ in range(width)]
    whole, twin = _built(p, n), _built(p, n)
    answers, d = _cost(whole, "successor", keys)
    mid = width // 2
    a1, d1 = _cost(twin, "successor", keys[:mid])
    a2, d2 = _cost(twin, "successor", keys[mid:])
    assert a1 + a2 == answers
    assert d.rounds <= d1.rounds + d2.rounds + 8
    assert d.io_time <= 1.5 * (d1.io_time + d2.io_time) + 16


# -- (b) the paper's adversary ------------------------------------------------

P, N = 64, 4096
LOG3_P = 6 ** 3
#: (rounds, io_time, pim_time, messages) on a fresh machine, recorded at
#: 56d843e (every batch on the paper's spacing).  The search settles the
#: whole batch from phase 0's paths, so a Successor batch costs the same
#: at every width; an Upsert adds its writes.  Widths: 8 and log^2 P
#: (two pivots), 64, 141 and P log P, one key over (pivots still log^2 P
#: apart: ceil(P log^3 P / 385) = 36), and P log^2 P.  The Upsert's
#: io_time and messages were re-recorded when write tasks stopped
#: replying (DESIGN.md §19; at 384 keys 248 -> 158 and 8 566 -> 4 690);
#: its rounds and PIM time did not move.  The Upsert's PIM time was
#: re-recorded when ``build`` began loading each module's hash table in
#: one pass (other slots, other probes; at 384 keys 788 -> 781; the
#: "before the median" notes are the old tables' values).
SUCCESSOR_AT_PARENT = (8, 44.0, 22.0, 46)
#: Where phase 0 walks the median pivot from the root with the extremes
#: (at most P log P keys and three pivots, DESIGN.md §17): the same 8
#: rounds, and the third root walk's IO, PIM time and messages -- 65 IO
#: = 0.30 log^3 P.  An Upsert pays the same +21 IO and +23 messages (its
#: recording search), and +7 PIM time.
SUCCESSOR_MEDIAN_AT_ROOT = (8, 65.0, 29.0, 69)
MEDIAN_AT_ROOT = {64, 141, 384}
UPSERT_AT_PARENT = {
    8: (11, 52.0, 59.0, 125),
    36: (13, 62.0, 230.0, 462),
    64: (13, 91.0, 251.0, 703),      # 70.0, 247.0, 680 before the median
    141: (13, 109.0, 366.0, 1584),   # 88.0, 360.0, 1561
    384: (13, 179.0, 781.0, 4713),   # 158.0, 781.0, 4690
    385: (13, 152.0, 767.0, 4695),
    2304: (13, 597.0, 5463.0, 28930),
}


def _adversary(width: int):
    """``width`` distinct keys inside one gap -- the same gap at every
    width: the generator draws it first, from the same stream."""
    stored = [k for k, _ in build_items(N, stride=STRIDE)]
    return same_successor_batch(stored, width, random.Random(5))


def _adversary_cost(op: str, width: int):
    keys = _adversary(width)
    payload = keys if op == "successor" else [(k, -k) for k in keys]
    _, d = _cost(_built(P, N), op, payload)
    return d.rounds, d.io_time, d.pim_time, d.messages


@pytest.mark.parametrize("width", sorted(UPSERT_AT_PARENT))
def test_same_successor_batch_costs_what_it_did(width):
    successor = _adversary_cost("successor", width)
    assert successor == (SUCCESSOR_MEDIAN_AT_ROOT if width in MEDIAN_AT_ROOT
                         else SUCCESSOR_AT_PARENT)
    upsert = _adversary_cost("upsert", width)
    assert upsert == UPSERT_AT_PARENT[width]
    # Theorem 4.3's O(log^3 P) IO (216 at P = 64), constants measured
    # here: the search alone 44 = 0.21 log^3 P on two root walks, 65 =
    # 0.30 log^3 P on three; an Upsert of P log P keys into one gap,
    # writes included, 179 = 0.83 log^3 P (0.73 on two root walks).
    assert successor[0] == 8
    assert successor[1] <= 0.35 * LOG3_P
    if width <= P * 6:
        assert upsert[1] <= 0.85 * LOG3_P


# -- (c) one hot segment inside a uniform batch -------------------------------


#: Theorem 4.3's IO envelope for a batch with one hot segment, in units
#: of log^3 P (the constants of (b) above sit well inside it).
HOT_SEGMENT_C = 6.0


@pytest.mark.parametrize("below", [0, 1, 2, 14, 35, 36, 37, 50])
def test_one_cluster_inside_uniform_keys(below):
    """36 keys in one gap (``log^2 P``: as many as one wide segment
    holds) among 64 uniform ones, ``below`` of them sorting under the
    cluster, so the cluster meets the pivot grid at every phase.  This
    is the case the wider segment is sized for: up to ``log^2 P``
    searches walk one lower-part path, ``log^2 P x O(log P)`` IO on its
    modules.  Measured over these offsets: 711-1160 IO, at most
    5.4 log^3 P, in 59-70 rounds (the paper's spacing: 426-544 IO,
    2.5 log^3 P, in 104-119 rounds)."""
    rng = random.Random(below)
    lo = (N // 2) * STRIDE  # a stored key; the next one is lo + STRIDE
    cluster = rng.sample(range(lo + 1, lo + STRIDE), 36)
    keys = (cluster
            + [rng.randrange(0, lo) for _ in range(below)]
            + [rng.randrange(lo + STRIDE, N * STRIDE)
               for _ in range(64 - below)])
    rng.shuffle(keys)
    answers, d = _cost(_built(P, N), "successor", keys)
    assert all(got == (lo + STRIDE, lo + STRIDE)
               for k, got in zip(keys, answers) if lo < k < lo + STRIDE)
    assert d.io_time <= HOT_SEGMENT_C * LOG3_P


# -- (d) search_stages is the route's stage count -----------------------------


@functools.lru_cache(maxsize=None)
def _searchable(p: int) -> PIMSkipList:
    """One structure per P; the searches below only read it."""
    return _built(p, 64 * p)


@st.composite
def stage_cases(draw):
    p = draw(st.sampled_from([8, 16, 64]))
    log_p = int(math.log2(p))
    edge = p * log_p
    # The widest batch whose pivots sit log^2 P apart.
    last = (edge * log_p ** 2 - 1) // (log_p ** 2 - 1)
    width = draw(st.one_of(
        st.integers(1, 3 * edge),
        # Where phase 0 gains its median and loses it, where the spacing
        # leaves log^2 P, and the paper's batch.
        st.sampled_from([1, 2, 3, log_p ** 2 + 1, log_p ** 2 + 2, edge,
                         edge + 1, last, last + 1, p * log_p ** 2])))
    return p, width, draw(st.integers(0, 2 ** 16))


@DETERMINISTIC
@given(stage_cases())
def test_search_stages_counts_the_routes_drains(case):
    """``ops_successor.rides`` decides riding from ``search_stages``; over
    uniform keys it is the number of ``drain`` calls of a record-free
    Successor batch and of a full-recording search (no segment's keys
    share a gap, so no stage is settled without a message)."""
    p, width, seed = case
    sl = _searchable(p)
    machine = sl.machine
    rng = random.Random(seed)
    keys = [rng.randrange(-STRIDE, (64 * p + 1) * STRIDE)
            for _ in range(width)]
    drains = []
    drain = machine.drain

    def counted(*args, **kwargs):
        drains.append(1)
        return drain(*args, **kwargs)

    machine.drain = counted
    try:
        expected = search_stages(sl.struct, width)
        for search in (lambda: batch_successor(sl.struct, keys),
                       lambda: batch_search(sl.struct, keys,
                                            record_all=True)):
            drains.clear()
            search()
            assert len(drains) == expected
    finally:
        del machine.drain
