"""Parity of the chunked range traversal with the per-task oracle.

The tree range's six functions (``rng_root``, ``rng_boundary``,
``rng_chain``, ``rng_count``, ``rng_go``, ``rng_offset``) run as chunk
handlers on the engine (:class:`~repro.sim.machine.PIMMachine`) and one
row per task on :class:`~repro.sim.machine.ReferencePIMMachine`; one row
body per function serves both.  Each test runs the same ops on
one skip list on each side and requires, op by op, equal results,
equal ``MetricsDelta``, the same machine RNG state and no traversal
state left on any module -- and that the engine really ran the
traversal in chunks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro import PIMSkipList
from repro.core.ops_range import range_tree_single
from repro.sim.profiling import HandlerProfile
from repro.workloads import build_items
from tests.conftest import DETERMINISTIC, ENGINES

P = 8
STRIDE = 10
RNG_FNS = {f"skiplist:rng_{f}" for f in
           ("root", "boundary", "chain", "count", "go", "offset")}


def _pair(num_modules=P, n=300, stride=STRIDE, seed=42, **config):
    """The same skip list on the oracle and on the engine."""
    lists = []
    for engine in ("object", "columnar"):
        machine = ENGINES[engine](num_modules=num_modules, seed=seed,
                                  **config)
        sl = PIMSkipList(machine)
        sl.build(build_items(n, stride=stride))
        lists.append(sl)
    return lists


def _run(pair, op):
    """``op(sl)`` on both sides: equal results, per-op metrics and RNG
    state, no traversal state left; on the engine every task of the op
    ran in a batch handler.  Returns the result, the delta and the
    ``rng_*`` functions the engine ran."""
    seen = []
    for sl in pair:
        machine = sl.machine
        profile = HandlerProfile()
        machine.set_profiler(profile)
        before = machine.snapshot()
        tasks, chunked = machine.tasks_executed, machine.tasks_chunked
        result = op(sl)
        machine.set_profiler(None)
        delta = machine.delta_since(before).as_dict()
        for mid in range(machine.num_modules):
            assert sl.struct.mlocal(mid).range_ctx == {}
        seen.append((result, delta, machine.rng.getstate(),
                     machine.tasks_chunked - chunked,
                     machine.tasks_executed - tasks,
                     RNG_FNS & set(profile.calls)))
    (res_o, delta_o, rng_o, chunked_o, _, fns_o), \
        (res_c, delta_c, rng_c, chunked_c, tasks_c, fns_c) = seen
    assert res_o == res_c
    assert delta_o == delta_c
    assert rng_o == rng_c
    assert chunked_o == 0
    assert chunked_c == tasks_c
    assert fns_o == fns_c
    return res_c, delta_c, fns_c


def _disjoint(rng, count, hi, width):
    los = sorted(rng.sample(range(0, hi, 2 * width), count))
    return [(lo, lo + rng.randrange(width)) for lo in los]


@pytest.mark.parametrize("func,farg", [("read", None), ("count", None),
                                       ("set", 7), ("fetch_and_add", 3)])
def test_batched_funcs(func, farg):
    pair = _pair()
    rng = random.Random(3)
    ops = _disjoint(rng, 12, 3000, 120)
    res, _, fns = _run(pair, lambda sl: sl.batch_range(ops, func, farg))
    assert sum(r.count for r in res) > 24
    want = {"root", "chain", "count"} | (set() if func == "count"
                                         else {"go", "offset"})
    assert fns == {f"skiplist:rng_{f}" for f in want}
    # the mutation landed alike on both sides
    _run(pair, lambda sl: sl.batch_range(ops))


def test_overlapping_reads_and_counts():
    pair = _pair()
    ops = [(0, 900), (400, 1300), (450, 460), (1300, 1300), (2000, 2990)]
    for func in ("read", "count"):
        _run(pair, lambda sl: sl.batch_range(ops, func))


@pytest.mark.parametrize("func,farg", [("read", None), ("count", None),
                                       ("set", 1), ("fetch_and_add", -2)])
def test_single_range_runs_the_boundary_descent(func, farg):
    pair = _pair()
    for lo, hi in [(0, 2990), (15, 700), (1234, 1240), (2990, 5000)]:
        _, _, fns = _run(pair, lambda sl: range_tree_single(
            sl.struct, lo, hi, func, farg))
        assert "skiplist:rng_boundary" in fns


def test_empty_search_areas():
    pair = _pair()
    for ops in ([(5, 9)], [(5, 9), (3001, 4000)], [(-10, -1)]):
        res, _, _ = _run(pair, lambda sl: sl.batch_range(ops))
        assert all(r.count == 0 for r in res)
    res, _, _ = _run(pair, lambda sl: range_tree_single(sl.struct, 5, 9))
    assert res.count == 0
    empty = _pair(n=0)
    for func in ("read", "count"):
        _run(empty, lambda sl: sl.batch_range([(0, 100), (200, 300)], func))
        _run(empty, lambda sl: range_tree_single(sl.struct, 0, 100, func))


def test_towers_reaching_the_upper_part():
    """A range starting at an upper-part key: the side chain of the top
    lower level is that key's tower, which the root must not spawn a
    second time from the upper leaf."""
    pair = _pair()
    struct = pair[1].struct
    uppers = [u.key for u in struct.iter_level(struct.h_low)]
    assert len(uppers) >= 3
    ops = [(u, u + 40) for u in uppers[:3]]
    res, _, _ = _run(pair, lambda sl: sl.batch_range(ops))
    assert all(r.values[0][0] == lo for r, (lo, _) in zip(res, ops))
    for lo, hi in ops:
        _run(pair, lambda sl: range_tree_single(sl.struct, lo, hi))


def test_multi_group_go_passes():
    """A shared memory of 32 words fetches 16 results a group: the
    batch's go passes run in several groups, and take more rounds than
    under the default memory."""
    ops = _disjoint(random.Random(5), 8, 3000, 150)
    rounds = []
    for config in ({}, {"shared_memory_words": 32}):
        pair = _pair(**config)
        res, delta, fns = _run(pair, lambda sl: sl.batch_range(ops))
        assert sum(r.count for r in res) > 32
        assert "skiplist:rng_go" in fns
        rounds.append(delta["rounds"])
    assert rounds[1] > rounds[0]


def test_traced_traversal_runs_chunked_and_touches_as_the_oracle():
    """Access tracing chunks the traversal like a plain machine: op by
    op the engine equals the oracle built with the same config, and so
    do its access counts -- every in-range node once (its chain task)
    and the nodes the boundary descent walked."""
    pair = _pair(trace_accesses=True)
    for sl in pair:
        sl.machine.tracer.access.reset()
    res, _, fns = _run(pair, lambda sl: range_tree_single(sl.struct, 500,
                                                          900))
    assert res.count == 41 and "skiplist:rng_chain" in fns
    counts = []
    for sl in pair:
        base = sl.struct.sentinels[0].nid
        counts.append({nid - base: k for nid, k
                       in sl.machine.tracer.access.total_accesses().items()})
    assert counts[0] == counts[1]
    struct = pair[1].struct
    touched = pair[1].machine.tracer.access.total_accesses()
    lower = {n.nid: n for lvl in range(struct.h_low)
             for n in struct.iter_level(lvl)}
    in_range = {nid for nid, n in lower.items() if 500 <= n.key <= 900}
    assert {nid for nid in touched if nid in in_range} == in_range
    assert all(touched[nid] == 1 for nid in in_range)
    assert any(lower[nid].key < 500 for nid in touched if nid in lower)


@DETERMINISTIC
@given(num_modules=st.sampled_from([1, 2, 8, 64]),
       ops=st.lists(st.tuples(st.integers(-5, 130), st.integers(0, 30)),
                    min_size=1, max_size=6),
       func=st.sampled_from(["read", "count"]),
       single=st.booleans())
def test_engine_equals_oracle(num_modules, ops, func, single):
    pair = _pair(num_modules=num_modules, n=40, stride=3, seed=num_modules)
    ops = [(lo, lo + width) for lo, width in ops]
    if single:
        lo, hi = ops[0]
        _run(pair, lambda sl: range_tree_single(sl.struct, lo, hi, func))
    else:
        _run(pair, lambda sl: sl.batch_range(ops, func))
