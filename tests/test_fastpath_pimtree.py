"""Parity of the PIM-tree's read kernels with the oracle.

``nd_step``, ``sh_step``, ``lf_get``, ``lf_succ`` and ``lf_scan`` are
each one kernel over a run of rows: on the engine
(:class:`~repro.sim.machine.PIMMachine`) their batch handlers run it
over a column chunk -- what a route's :class:`~repro.ops.Columns`
element of ``COLUMNS_CROSSOVER`` messages or more becomes -- or over a
row chunk, and on :class:`~repro.sim.machine.ReferencePIMMachine` their
slot handlers run it over one task's row.  Each test drives the same
messages into one tree on each, steps both in lockstep, and requires,
round by round, equal replies (as multisets), per-module work, ``h``,
messages and next-round staging -- ``tests/test_fastpath_writes.py``'s
harness.  The stores, writes, deletes and the two pulls stay in slots:
the CPU side sums the pull replies' non-integer ``log2`` charges in
arrival order, so their relative order must be the per-task loop's.
A Hypothesis property runs read groups op by op on both machines.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.ops import Columns
from repro.ops.pipeline import COLUMNS_CROSSOVER
from repro.ops.pipeline import _issue as issue_stage
from repro.sim.fastpath import COLS, ROWS
from repro.structures.pimtree import _LOG_WORK, PIMTree
from repro.workloads import build_items, same_successor_batch
from tests.conftest import DETERMINISTIC, ENGINES
from tests.test_fastpath import _assert_install_refused
from tests.test_fastpath_writes import (
    _chunked_fns,
    _lockstep,
    _norm,
    _norm_staging,
    _replies,
)

P = 8
STRIDE = 100
N = 300


@pytest.fixture
def pair():
    """The same 300-key tree on the oracle and on the engine, small
    nodes (three interior levels) and hot nodes promoted to shadow
    replicas by two replays of the same-successor adversary."""
    trees = []
    items = build_items(N, stride=STRIDE)
    adversary = same_successor_batch([k for k, _ in items], 24,
                                     random.Random(5))
    for engine in ("object", "columnar"):
        machine = ENGINES[engine](num_modules=P, seed=42, trace_rounds=True)
        tree = PIMTree(machine, leaf_size=4, fanout=4, promote_threshold=2)
        tree.build(items)
        for _ in range(2):
            tree.apply_batch("successor", list(adversary))
        trees.append(tree)
    obj, col = trees
    assert col.machine.columnar_active
    assert obj.shadows == col.shadows and col.shadows
    assert obj.machine.snapshot().as_dict() \
        == col.machine.snapshot().as_dict()
    return trees


def _issue(pair, messages_of):
    for tree in pair:
        tree.machine.send_all(messages_of(tree))
    return (tree.machine for tree in pair)


PROBES = [-5, 0, 70, 100, 9950, 15000, 15001, 29900, 29990, 50000]


class TestSteps:
    def test_nd_step(self, pair):
        obj, col = _issue(pair, lambda t: [
            (t.node_owner[nid], "pimtree:nd_step", (nid, key, qid), None)
            for qid, (nid, key) in enumerate(
                itertools.product(sorted(t.nodes), PROBES))])
        assert _chunked_fns(col) == {"pimtree:nd_step"}
        assert not col._staged
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked > 0

    def test_sh_step_on_any_replica(self, pair):
        """Shadow replicas answer wherever the spray lands them."""
        obj, col = _issue(pair, lambda t: [
            ((nid + qid) % P, "pimtree:sh_step", (nid, key, qid), qid)
            for nid in sorted(t.shadows)
            for qid, key in enumerate(PROBES)])
        assert _chunked_fns(col) == {"pimtree:sh_step"}
        assert _lockstep(obj, col) == 1


class TestLeaves:
    def _leaf_msgs(self, fn, args_of):
        return lambda t: [
            (t.leaf_owner[lid], f"pimtree:{fn}", args_of(lid, key, j), j)
            for j, (lid, key) in enumerate(itertools.product(
                sorted(t.leaf_owner)[::5], PROBES[::3]))]

    def test_lf_get_hits_and_misses(self, pair):
        obj, col = _issue(pair, self._leaf_msgs(
            "lf_get", lambda lid, key, j: (lid, key)))
        assert _chunked_fns(col) == {"pimtree:lf_get"}
        assert _lockstep(obj, col) == 1

    def test_lf_succ_including_past_the_last_item(self, pair):
        obj, col = _issue(pair, self._leaf_msgs(
            "lf_succ", lambda lid, key, j: (lid, key, j)))
        assert _chunked_fns(col) == {"pimtree:lf_succ"}
        assert _lockstep(obj, col) == 1

    def test_lf_scan_sizes_its_replies(self, pair):
        """Empty scans, partial scans and whole leaves: the reply's
        size is its item count, which both sides put into ``h``."""
        obj, col = _issue(pair, self._leaf_msgs(
            "lf_scan", lambda lid, key, j: (lid, key - 150 * (j % 3),
                                            key + 150 * (j % 4), j)))
        assert _chunked_fns(col) == {"pimtree:lf_scan"}
        assert _lockstep(obj, col) == 1

    def test_emptied_leaf(self, pair):
        for tree in pair:
            lid = sorted(tree.leaf_owner)[3]
            tree.machine.send(tree.leaf_owner[lid], "pimtree:lf_store",
                              (lid, ()))
            tree.machine.drain()
        obj, col = _issue(pair, lambda t: [
            (t.leaf_owner[lid], fn, args, None)
            for lid in [sorted(t.leaf_owner)[3]]
            for fn, args in (("pimtree:lf_get", (lid, 400)),
                             ("pimtree:lf_succ", (lid, 400, 0)),
                             ("pimtree:lf_scan", (lid, 0, 9900, 1)))])
        assert len(_chunked_fns(col)) == 3
        assert _lockstep(obj, col) == 1


class TestMixedRounds:
    def _mixed(self, t):
        msgs = []
        for qid, nid in enumerate(sorted(t.nodes)):
            msgs.append((t.node_owner[nid], "pimtree:nd_step",
                         (nid, PROBES[qid % len(PROBES)], qid), None))
            msgs.append((t.node_owner[nid], "pimtree:nd_pull", (nid,), None))
        for lid in sorted(t.leaf_owner)[::4]:
            msgs.append((t.leaf_owner[lid], "pimtree:lf_get", (lid, 500),
                         lid))
            msgs.append((t.leaf_owner[lid], "pimtree:lf_pull", (lid,), None))
        return msgs

    def test_pulls_keep_the_per_task_loops_order(self, pair):
        """One round of chunked steps and gets with slot-run pulls: the
        pulls reply first, in the oracle's relative order."""
        obj, col = _issue(pair, self._mixed)
        assert col._staged and _chunked_fns(col) == {"pimtree:nd_step",
                                                     "pimtree:lf_get"}
        assert _norm_staging(obj) == _norm_staging(col)
        got_obj, got_col = _replies(obj.step()), _replies(col.step())
        assert sorted(got_obj) == sorted(got_col)

        def pulls(got):
            return [r for r in got if r[2][0] in ("pull", "lpull")]

        assert pulls(got_col) == pulls(got_obj) != []
        assert got_col[:len(pulls(got_col))] == pulls(got_col)
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()
        assert obj.tracer.rounds[-1] == col.tracer.rounds[-1]
        assert 0 < col.tasks_chunked < col.tasks_executed

    def test_fault_plan_refused_with_read_chunks_pending(self, pair):
        """Installing a fault plan with read chunks and slot-run pulls
        pending raises and moves nothing; the round then runs chunked
        and equals the oracle's."""
        obj, col = _issue(pair, self._mixed)
        chunked_before = col.tasks_chunked
        _assert_install_refused(col, norm=_norm)
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked > chunked_before


def test_whole_ops_leave_equal_trees(pair):
    """The ops end to end, push, pull and shadow branches mixed as the
    descent mixes them: equal results, bit-equal metrics (``cpu_work``
    carries the pulls' non-integer charges) and equal contents."""
    rng = random.Random(9)
    keys = [k for k, _ in build_items(N, stride=STRIDE)]
    gets = [rng.choice(keys) + rng.randrange(2) for _ in range(48)]
    hot = [keys[7]] * 6 + [keys[7] + 1, keys[8], keys[9]]
    ranges = [(k, k + rng.randrange(1200)) for k in rng.sample(keys, 10)]
    fresh = [(k + 3, -k) for k in rng.sample(keys, 40)]
    results = []
    for tree in pair:
        results.append([
            tree.apply_batch("get", gets),
            tree.apply_batch("get", hot),
            tree.apply_batch("successor", [k + 1 for k in gets]),
            tree.apply_batch("range", ranges),
            tree.apply_batch("upsert", fresh),
            tree.apply_batch("delete",
                             [k for k, _ in fresh[::2]] + keys[:30]),
            tree.apply_batch("successor", keys[:40]),
            tree.apply_batch("range", [(0, 10 ** 6)]),
        ])
        tree.check_integrity()
    assert results[0] == results[1]
    obj, col = (tree.machine for tree in pair)
    assert obj.snapshot().as_dict() == col.snapshot().as_dict()
    assert obj.tracer.rounds == col.tracer.rounds
    assert pair[0].stats == pair[1].stats
    assert 0 < col.tasks_chunked < col.tasks_executed
    assert col.columnar_active


def _read_columns(tree, fn, n):
    """``n`` messages of one read function as ``(dests, columns)``,
    cycling over the tree's nodes (shadow replicas for ``sh_step``) or
    every fifth leaf and the probes: hits, misses, keys past a leaf's
    last item, scans of every width."""
    probes = itertools.cycle(PROBES)
    if fn in ("nd_step", "sh_step"):
        targets = itertools.cycle(sorted(
            tree.shadows if fn == "sh_step" else tree.nodes))
    else:
        targets = itertools.cycle(sorted(tree.leaf_owner)[::5])
    dests, cols = [], []
    for j in range(n):
        target, key = next(targets), next(probes)
        if fn == "sh_step":
            dests.append((target + j) % P)
        else:
            dests.append(tree.node_owner[target] if fn == "nd_step"
                         else tree.leaf_owner[target])
        cols.append({"nd_step": (target, key, j), "sh_step": (target, key, j),
                     "lf_get": (target, key), "lf_succ": (target, key, j),
                     "lf_scan": (target, key - 150 * (j % 3),
                                 key + 150 * (j % 4), j)}[fn])
    return dests, [list(col) for col in zip(*cols)]


READ_FNS = ("nd_step", "sh_step", "lf_get", "lf_succ", "lf_scan")
WIDTHS = (COLUMNS_CROSSOVER - 1, COLUMNS_CROSSOVER, COLUMNS_CROSSOVER + 1)


class TestColumnKernels:
    """Each read function as a column chunk on the engine and as rows
    on the oracle, at stages of 31, 32 and 33 messages."""

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("fn", READ_FNS)
    def test_send_cols_on_the_engine_rows_on_the_oracle(self, pair, fn, n):
        obj, col = (tree.machine for tree in pair)
        dests, cols = _read_columns(pair[0], fn, n)
        obj.send_all((dest, f"pimtree:{fn}", args, None)
                     for dest, args in zip(dests, zip(*cols)))
        col.send_cols(f"pimtree:{fn}", dests, cols)
        assert [ch.kind for ch in col._cq] == [COLS]
        before = col.tasks_chunked
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked - before == n

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("fn", READ_FNS)
    def test_a_columns_element_either_side_of_the_crossover(self, pair,
                                                            fn, n):
        """The driver issues a shorter element as rows and a longer one
        as a column chunk; the oracle gets the rows either way."""
        for tree in pair:
            dests, cols = _read_columns(tree, fn, n)
            issue_stage(tree.machine,
                        [Columns(f"pimtree:{fn}", dests, cols)])
        obj, col = (tree.machine for tree in pair)
        assert [ch.kind for ch in col._cq] == [
            COLS if n >= COLUMNS_CROSSOVER else ROWS]
        assert _lockstep(obj, col) == 1

    def test_all_five_beside_the_pulls(self, pair):
        """One round: the five functions as column chunks and both pulls
        as tagged rows; the pulls run first, in the oracle's order."""
        for tree in pair:
            stage = [(tree.node_owner[nid], "pimtree:nd_pull", (nid,), 0)
                     for nid in sorted(tree.nodes)[::3]]
            stage += [(tree.leaf_owner[lid], "pimtree:lf_pull", (lid,), 1)
                      for lid in sorted(tree.leaf_owner)[::7]]
            for fn in READ_FNS:
                stage.append(Columns(f"pimtree:{fn}",
                                     *_read_columns(tree, fn, 40)))
            issue_stage(tree.machine, stage)
        obj, col = (tree.machine for tree in pair)
        assert {ch.kind for ch in col._cq} == {COLS}
        got_obj, got_col = _replies(obj.step()), _replies(col.step())
        assert sorted(got_obj) == sorted(got_col)
        pulls = [r for r in got_obj if r[2][0] in ("pull", "lpull")]
        assert got_col[:len(pulls)] == pulls
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()
        assert obj.tracer.rounds[-1] == col.tracer.rounds[-1]


def test_log_work_table_is_the_log2_formula():
    """The kernels' per-size work comes from a table of the integers
    ``max(1, int(log2(n + 1)))`` they always charged."""
    sizes = list(range(1 << 16)) + [(1 << k) + d for k in range(16, 47)
                                    for d in (-2, -1, 0, 1)]
    for n in sizes:
        assert _LOG_WORK[(n + 1).bit_length()] \
            == max(1, int(math.log2(n + 1))), n


def _read_pair(num_modules):
    """A 120-key tree on the oracle and on the engine whose nodes over
    the lowest 40 keys are already shadowed: two Gets of them pulled
    those nodes twice."""
    trees = []
    items = build_items(120, stride=3)
    for engine in ("object", "columnar"):
        machine = ENGINES[engine](num_modules=num_modules, seed=num_modules)
        tree = PIMTree(machine, leaf_size=4, fanout=4, promote_threshold=2)
        tree.build(items)
        for _ in range(2):
            tree.apply_batch("get", [k for k, _ in items[:40]])
        trees.append(tree)
    assert trees[0].shadows == trees[1].shadows != set()
    return trees


def _same_op(pair, op):
    """``op(tree)`` on both machines: equal results, ``MetricsDelta``,
    tree counters and next RNG draw."""
    seen = []
    for tree in pair:
        machine = tree.machine
        before = machine.snapshot()
        result = op(tree)
        seen.append((result, machine.delta_since(before).as_dict(),
                     dict(tree.stats), machine.rng.random()))
    assert seen[0] == seen[1]


@DETERMINISTIC
@given(num_modules=st.sampled_from([1, 2, 8, 64]),
       emptied=st.tuples(st.integers(0, 360), st.integers(0, 60)),
       groups=st.lists(st.tuples(
           st.lists(st.integers(-5, 370), max_size=80),
           st.lists(st.integers(-5, 370), max_size=12),
           st.lists(st.tuples(st.integers(-5, 370), st.integers(0, 40)),
                    max_size=8)),
           min_size=1, max_size=4))
def test_read_groups_engine_equals_oracle(num_modules, emptied, groups):
    """Read groups of Get + Successor + Range, op by op: hot Gets pull
    leaves and nodes, repeated pulls promote shadow replicas, and a
    deleted run of keys leaves emptied leaves for Successor and Range
    to skip."""
    pair = _read_pair(num_modules)
    lo, width = emptied
    _same_op(pair, lambda t: t.batch_delete(list(range(lo, lo + width))))
    for gets, succ, ranges in groups:
        reads = [("get", gets), ("successor", succ),
                 ("range", [(a, a + w) for a, w in ranges])]
        _same_op(pair, lambda t: t.apply_group(reads))
    for tree in pair:
        tree.check_integrity()
