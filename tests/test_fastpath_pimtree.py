"""Parity of the PIM-tree's chunked read functions with the oracle.

``nd_step``, ``sh_step``, ``lf_get``, ``lf_succ`` and ``lf_scan`` run as
row chunk handlers on the engine (:class:`~repro.sim.machine.PIMMachine`)
and as per-task handlers on
:class:`~repro.sim.machine.ReferencePIMMachine`; one row body serves
both.  Each test drives the same messages into one tree on each, steps
both in lockstep, and requires, round by round, equal replies (as
multisets), per-module work, ``h``, messages and next-round staging --
``tests/test_fastpath_writes.py``'s harness.  The stores, writes,
deletes and the two pulls stay in slots: the CPU side sums the pull
replies' non-integer ``log2`` charges in arrival order, so their
relative order must be the per-task loop's.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.structures.pimtree import PIMTree
from repro.workloads import build_items, same_successor_batch
from tests.conftest import ENGINES
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
