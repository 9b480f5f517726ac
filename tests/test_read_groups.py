"""Read batches that share a traversal: ``apply_reads`` and the
shared-read tick of ``repro serve``.

The metamorphic half holds a group to the same batches run one after
another on an identically built machine: equal answers (and the
sequential oracle's), no more rounds.  Riding is decided from the widths
(``ops_range._rides``), so the grid runs widths on both sides of
``P log P`` -- where the joint search would change its pivot spacing and
the keys stay apart -- for 8 <= P <= 64.  The serving half drives one
shared-read tick end to end: one group call, one journal entry and one
demux per class, the group carried whole through degraded mode.
"""

import asyncio
import math
import random

import pytest

from repro import PIMMachine, PIMSkipList
from repro.core import ops_range
from repro.recovery import READ_GROUP, DegradedReason, DegradedResult, \
    RecoveryManager
from repro.serve import HealthMonitor, ResiliencePolicy, Server
from repro.serve.coalesce import MergedBatch, ReadGroup
from repro.serve.errors import Request
from repro.sim.machine import ReferencePIMMachine
from repro.structures.pimtree import PIMTree
from repro.verify.oracle import SequentialOracle
from repro.workloads import build_items


def _skiplist(p, items, seed, machine_cls=PIMMachine):
    sl = PIMSkipList(machine_cls(num_modules=p, seed=seed))
    sl.build(items)
    return sl


def _pimtree(p, items, seed, machine_cls=PIMMachine):
    tree = PIMTree(machine_cls(num_modules=p, seed=seed), leaf_size=8,
                   fanout=8)
    tree.build(items)
    return tree


def _reads(rng, top, gets, successors, ranges):
    """A group in the order a server tick may hand it over."""
    return [
        ("get", [rng.randrange(top) for _ in range(gets)]),
        ("successor", [rng.randrange(top) for _ in range(successors)]),
        ("range", [(lo, lo + 1 + rng.randrange(8))
                   for lo in rng.sample(range(0, top, 16), ranges)]),
    ]


def _measured(structure, call):
    before = structure.machine.snapshot()
    result = call()
    return result, structure.machine.delta_since(before)


def _grid():
    for p in (8, 16, 64):
        edge = p * int(math.log2(p))
        for successors in (1, edge // 4, edge - 1, edge + 1):
            for ranges in (2, edge // 4, edge - 1, edge + 1):
                yield p, successors, ranges


@pytest.mark.parametrize("build", [_skiplist, _pimtree],
                         ids=["skiplist", "pimtree"])
@pytest.mark.parametrize("p,successors,ranges", list(_grid()))
def test_a_group_equals_its_batches_one_after_another(build, p, successors,
                                                      ranges):
    items = build_items(64 * p, stride=2)
    top = 2 * len(items)
    reads = _reads(random.Random(p * successors + ranges), top,
                   p, successors, ranges)
    apart, together = build(p, items, 5), build(p, items, 5)
    want, sum_of = _measured(apart, lambda: [
        apart.apply_batch(op, payload) for op, payload in reads])
    got, group = _measured(together, lambda: together.apply_reads(reads))
    assert got == want == SequentialOracle(items).apply_reads(reads)
    assert group.rounds <= sum_of.rounds
    if not (build is _skiplist
            and ops_range._rides(together.struct, ranges, successors)):
        return
    # Successor keys that ride cost the boundary search a stage at most
    # and save their own search's: fewer rounds, not just no more.
    assert group.rounds < sum_of.rounds
    assert group.io_time <= sum_of.io_time


def test_a_skiplist_group_that_does_not_ride_is_the_two_batches():
    """Keys that would push the pieces onto the paper's pivot spacing
    stay apart: the group is then the Successor batch and the range
    batch, model cost for model cost."""
    p, edge = 8, 24
    items = build_items(512, stride=2)
    rng = random.Random(3)
    _, keys, ranges = _reads(rng, 1024, 0, edge, 4)
    assert not ops_range._rides(_skiplist(p, items, 5).struct, 4, edge)
    apart, together = _skiplist(p, items, 5), _skiplist(p, items, 5)
    _, sum_of = _measured(apart, lambda: [apart.apply_batch(*keys),
                                          apart.apply_batch(*ranges)])
    _, group = _measured(together,
                         lambda: together.apply_reads([ranges, keys]))
    assert group == sum_of


@pytest.mark.parametrize("build", [_skiplist, _pimtree],
                         ids=["skiplist", "pimtree"])
def test_a_group_costs_the_same_on_the_reference_oracle(build):
    items = build_items(2048, stride=2)
    reads = _reads(random.Random(11), 4096, 60, 9, 17)
    engine = build(16, items, 3)
    oracle = build(16, items, 3, machine_cls=ReferencePIMMachine)
    got, cost = _measured(engine, lambda: engine.apply_reads(reads))
    want, reference = _measured(oracle, lambda: oracle.apply_reads(reads))
    assert got == want
    assert cost == reference


@pytest.mark.parametrize("build", [_skiplist, _pimtree],
                         ids=["skiplist", "pimtree"])
def test_a_group_is_distinct_read_ops(build):
    structure = build(4, build_items(40, stride=2), 1)
    with pytest.raises(ValueError, match="distinct read ops"):
        structure.apply_reads([("get", [2]), ("upsert", [(3, 3)])])
    with pytest.raises(ValueError, match="distinct read ops"):
        structure.apply_reads([("get", [2]), ("get", [4])])
    assert structure.apply_reads([]) == []
    assert structure.apply_reads(
        [("range", []), ("successor", [3]), ("get", [])]) \
        == [[], [(4, 4)], []]
    assert structure.apply_reads([("range", [(1, 5)]), ("successor", [])]) \
        == [[[(2, 2), (4, 4)]], []]


# -- the serving layer ------------------------------------------------------


def _server(build=_skiplist):
    return Server(build(4, build_items(200, stride=2), 7),
                  lambda: build(4, [], 7))


def test_a_shared_read_tick_is_one_call_and_a_journal_entry_per_class():
    server = _server()
    calls = []
    run = server.manager.run
    server.manager.run = lambda op, payload: (calls.append(op),
                                              run(op, payload))[1]

    async def session():
        await server.start()
        got = await asyncio.gather(
            server.submit("a", "range", [(10, 14)]),
            server.submit("b", "successor", [11, 399]),
            server.submit("c", "get", [10]),
            server.submit("d", "range", [(0, 2), (398, 500)]),
            server.submit("a", "successor", [0]))
        await server.stop()
        return got

    assert asyncio.run(session()) == [
        [[(10, 10), (12, 12), (14, 14)]], [(12, 12), (400, 400)], [10],
        [[(2, 2)], [(398, 398), (400, 400)]], [(2, 2)]]
    # Oldest head first: tick 1 is range + successor (a's successor is
    # behind its range and rides the same tick), tick 2 the get.
    assert [(e.tick, e.op) for e in server.journal] == [
        (1, "range"), (1, "successor"), (2, "get")]
    assert calls == [READ_GROUP, "get"]
    assert server.batches_served == 3 and server.tick == 2
    runtime = server.status()["runtime"]
    assert runtime["ticks_by_kind"] == {"get": 1, "range+successor": 1}
    assert runtime["batches_per_tick"] == 1.5
    # the checkpoint cadence counts the group's items, not its batches
    assert server.manager._served_items == 3 + 3 + 1


def test_a_pimtree_tick_drains_all_three_read_classes():
    server = _server(build=_pimtree)

    async def session():
        await server.start()
        got = await asyncio.gather(
            server.submit("a", "get", [10, 11]),
            server.submit("b", "successor", [11]),
            server.submit("c", "upsert", [(11, "new")]),
            server.submit("d", "range", [(10, 14)]),
            server.submit("a", "get", [11]))
        await server.stop()
        return got

    # a's second get waits behind nothing of its own, so it rides tick 1
    # with the other reads; c's write is a tick of its own after them.
    assert asyncio.run(session()) == [
        [10, None], [(12, 12)], None, [[(10, 10), (12, 12), (14, 14)]],
        [None]]
    assert [(e.tick, e.op) for e in server.journal] == [
        (1, "get"), (1, "range"), (1, "successor"), (2, "upsert")]
    assert server.status()["runtime"]["ticks_by_kind"] == {
        "get+range+successor": 1, "upsert": 1}


def test_a_group_is_one_batch_to_the_policy_in_degraded_mode():
    sl = _skiplist(4, build_items(50, stride=2), 7)
    manager = RecoveryManager(sl, lambda: _skiplist(4, [], 7))
    policy = ResiliencePolicy(manager, HealthMonitor(), breaker_threshold=1,
                              cooldown_ticks=50)
    group = ReadGroup([
        MergedBatch("successor", [3, 999],
                    [(Request("a", "successor", [3, 999]), 0, 2)],
                    min_deadline=9),
        MergedBatch("range", [(4, 8)],
                    [(Request("b", "range", [(4, 8)]), 0, 1)],
                    min_deadline=7)])
    assert group.min_deadline == 7  # the tightest sub-deadline clamps
    live = policy.execute(group, tick=1)
    assert live == [[(4, 4), None], [[(4, 4), (6, 6), (8, 8)]]]
    manager.run("upsert", [(5, "five")])
    policy._trip(2, "test")
    stale = policy.execute(group, tick=3)
    assert isinstance(stale, DegradedResult) and not stale
    assert stale.reason is DegradedReason.STALE_READ
    # each class answered from the durable view (checkpoint + log)
    assert stale.value == [[(4, 4), None],
                           [[(4, 4), (5, "five"), (6, 6), (8, 8)]]]
    assert policy.stats["stale_reads"] == 1


def test_a_degraded_group_fans_out_per_class_and_request():
    server = _server()
    server.policy._trip(0, "test")
    server.policy._open_until = 10 ** 6

    async def session():
        await server.start()
        got = await asyncio.gather(
            server.submit("a", "range", [(10, 12)]),
            server.submit("b", "successor", [11]),
            server.submit("c", "successor", [13]))
        await server.stop()
        return got

    ranged, first, second = asyncio.run(session())
    assert all(isinstance(r, DegradedResult)
               and r.reason is DegradedReason.STALE_READ
               for r in (ranged, first, second))
    assert (ranged.op, ranged.value) == ("range", [[(10, 10), (12, 12)]])
    assert (first.op, first.value) == ("successor", [(12, 12)])
    assert (second.op, second.value) == ("successor", [(14, 14)])
    assert [(e.op, e.kind) for e in server.journal] == [
        ("range", "stale"), ("successor", "stale")]
