"""Batches that share a tick: ``apply_group`` and the grouped tick of
``repro serve``.

The metamorphic half holds a group -- the PIM-tree's three reads, the
skip list's Upsert with Successor riders -- to the same batches run one
after another on an identically built machine: equal answers (and the
sequential oracle's), no more rounds.  Riding is decided from the widths
(``ops_successor.rides``), so the grid runs widths on both sides of
``P log P`` -- where the joint search would change its pivot spacing and
the keys stay apart -- for 8 <= P <= 64.  The serving half drives one
grouped tick end to end: one group call, one journal entry and one
demux per class, and in degraded mode stale answers for every read
class -- a write group's riders included, beside its refused write.
"""

import asyncio
import math
import random

import pytest

from repro import PIMMachine, PIMSkipList
from repro.core import ops_successor
from repro.recovery import TICK_GROUP, DegradedReason, DegradedResult, \
    RecoveryManager
from repro.serve import HealthMonitor, Refusal, RefusalReason, \
    ResiliencePolicy, Server
from repro.serve.coalesce import MergedBatch, TickGroup
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


def _writes(rng, top, successors, upserts):
    """The skip list's tick group: an Upsert of ``upserts`` fresh keys
    (the items sit on even keys) and its Successor riders."""
    return [
        ("upsert", [(k, -k) for k in rng.sample(range(1, top, 2), upserts)]),
        ("successor", [rng.randrange(top) for _ in range(successors)]),
    ]


def _group(build, rng, top, p, successors, width):
    """What one tick of ``build``'s structure may hand over: ``width``
    ranges beside Gets and Successors on the PIM-tree, an Upsert of
    ``width`` keys with Successor riders on the skip list."""
    if build is _skiplist:
        return _writes(rng, top, successors, width)
    return _reads(rng, top, p, successors, width)


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
@pytest.mark.parametrize("p,successors,width", list(_grid()))
def test_a_group_equals_its_batches_one_after_another(build, p, successors,
                                                      width):
    items = build_items(64 * p, stride=2)
    top = 2 * len(items)
    batches = _group(build, random.Random(p * successors + width), top,
                     p, successors, width)
    apart, together = build(p, items, 5), build(p, items, 5)
    want, sum_of = _measured(apart, lambda: [
        apart.apply_batch(op, payload) for op, payload in batches])
    got, group = _measured(together, lambda: together.apply_group(batches))
    assert got == want == SequentialOracle(items).apply_group(batches)
    assert group.rounds <= sum_of.rounds
    if not (build is _skiplist
            and ops_successor.rides(together.struct, width, successors)):
        return
    # Successor keys that ride cost the Upsert's search a stage at most
    # and save their own search's: fewer rounds, not just no more.
    assert group.rounds < sum_of.rounds
    assert group.io_time <= sum_of.io_time


def test_a_skiplist_group_that_does_not_ride_is_the_two_batches():
    """Keys that would push the Upsert's search onto the paper's pivot
    spacing stay apart: the group is then the Upsert batch and, after
    it, the Successor batch, model cost for model cost."""
    p, edge = 8, 24
    items = build_items(512, stride=2)
    upsert, keys = _writes(random.Random(3), 1024, edge, 4)
    assert not ops_successor.rides(_skiplist(p, items, 5).struct, 4, edge)
    apart, together = _skiplist(p, items, 5), _skiplist(p, items, 5)
    want, sum_of = _measured(apart, lambda: [apart.apply_batch(*upsert),
                                             apart.apply_batch(*keys)])
    got, group = _measured(together,
                           lambda: together.apply_group([upsert, keys]))
    assert got == want
    assert group == sum_of


@pytest.mark.parametrize("build", [_skiplist, _pimtree],
                         ids=["skiplist", "pimtree"])
def test_a_group_costs_the_same_on_the_reference_oracle(build):
    items = build_items(2048, stride=2)
    batches = _group(build, random.Random(11), 4096, 60, 9, 17)
    engine = build(16, items, 3)
    oracle = build(16, items, 3, machine_cls=ReferencePIMMachine)
    got, cost = _measured(engine, lambda: engine.apply_group(batches))
    want, reference = _measured(oracle, lambda: oracle.apply_group(batches))
    assert got == want
    assert cost == reference


@pytest.mark.parametrize("build", [_skiplist, _pimtree],
                         ids=["skiplist", "pimtree"])
def test_a_group_is_distinct_read_ops(build):
    """A group is distinct ops, at most one of them a write, and that
    one first."""
    structure = build(4, build_items(40, stride=2), 1)
    for bad in ([("get", [2]), ("upsert", [(3, 3)])],
                [("get", [2]), ("get", [4])],
                [("upsert", [(3, 3)]), ("delete", [2])]):
        with pytest.raises(ValueError, match="distinct ops"):
            structure.apply_group(bad)
    assert structure.apply_group([]) == []
    assert structure.apply_group(
        [("range", []), ("successor", [3]), ("get", [])]) \
        == [[], [(4, 4)], []]
    assert structure.apply_group([("range", [(1, 5)]), ("successor", [])]) \
        == [[[(2, 2), (4, 4)]], []]
    writes = [("upsert", [(3, "c")]), ("successor", [3, 5]), ("get", [3])]
    if build is _pimtree:
        # the PIM-tree's one tick group is its three reads
        with pytest.raises(ValueError, match="reads only"):
            structure.apply_group(writes)
        return
    assert structure.apply_group(writes) == [None, [(3, "c"), (6, 6)], ["c"]]


# -- the serving layer ------------------------------------------------------


def _server(build=_skiplist):
    return Server(build(4, build_items(200, stride=2), 7),
                  lambda: build(4, [], 7))


def _counting_runs(server):
    calls = []
    run = server.manager.run
    server.manager.run = lambda op, payload: (calls.append(op),
                                              run(op, payload))[1]
    return calls


def test_a_shared_read_tick_is_one_call_and_a_journal_entry_per_class():
    server = _server(build=_pimtree)
    calls = _counting_runs(server)

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
    # Oldest head first, then the rest of the group: one tick, and a's
    # successor behind its range rides it.
    assert [(e.tick, e.op) for e in server.journal] == [
        (1, "range"), (1, "get"), (1, "successor")]
    assert calls == [TICK_GROUP]
    assert server.batches_served == 3 and server.tick == 1
    runtime = server.status()["runtime"]
    assert runtime["ticks_by_kind"] == {"get+range+successor": 1}
    assert runtime["batches_per_tick"] == 3.0
    # the checkpoint cadence counts the group's items, not its batches
    assert server.manager._served_items == 3 + 2 + 1 + 1


def test_a_write_tick_journals_the_write_before_its_riders():
    """The skip list's Upsert + Successor tick: the write drains first
    and its riders -- a tenant's Successor behind its own Upsert
    included -- are answered as after it; a Successor ahead of its
    tenant's Upsert rides, and that Upsert waits for the next tick."""
    server = _server()
    calls = _counting_runs(server)
    logged = []
    note = server.manager._log_batch
    server.manager._log_batch = lambda op, payload: (
        logged.append((op, payload)), note(op, payload))[1]

    async def session():
        await server.start()
        got = await asyncio.gather(
            server.submit("a", "successor", [11]),
            server.submit("b", "upsert", [(11, "b")]),
            server.submit("b", "successor", [11, 398]),
            server.submit("a", "upsert", [(13, "a")]),
            server.submit("c", "get", [11]))
        await server.stop()
        return got

    assert asyncio.run(session()) == [
        [(11, "b")], None, [(11, "b"), (398, 398)], None, ["b"]]
    assert [(e.tick, e.op) for e in server.journal] == [
        (1, "upsert"), (1, "successor"), (2, "upsert"), (3, "get")]
    assert [s[1] for s in server.journal[1].slices] == ["a", "b"]
    assert calls == [TICK_GROUP, "upsert", "get"]
    # only the write parts are logged (and would reach the WAL)
    assert logged == [("upsert", [(11, "b")]), ("upsert", [(13, "a")])]
    assert server.status()["runtime"]["ticks_by_kind"] == {
        "get": 1, "successor+upsert": 1, "upsert": 1}


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
    group = TickGroup([
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
    assert all(isinstance(part, DegradedResult) and not part
               and part.reason is DegradedReason.STALE_READ
               for part in stale)
    # each class answered from the durable view (checkpoint + log)
    assert [part.value for part in stale] == [
        [(4, 4), None], [[(4, 4), (5, "five"), (6, 6), (8, 8)]]]
    assert policy.stats["stale_reads"] == 1
    # A group that holds a write is a mutating batch: the write is
    # refused, and its riders are read stale -- without the write, which
    # was never logged.
    writes = TickGroup([
        MergedBatch("upsert", [(7, 7)],
                    [(Request("a", "upsert", [(7, 7)]), 0, 1)]),
        MergedBatch("successor", [6, 7],
                    [(Request("b", "successor", [6, 7]), 0, 2)])])
    refused, rider = policy.execute(writes, tick=4)
    assert isinstance(refused, Refusal)
    assert refused.reason is RefusalReason.WRITE_UNAVAILABLE
    assert rider.reason is DegradedReason.STALE_READ
    assert rider.value == [(6, 6), (8, 8)]
    assert policy.stats["refused_writes"] == 1
    assert policy.stats["stale_reads"] == 2


def test_a_write_group_that_quiesces_answers_its_riders_stale():
    """The manager gives up on a group mid-batch: the write gets the
    manager's QUIESCED result, its riders the durable view's answers."""
    sl = _skiplist(4, build_items(50, stride=2), 7)
    manager = RecoveryManager(sl, lambda: _skiplist(4, [], 7))
    policy = ResiliencePolicy(manager, HealthMonitor())
    manager.run = lambda op, payload: manager._degrade(
        op, DegradedReason.QUIESCED, "no standby")
    writes = TickGroup([
        MergedBatch("upsert", [(7, 7)],
                    [(Request("a", "upsert", [(7, 7)]), 0, 1)]),
        MergedBatch("successor", [7],
                    [(Request("b", "successor", [7]), 0, 1)])])
    quiesced, rider = policy.execute(writes, tick=1)
    assert quiesced.reason is DegradedReason.QUIESCED
    assert quiesced.value is None
    assert rider.reason is DegradedReason.STALE_READ
    assert (rider.cause, rider.value) == ("no standby", [(8, 8)])
    assert policy.circuit_open


def test_an_open_circuit_refuses_the_write_and_reads_its_riders_stale():
    """Degraded mode's contract holds on a write tick: the Upsert gets a
    typed WRITE_UNAVAILABLE refusal and is never journaled, each rider a
    STALE_READ answer from the durable view."""
    server = _server()
    server.policy._trip(0, "test")
    server.policy._open_until = 10 ** 6

    async def session():
        await server.start()
        got = await asyncio.gather(
            server.submit("a", "upsert", [(11, "a")]),
            server.submit("b", "successor", [11, 398]),
            server.submit("c", "successor", [0]))
        await server.stop()
        return got

    write, first, second = asyncio.run(session())
    assert isinstance(write, Refusal)
    assert write.reason is RefusalReason.WRITE_UNAVAILABLE
    assert all(isinstance(r, DegradedResult)
               and r.reason is DegradedReason.STALE_READ
               for r in (first, second))
    assert (first.op, first.value) == ("successor", [(12, 12), (398, 398)])
    assert (second.op, second.value) == ("successor", [(2, 2)])
    assert server.status()["runtime"]["ticks_by_kind"] == {
        "successor+upsert": 1}
    assert [(e.op, e.kind) for e in server.journal] == [
        ("successor", "stale")]


def test_a_degraded_group_fans_out_per_class_and_request():
    server = _server(build=_pimtree)
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
