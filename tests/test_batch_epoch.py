"""Batch epochs: the cyclic collector is off the batch path, and stays off
it only because the batch path is acyclic.

Two halves.  The scope (:func:`repro.ops.batch_epoch`, entered by every
outermost ``run_batch``, a ``build`` included) pauses the interpreter's
cyclic collector and must hand it back exactly as it found it -- on
success, on an exception, across a failover, and when the caller had it
off already.  The teardown (``Node.clear_links`` after a batched Delete,
the contraction's index columns) must leave nothing for the paused
collector to miss: a churn of upserts and deletes leaves zero
unreachable structure objects behind.  A server tick is the same scope
one level out: the collector is off for the whole tick, back on for the
clients' code between ticks, and a serve session leaves no cyclic
garbage either.
"""

from __future__ import annotations

import asyncio
import gc
import random
from collections import Counter
from typing import Dict, Hashable, List, Optional, Tuple

import pytest

from repro import PIMMachine, PIMSkipList
from repro.ops import batch_epoch, run_batch
from repro.recovery import DegradedResult, RecoveryManager
from repro.serve import Refusal, Server, ServerConfig
from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec
from repro.structures.pimtree import PIMTree
from tests.test_list_contraction import Contracted

POINTER_SLOTS = ("left", "right", "up", "down", "local_left",
                 "local_right", "next_leaf", "up_chain")


@pytest.fixture
def collector():
    """The test starts with the collector on and leaves it on."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def _collector_state() -> tuple:
    return gc.isenabled(), gc.get_threshold()


def _skiplist(p: int = 8, n: int = 512) -> PIMSkipList:
    sl = PIMSkipList(PIMMachine(num_modules=p, seed=3))
    sl.build([(k * 20, k) for k in range(n)])
    return sl


def _probe(machine: PIMMachine, seen: List[bool], inner=None,
           fail: bool = False):
    """One echo round; records in ``seen`` the collector state observed
    from inside the batch, optionally runs an ``inner`` route first or
    fails after the round."""
    if inner is not None:
        run_batch(machine, "probe", inner)
    seen.append(gc.isenabled())
    replies = yield [(0, "probe:echo", (1,), None)]
    seen.append(gc.isenabled())
    if fail:
        raise RuntimeError("route failed mid-batch")
    return [r.payload for r in replies]


def _echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.reply(mid, x, tag)


def _echo_machine(machine: PIMMachine) -> PIMMachine:
    machine.register("probe:echo", _echo)
    return machine


# ---------------------------------------------------------------------------
# the scope


class TestCollectorIsHandedBack:
    def test_paused_inside_and_restored_on_success(self, collector):
        machine = _echo_machine(PIMMachine(num_modules=4, seed=1))
        before = _collector_state()
        seen: List[bool] = []
        assert run_batch(machine, "probe", _probe(machine, seen)) == [1]
        assert seen == [False, False]
        assert _collector_state() == before
        assert machine.batch_epochs == 1

    def test_restored_when_a_route_generator_raises(self, collector):
        machine = _echo_machine(PIMMachine(num_modules=4, seed=1))
        before = _collector_state()
        with pytest.raises(RuntimeError, match="mid-batch"):
            run_batch(machine, "probe", _probe(machine, [], fail=True))
        assert _collector_state() == before
        # and the machine is not stuck "inside" an epoch
        seen: List[bool] = []
        run_batch(machine, "probe", _probe(machine, seen))
        assert seen == [False, False] and gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, collector):
        gc.disable()
        before = _collector_state()
        sl = _skiplist()
        sl.batch_upsert([(5, "a"), (15, "b")])
        assert sl.batch_get([5, 15]) == ["a", "b"]
        machine = _echo_machine(sl.machine)
        with pytest.raises(RuntimeError):
            run_batch(machine, "probe", _probe(machine, [], fail=True))
        assert _collector_state() == before

    def test_nested_run_batch_does_not_reenable(self, collector):
        machine = _echo_machine(PIMMachine(num_modules=4, seed=1))
        inner: List[bool] = []
        outer: List[bool] = []
        run_batch(machine, "probe", _probe(
            machine, outer, inner=_probe(machine, inner)))
        assert inner == [False, False]
        # after the inner run_batch returned, still inside the outer one
        assert outer == [False, False]
        assert machine.batch_epochs == 1
        assert gc.isenabled()

    def test_restored_across_a_failover(self, collector):
        machines: List[PIMMachine] = []

        def standby() -> PIMSkipList:
            machines.append(PIMMachine(num_modules=8, seed=11))
            return PIMSkipList(machines[-1])

        sl = standby()
        sl.build([(k * 100, f"v{k}") for k in range(1, 41)])
        machines[0].install_fault_plan(FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=2, at_round=2),)), seed=0))
        manager = RecoveryManager(sl, standby, checkpoint_every=2)
        before = _collector_state()
        for op, payload in [("upsert", [(150, "x"), (4100, "y")]),
                            ("delete", [200, 300]),
                            ("get", [100, 150, 200, 4100])]:
            [result] = manager.run([(op, payload)])
            assert not isinstance(result, DegradedResult)
            assert _collector_state() == before
        assert result == ["v1", "x", None, "y"]
        assert manager.recoveries == 1  # ModuleCrashed inside a batch
        assert machines[0]._epoch_depth == 0

    def test_build_shares_the_scope(self, collector):
        machine = PIMMachine(num_modules=4, seed=1)
        sl = PIMSkipList(machine)
        seen: List[bool] = []
        real = machine.drain

        def spying_drain(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        machine.drain = spying_drain
        sl.build([(k, k) for k in range(64)])
        assert seen == [False, False] and gc.isenabled()  # its two stages
        assert machine.batch_epochs == 1
        tree = PIMTree(PIMMachine(num_modules=4, seed=1))
        tree.build([(k, k) for k in range(64)])
        assert tree.machine.batch_epochs == 1 and gc.isenabled()

    def test_scope_restores_when_its_body_raises(self, collector):
        machine = PIMMachine(num_modules=4, seed=1)
        with pytest.raises(KeyError):
            with batch_epoch(machine):
                with batch_epoch(machine):
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError("boom")
        assert gc.isenabled() and machine._epoch_depth == 0


def test_no_collection_starts_inside_a_wide_batch(collector):
    """One 2304-key ``batch_successor`` at P=64 / n=16384 (the
    ``batch_read_wide`` shape) keeps tens of thousands of tracked
    temporaries alive; none of it may reach the collector -- no
    collection of any generation while the epoch is open, and no
    generation-2 pass over the whole node graph on its account after."""
    sl = _skiplist(p=64, n=16384)
    machine = sl.machine
    assert sl.min_search_batch == 2304
    rng = random.Random(5)
    inside: List[int] = []
    around: List[int] = []

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            (inside if machine._epoch_depth else around).append(
                info["generation"])

    gc.collect()
    for _ in range(3):
        keys = [rng.randrange(16384 * 20) for _ in range(2304)]
        gc.callbacks.append(on_gc)
        try:
            got = sl.batch_successor(keys)
        finally:
            gc.callbacks.remove(on_gc)
        assert len(got) == 2304
    assert inside == []
    assert 2 not in around


def test_server_status_reports_the_runtime(collector):
    machines: List[PIMMachine] = []

    def standby() -> PIMSkipList:
        machines.append(PIMMachine(num_modules=4, seed=7))
        return PIMSkipList(machines[-1])

    sl = standby()
    sl.build([(i, i * 10) for i in range(0, 100, 2)])
    server = Server(sl, standby, ServerConfig())
    before = _collector_state()

    async def session():
        await server.start()
        got = await asyncio.gather(
            server.submit("a", "upsert", [(1, "one")]),
            server.submit("b", "get", [0, 2]),
            server.submit("a", "get", [1]))
        await server.stop()
        return got

    assert asyncio.run(session()) == [None, [0, 20], ["one"]]
    assert _collector_state() == before
    runtime = server.status()["runtime"]
    assert len(runtime["gc_collections"]) == 3
    assert all(isinstance(c, int) and c >= 0
               for c in runtime["gc_collections"])
    # the build + at least one epoch per served batch
    assert runtime["batch_epochs"] == machines[0].batch_epochs
    assert runtime["batch_epochs"] > server.batches_served >= 2
    # the upsert and the gets ran their point tasks in batch handlers
    assert sorted(runtime) == ["batch_epochs", "batches_per_tick",
                               "chunked_task_share", "gc_collections",
                               "ticks_by_kind"]
    # one write tick, then the two gets in one same-op tick
    assert runtime["ticks_by_kind"] == {"get": 1, "upsert": 1}
    assert runtime["batches_per_tick"] == 1.0
    machine = machines[0]
    assert 0 < machine.tasks_chunked <= machine.tasks_executed
    assert runtime["chunked_task_share"] \
        == machine.tasks_chunked / machine.tasks_executed


# ---------------------------------------------------------------------------
# the batch path is acyclic


def _unreachable_by_type(churn) -> Counter:
    """Run ``churn()`` with the collector off, then count what only a
    cyclic collection can reclaim, by type name."""
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        churn()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


def test_skiplist_churn_leaves_no_cyclic_garbage(collector):
    sl = _skiplist(p=32, n=8192)
    rng = random.Random(1)

    def churn() -> None:
        for cycle in range(10):
            keys = [k * 20 + 1 + cycle
                    for k in rng.sample(range(8192), 800)]
            sl.apply_batch("upsert", [(k, k) for k in keys])
            assert sl.apply_batch("get", keys) == keys
            sl.apply_batch("delete", keys)

    found = _unreachable_by_type(churn)
    assert found["Node"] == 0 and found["_CNode"] == 0, found
    assert sum(found.values()) == 0, found
    assert sl.size == 8192
    sl.check_integrity()


def test_pimtree_churn_leaves_no_cyclic_garbage(collector):
    tree = PIMTree(PIMMachine(num_modules=32, seed=3))
    tree.build([(k * 20, k) for k in range(8192)])
    rng = random.Random(1)

    def churn() -> None:
        for cycle in range(10):
            keys = [k * 20 + 1 + cycle
                    for k in rng.sample(range(8192), 800)]
            tree.apply_batch("upsert", [(k, k) for k in keys])
            assert tree.apply_batch("get", keys) == keys

    found = _unreachable_by_type(churn)
    assert sum(found.values()) == 0, found
    tree.check_integrity()


def test_a_freed_tower_holds_no_pointers():
    sl = _skiplist(p=8, n=2048)
    struct = sl.struct
    # a tower that crosses into the replicated upper part, and a short one
    tall = next(leaf for leaf in struct.iter_level(0)
                if leaf.has_upper and leaf.up_chain)
    short = next(leaf for leaf in struct.iter_level(0)
                 if not leaf.has_upper and not leaf.up_chain)
    towers = []
    for leaf in (tall, short):
        tower, x = [], leaf
        while x is not None:
            tower.append(x)
            x = x.up
        towers.append(tower)
    assert towers[0][-1].level >= struct.h_low and len(towers[1]) == 1
    # neighbors too, so runs of consecutive deleted nodes are covered
    keys = sorted({tall.key, tall.key + 20, tall.key + 40, short.key})
    sl.batch_delete(keys)
    for tower in towers:
        for node in tower:
            assert node.deleted
            assert [getattr(node, s) for s in POINTER_SLOTS] == \
                [None] * len(POINTER_SLOTS), node
    assert sl.batch_get(keys) == [None] * len(keys)
    sl.check_integrity()


# ---------------------------------------------------------------------------
# the serve tick: one epoch around a whole tick, none around client code


SERVE_KEYS = 512


def _serve_rig(kind: str) -> Server:
    """A fault-free server over ``SERVE_KEYS`` keys (stride 4)."""
    machines: List[PIMMachine] = []

    def standby():
        machines.append(PIMMachine(num_modules=8, seed=7))
        return (PIMSkipList if kind == "skiplist" else PIMTree)(machines[-1])

    structure = standby()
    structure.build([(k * 4, k) for k in range(SERVE_KEYS)])
    return Server(structure, standby, ServerConfig())


def _programs(clients: int, ops: int) -> List[list]:
    """Each client's ``(op, payload)`` stream: gets, successors and
    upserts of keys already present, so the structure does not grow."""
    programs = []
    for c in range(clients):
        rng = random.Random(c)
        program = []
        for _ in range(ops):
            key = 4 * rng.randrange(SERVE_KEYS)
            op = rng.choice(("get", "get", "successor", "upsert"))
            program.append(
                (op, [(key, c)] if op == "upsert" else [key, key + 3]))
        programs.append(program)
    return programs


async def _serve(server: Server, programs: List[list],
                 between: Optional[List[bool]] = None) -> int:
    """Start ``server``, run every program to its end, stop; returns how
    many requests were refused or degraded.  The client tasks exist
    before ``start`` and keep no answer, so what the server counts from
    there on is the session's steady state; ``between`` collects the
    collector state each client sees when its request resolves."""
    async def client(c: int) -> int:
        failed = 0
        for op, payload in programs[c]:
            answer = await server.submit(f"c{c}", op, payload)
            failed += isinstance(answer, (Refusal, DegradedResult))
            if between is not None:
                between.append(gc.isenabled())
        return failed

    tasks = [asyncio.ensure_future(client(c)) for c in range(len(programs))]
    gc.collect()
    await server.start()
    try:
        return sum(await asyncio.gather(*tasks))
    finally:
        await server.stop()


def _spy_ticks(server: Server) -> List[bool]:
    """Record the collector state each tick runs its batches under."""
    inside: List[bool] = []
    real = server._execute

    def execute(batches):
        inside.append(gc.isenabled())
        return real(batches)

    server._execute = execute
    return inside


class TestTheTickIsAnEpoch:
    def test_off_inside_a_tick_on_between_ticks_and_after_stop(
            self, collector):
        server = _serve_rig("skiplist")
        inside = _spy_ticks(server)
        between: List[bool] = []
        before = _collector_state()
        assert asyncio.run(_serve(server, _programs(8, 6), between)) == 0
        assert inside and not any(inside)
        assert len(between) == 48 and all(between)
        assert _collector_state() == before

    def test_handed_back_after_a_tick_that_raises(self, collector):
        server = _serve_rig("pimtree")
        inside = _spy_ticks(server)

        def broken(batch, tick):
            raise RuntimeError("tick failed")

        server.policy.execute = broken
        before = _collector_state()

        async def session():
            await server.start()
            future = server.submit("a", "get", [4])
            with pytest.raises(RuntimeError, match="tick failed"):
                await future   # failed through _abort_pending
            assert gc.isenabled()
            with pytest.raises(RuntimeError, match="tick failed"):
                await server.stop()

        asyncio.run(session())
        assert inside == [False]
        assert _collector_state() == before
        assert not server.status()["running"]

    def test_a_caller_who_had_it_off_keeps_it_off(self, collector):
        gc.disable()
        server = _serve_rig("pimtree")
        inside = _spy_ticks(server)
        between: List[bool] = []
        before = _collector_state()
        assert asyncio.run(_serve(server, _programs(8, 6), between)) == 0
        assert inside and not any(inside)
        assert between and not any(between)
        assert _collector_state() == before


@pytest.mark.parametrize("kind", ["skiplist", "pimtree"])
def test_a_serve_session_leaves_no_cyclic_garbage(collector, kind):
    server = _serve_rig(kind)
    programs = _programs(64, 8)
    loop = asyncio.new_event_loop()
    failed: List[int] = []
    try:
        found = _unreachable_by_type(lambda: failed.append(
            loop.run_until_complete(_serve(server, programs))))
    finally:
        loop.close()
    assert failed == [0]
    assert sum(found.values()) == 0, found
    assert server.status()["pending"] == 0
    server.manager.structure.check_integrity()


@pytest.mark.parametrize("kind", ["skiplist", "pimtree"])
def test_a_serve_session_runs_no_full_collection(collector, kind):
    """What a tick allocates dies inside it, so only client code between
    ticks feeds the collector: no full collection, and young ones far
    rarer than ticks.  With the collector running through the tick
    (every request's future, handle, request and slice alive across the
    yield, and a journal tuple per request) 256 clients run about one
    young collection a tick."""
    server = _serve_rig(kind)
    # asyncio's debug mode (``python -X dev``) keeps a traceback on
    # every future and handle: the loop's allocations, not the server's.
    assert asyncio.run(_serve(server, _programs(256, 64)), debug=False) == 0
    young, _middle, full = server.status()["runtime"]["gc_collections"]
    assert full == 0
    assert server.tick >= 64
    assert 4 * young < server.tick, (young, server.tick)


# ---------------------------------------------------------------------------
# list contraction: index columns, same coins


class _LinkedReference:
    """The doubly-linked-object contraction this repo shipped before the
    index columns: the reference for coin order, rounds and links."""

    class _N:
        def __init__(self, ident, marked):
            self.ident, self.marked = ident, marked
            self.left = self.right = None
            self.alive = True

    def __init__(self, chains) -> None:
        self.nodes = []
        for chain in chains:
            prev = None
            for ident, marked in chain:
                node = self._N(ident, marked)
                self.nodes.append(node)
                if prev is not None:
                    prev.right, node.left = node, prev
                prev = node

    def contract(self, rng: random.Random) -> Tuple[int, int, int]:
        live = [n for n in self.nodes if n.marked]
        rounds = work = spliced = 0
        while live:
            rounds += 1
            coins = {id(n): rng.getrandbits(1) for n in live}
            work += len(live)
            picked = []
            for n in live:
                if not coins[id(n)]:
                    continue
                lf = n.left
                if lf is not None and lf.marked and coins.get(id(lf), 0):
                    continue
                picked.append(n)
            for n in picked:
                if n.left is not None:
                    n.left.right = n.right
                if n.right is not None:
                    n.right.left = n.left
                n.alive = False
            spliced += len(picked)
            live = [n for n in live if n.alive]
        return rounds, work, spliced

    def links(self) -> List[Tuple[Hashable, Optional[Hashable]]]:
        out = [(n.ident, n.right.ident if n.right is not None else None)
               for n in self.nodes if not n.marked]
        for n in self.nodes:  # the reference is cyclic; the real one is not
            n.left = n.right = None
        return out


@pytest.mark.parametrize("seed", range(8))
def test_contraction_draws_the_same_coins_as_the_linked_version(seed):
    shape = random.Random(seed)
    chains, ident = [], 0
    for _ in range(shape.randrange(1, 6)):
        chain = []
        for _ in range(shape.randrange(1, 60)):
            chain.append((ident, shape.random() < 0.7))
            ident += 1
        chains.append(chain)
    ref = _LinkedReference(chains)
    ref_rng = random.Random(99)
    ref_stats = ref.contract(ref_rng)

    rng = random.Random(99)
    out = Contracted(chains, rng)
    assert (out.rounds, out.work, out.spliced) == ref_stats
    assert out.links == ref.links()
    # same number of draws, in the same order: the streams stay in step
    assert rng.getstate() == ref_rng.getstate()


def test_contraction_list_is_acyclic(collector):
    def churn() -> None:
        out = Contracted([[(0, False)] + [(i, True) for i in range(1, 400)]
                          + [(400, False)]], random.Random(0))
        assert out.links == [(0, 400), (400, None)]

    assert sum(_unreachable_by_type(churn).values()) == 0
