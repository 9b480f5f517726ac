"""Engine-vs-oracle parity of every structure and algorithm that
registers module functions.

Every module function is one batch body: on the engine
(:class:`~repro.sim.machine.PIMMachine`) a round's tasks of a function
run as one call over chunks, on the reference oracle
(:class:`~repro.sim.machine.ReferencePIMMachine`) each task runs the same
body over its one row.  For each registering class this runs one session
on both machines and requires equal results, an equal per-op
``MetricsDelta`` stream, equal per-function task counts, an equal final
snapshot and equal next draws of the machine's RNG; on the engine every
task runs chunked.  The skip list's session covers ``select`` /
``rank``, the broadcast range, deletes of towers that reach the upper
part and sentinel growth; the PIM-tree's its writes, deletes, shadow
promotions and integrity dump.  ``SESSIONS`` run together on one machine
are ``tests/test_fastpath.py``'s registration census.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import PIMGraph, PRAMEmulation, pim_sample_sort
from repro.algorithms.pram import native_prefix_sum
from repro.baselines import (FineGrainedSkipList, HashPartitionedMap,
                             RangePartitionedSkipList)
from repro.collectives import Collectives
from repro.core.skiplist import PIMSkipList
from repro.sim.chaos import build_schedule
from repro.sim.profiling import HandlerProfile
from repro.structures import PIMLSMStore, PIMPriorityQueue, PIMQueue
from repro.structures.pimtree import PIMTree
from tests.conftest import ENGINES

P = 8
ITEMS = [(k, -k) for k in range(0, 400, 5)]


def _skiplist(machine):
    sl = PIMSkipList(machine)
    sl.build(ITEMS[:6])
    top = sl.struct.top_level
    rng = random.Random(1)
    fresh = [(k, k) for k in rng.sample(range(1, 2000, 2), 300)]
    out = [sl.batch_upsert(fresh)]
    assert sl.struct.top_level > top  # the upsert grew the sentinels
    out += [sl.select(0), sl.select(150), sl.rank(1001),
            sl.range_broadcast(100, 900).values,
            sl.batch_range([(0, 300), (500, 520)]),
            sl.batch_delete([k for k, _ in fresh[::2]]),
            sl.batch_get([k for k, _ in fresh[:40]]),
            sl.batch_successor([k + 1 for k, _ in fresh[:40]])]
    sl.check_integrity()
    return out


def _pimtree(machine):
    tree = PIMTree(machine, leaf_size=4, fanout=4)
    tree.build(ITEMS)
    keys = [k for k, _ in ITEMS]
    out = [tree.apply_batch("get", [keys[7]] * 6 + keys[8:10])
           for _ in range(3)]  # hot: pulls, then shadow promotions
    out += [tree.apply_batch("upsert", [(k + 1, k) for k in keys[::3]]),
            tree.apply_batch("delete", keys[::4] + [3, 9999]),
            tree.apply_batch("successor", [k + 2 for k in keys[:30]]),
            tree.apply_batch("range", [(0, 120), (200, 260)])]
    tree.check_integrity()
    return out


def _lsm(machine):
    lsm = PIMLSMStore(machine, block_size=8, flush_threshold=40)
    lsm.build(ITEMS)
    lsm.batch_upsert([(k + 1, k) for k in range(0, 400, 7)])  # compacts
    lsm.batch_delete([5, 10, 15, 8])
    return [lsm.batch_get([0, 5, 8, 11, 395, 401]),
            lsm.batch_successor([1, 6, 200, 399, 1000]),
            lsm.batch_range([(0, 40), (100, 130)])]


def _fifo(machine):
    queue = PIMQueue(machine)
    queue.enqueue_batch(list(range(30)))
    out = [queue.dequeue_batch(12)]
    queue.enqueue_batch(["a", "b"])
    return out + [queue.dequeue_batch(40)]


def _priority_queue(machine):
    pq = PIMPriorityQueue(machine)
    pq.insert_batch([(p % 7, p) for p in range(40)])
    return [pq.peek_min(), pq.extract_min_batch(9), pq.extract_min_batch(5)]


def _baselines(machine):
    out = []
    for cls in (HashPartitionedMap, RangePartitionedSkipList):
        built = cls(machine)
        built.build(ITEMS)
        out += [built.apply_batch("get", [0, 5, 7, 395]),
                built.apply_batch("successor", [1, 6, 396, 1000]),
                built.apply_batch("upsert", [(7, 7), (401, 1)]),
                built.apply_batch("delete", [10, 401, 3]),
                built.apply_batch("range", [(0, 40), (300, 320)])]
    fg = FineGrainedSkipList(machine)
    fg.build(ITEMS)
    return out + [fg.apply_batch("get", [0, 5, 7, 395]),
                  fg.apply_batch("successor", [1, 6, 396, 1000])]


def _collectives(machine):
    coll = Collectives(machine)
    coll.scatter(list(range(P)))
    out = [coll.allreduce(lambda a, b: a + b, 0),
           coll.exscan(lambda a, b: a + b, 0)]
    coll.map_slots(lambda mid, slot: ([slot] * (mid % 3), 1 + mid))
    out += [coll.gather(),
            coll.alltoall([{(i + d) % P: [i, d] for d in range(1, 4)}
                           for i in range(P)]),
            coll.histogram(list(range(60)), lambda r: r * 7 % P)]
    return out


def _pram(machine):
    pram = PRAMEmulation(machine)
    return [pram.prefix_sum([float(i) for i in range(20)]),
            pram.read_many([3, 0, 19, 77]),
            native_prefix_sum(machine, [[float(i + mid) for i in range(5)]
                                        for mid in range(P)])]


def _sample_sort(machine):
    rng = random.Random(4)
    return pim_sample_sort(machine, [[rng.randrange(10 ** 6)
                                      for _ in range(60)]
                                     for _ in range(P)], seed=2)


def _bfs(machine):
    rng = random.Random(5)
    edges = [(rng.randrange(60), rng.randrange(60)) for _ in range(120)]
    graph = PIMGraph(machine, edges + [(100, 101)])
    return [graph.bfs(edges[0][0]), graph.connected_components()]


SESSIONS = {
    "skiplist": _skiplist,
    "pimtree": _pimtree,
    "lsm": _lsm,
    "fifo": _fifo,
    "priority_queue": _priority_queue,
    "baselines": _baselines,
    "collectives": _collectives,
    "pram": _pram,
    "sample_sort": _sample_sort,
    "bfs": _bfs,
}


def _run(session, engine, plan=None):
    machine = ENGINES[engine](num_modules=P, seed=11)
    if plan is not None:
        machine.install_fault_plan(build_schedule(plan, 1, P))
    stream = []
    machine.batch_observer = lambda op, delta: stream.append((op, delta))
    profile = HandlerProfile()
    machine.set_profiler(profile)
    results = session(machine)
    return {"results": results, "stream": stream,
            "snapshot": machine.snapshot().as_dict(),
            "tasks": profile.calls,
            "rng": [machine.rng.random() for _ in range(3)],
            "chunked": (machine.tasks_chunked, machine.tasks_executed),
            "faults": plan and machine._chaos.stats.as_dict()}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_engine_equals_the_oracle(name):
    ref = _run(SESSIONS[name], "object")
    eng = _run(SESSIONS[name], "columnar")
    assert eng["chunked"][0] == eng["chunked"][1] == ref["chunked"][1] > 0
    assert ref["chunked"][0] == 0
    for key in ("results", "stream", "snapshot", "tasks", "rng"):
        assert eng[key] == ref[key], key
    assert eng["stream"]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_engine_equals_the_oracle_under_a_fault_plan(name):
    """The same session under the ``mixed`` schedule (drops, dups,
    delays, corruption, a stall) from its first op: every task on the
    engine still runs chunked, and the engine equals the oracle --
    results, per-op stream, snapshot, task counts, RNG and the faults
    the plan fired."""
    ref = _run(SESSIONS[name], "object", "mixed")
    eng = _run(SESSIONS[name], "columnar", "mixed")
    assert eng["chunked"][0] == eng["chunked"][1] == ref["chunked"][1] > 0
    assert eng["faults"]["transmissions"] > 0
    for key in ("results", "stream", "snapshot", "tasks", "rng", "faults"):
        assert eng[key] == ref[key], key


def test_the_sessions_reach_every_ported_function():
    """The sessions above reach every function of these classes beyond
    the skip list's and the PIM-tree's own parity suites: each has tasks
    in the union of their profiles."""
    tasks: dict = {}
    for session in SESSIONS.values():
        tasks.update(_run(session, "columnar")["tasks"])
    want = (
        [f"skiplist:{fn}" for fn in (
            "ups_upper_link", "del_upper", "grow", "load_finish",
            "rng_bcast", "sel_begin", "sel_probe", "sel_rank", "sel_gather",
            "sel_end")]
        + [f"pimtree:{fn}" for fn in (
            "nd_store", "nd_pull", "sh_store", "sh_dump", "lf_store",
            "lf_write", "lf_del", "lf_pull")]
        + [f"lsm:blk_{fn}" for fn in (
            "store", "drop", "get", "succ", "scan", "dump")]
        + ["fifo:store", "fifo:take", "pimpq:local_prefix"]
        + [f"coll:{fn}" for fn in (
            "put", "get", "apply", "send_row", "recv_piece",
            "collect_inbox", "hist_count", "hist_flush")]
        + [f"hashpart:{fn}" for fn in (
            "get", "upsert", "delete", "lsucc", "range")]
        + [f"rangepart:{fn}" for fn in (
            "get", "upsert", "delete", "succ", "range")]
        + ["finegrained:step", "pram:write", "pram:read", "npsum:scan",
           "npsum:shift", "npsum:dump", "ssort:route", "ssort:merge",
           "graph:visit", "graph:reset"])
    assert len(want) == 55
    missing = [fn for fn in want if not tasks.get(fn)]
    assert not missing
