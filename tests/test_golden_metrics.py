"""Golden-metrics regression: the engine's accounting must never drift.

Each workload below is a deterministic seed scenario (fixed machine seed,
fixed key streams); for every measured operation the test compares
``MetricsDelta.as_dict()`` against checked-in golden values, exactly.
The golden file was generated with the pre-fast-path round engine, so a
pass here proves the optimized engine reports *identical* model metrics
-- any future perf work that silently changes the accounting fails here.

Beside the metrics, ``golden_ops.json`` pins, per workload, the ordered
names of the ops the pipeline driver reports to ``batch_observer``
(nested ops first): a renamed, dropped or doubled op fails here.

Regenerate both files (only when the model accounting or an op's name
intentionally changes)::

    PYTHONPATH=src python tests/test_golden_metrics.py --regen
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.baselines import HashPartitionedMap
from repro.collectives import Collectives
from repro.core.skiplist import PIMSkipList
from repro.recovery.checkpoint import Checkpoint, restore_structure
from repro.sim.machine import PIMMachine
from repro.structures import PIMLSMStore, PIMPriorityQueue, PIMQueue
from repro.structures.pimtree import PIMTree
from repro.workloads import same_successor_batch, zipf_batch

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "golden_metrics.json")
GOLDEN_OPS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                               "golden_ops.json")


def _measure(machine, label, fn, out):
    """Record ``fn``'s metric delta and the names of the ops it ran."""
    names = []
    machine.batch_observer = lambda name, _delta: names.append(name)
    try:
        before = machine.snapshot()
        fn()
        delta = machine.delta_since(before)
    finally:
        machine.batch_observer = None
    out[label] = (delta.as_dict(), names)


def _skiplist_workloads(out):
    p, n = 16, 512
    machine = PIMMachine(num_modules=p, seed=11)
    sl = PIMSkipList(machine, name="gold")
    rng = random.Random(101)
    keys = sorted(rng.sample(range(1, 50_000), n))
    _measure(machine, "skiplist/build",
             lambda: sl.build([(k, k * 3) for k in keys]), out)
    get_keys = [rng.choice(keys) if i % 2 == 0 else rng.randrange(50_000)
                for i in range(64)]
    _measure(machine, "skiplist/batch_get",
             lambda: sl.batch_get(get_keys), out)
    succ_keys = [rng.randrange(60_000) for _ in range(256)]
    _measure(machine, "skiplist/batch_successor",
             lambda: sl.batch_successor(succ_keys), out)
    upserts = [(rng.choice(keys), -1) if i % 3 == 0
               else (rng.randrange(50_000, 90_000), i)
               for i in range(256)]
    _measure(machine, "skiplist/batch_upsert",
             lambda: sl.batch_upsert(upserts), out)
    del_keys = [rng.choice(keys) for _ in range(128)]
    _measure(machine, "skiplist/batch_delete",
             lambda: sl.batch_delete(del_keys), out)
    # Batched tree ranges (§5.2): 16 pairwise-disjoint ops -- one
    # boundary search, one root per op -- then 16 nested / overlapping /
    # duplicated / shared-endpoint ops cut into at most 31 pieces.
    cuts = sorted(rng.sample(range(1, 90_000), 32))
    disjoint = list(zip(cuts[0::2], cuts[1::2]))
    _measure(machine, "skiplist/batch_range_tree_disjoint",
             lambda: sl.batch_range(disjoint), out)
    overlap = []
    for lo, hi in disjoint[:5]:
        mid = (lo + hi) // 2
        overlap += [(lo, hi), (lo, mid), (mid, hi)]
    overlap.append(overlap[0])
    _measure(machine, "skiplist/batch_range_tree_overlap",
             lambda: sl.batch_range(overlap), out)


def _skiplist_write_workloads(out):
    """The write path's interior: an Upsert whose new keys fall *between*
    stored ones (towers of every height from 0 past ``h_low``, so the
    recording search starts at the root and Algorithm 1 links runs
    inside old segments -- ``skiplist/batch_upsert`` above inserts past
    the last key only, where the squeeze settles every op), then a
    Delete of adjacent victims, whose contraction splices whole runs."""
    p, n = 16, 512
    machine = PIMMachine(num_modules=p, seed=13)
    sl = PIMSkipList(machine, name="goldw")
    rng = random.Random(707)
    keys = sorted(rng.sample(range(0, 50_000, 4), n))
    sl.build([(k, k) for k in keys])
    fresh = sorted(rng.sample(range(1, 50_000, 4), 192))
    upserts = ([(k, -k) for k in fresh]
               + [(rng.choice(keys), "u") for _ in range(16)])
    rng.shuffle(upserts)
    _measure(machine, "skiplist/batch_upsert_interleaved",
             lambda: sl.batch_upsert(upserts), out)
    new = set(fresh)
    heights = {sum(1 for _ in _tower(leaf)) - 1
               for leaf in sl.struct.iter_level(0) if leaf.key in new}
    assert set(range(sl.struct.h_low + 2)) <= heights, heights
    stored = sl.struct.keys_in_order()
    victims = (stored[40:72] + stored[100:103] + stored[300:301]
               + stored[500:560:2] + [3])
    rng.shuffle(victims)
    _measure(machine, "skiplist/batch_delete_runs",
             lambda: sl.batch_delete(victims), out)
    sl.struct.check_integrity()


def _tower(node):
    while node is not None:
        yield node
        node = node.up


def _restore_workloads(out):
    """A checkpoint of 512 sorted items restored into an empty skip
    list: its bulk load, lower nodes and upper part in one round, each
    module's table and next-leaf pointers in the next."""
    rng = random.Random(111)
    items = [(k, k * 5) for k in sorted(rng.sample(range(1, 50_000), 512))]
    machine = PIMMachine(num_modules=16, seed=29)
    sl = PIMSkipList(machine, name="goldr")
    _measure(machine, "skiplist/restore",
             lambda: restore_structure(Checkpoint("skiplist", "goldr", items),
                                       sl), out)
    sl.check_integrity()


def _search_boundary_workloads(out):
    """The width at which the search's pivot spacing switches, pinned on
    both sides: the same 512-key structure on a fresh machine twice, a
    Successor batch of ``P log P`` keys (pivots ``log^2 P`` apart) and
    the same batch plus one key (the paper's ``log P``)."""
    p, n = 16, 512
    rng = random.Random(808)
    keys = sorted(rng.sample(range(1, 50_000), n))
    edge = p * 4  # P log P
    succ_keys = [rng.randrange(60_000) for _ in range(edge + 1)]
    for label, width in (("p_log_p", edge), ("p_log_p_plus_1", edge + 1)):
        machine = PIMMachine(num_modules=p, seed=17)
        sl = PIMSkipList(machine, name="goldb")
        sl.build([(k, k) for k in keys])
        _measure(machine, f"skiplist/batch_successor_{label}",
                 lambda: sl.batch_successor(succ_keys[:width]), out)


def _baseline_workloads(out):
    p, n = 16, 400
    machine = PIMMachine(num_modules=p, seed=23)
    hp = HashPartitionedMap(machine)
    rng = random.Random(202)
    keys = sorted(rng.sample(range(1, 20_000), n))
    hp.build([(k, k) for k in keys])
    get_keys = [rng.choice(keys) if i % 2 == 0 else rng.randrange(20_000)
                for i in range(96)]
    _measure(machine, "hashpart/batch_get",
             lambda: hp.batch_get(get_keys), out)
    succ_keys = [rng.randrange(25_000) for _ in range(64)]
    _measure(machine, "hashpart/batch_successor",
             lambda: hp.batch_successor(succ_keys), out)


def _collective_workloads(out):
    p = 8
    machine = PIMMachine(num_modules=p, seed=31)
    coll = Collectives(machine)
    _measure(machine, "collectives/scatter",
             lambda: coll.scatter([[i] * (i % 3 + 1) for i in range(p)]), out)
    _measure(machine, "collectives/allreduce",
             lambda: coll.allreduce(lambda a, b: a + (b[0] if b else 0), 0),
             out)
    rng = random.Random(303)
    matrix = [{j: [i * p + j] * (rng.randrange(3) + 1)
               for j in range(p) if (i + j) % 3 != 0}
              for i in range(p)]
    _measure(machine, "collectives/alltoall",
             lambda: coll.alltoall(matrix), out)
    records = [rng.randrange(40) for _ in range(200)]
    _measure(machine, "collectives/histogram",
             lambda: coll.histogram(records, lambda r: r % p), out)


def _qrqw_workloads(out):
    """Lock qrqw round_touch accounting: a hot-key get batch where the
    effective round time is dominated by one object's access queue."""
    p, n = 8, 128
    machine = PIMMachine(num_modules=p, seed=47, contention_model="qrqw")
    sl = PIMSkipList(machine, name="goldq")
    rng = random.Random(404)
    keys = sorted(rng.sample(range(1, 5_000), n))
    sl.build([(k, k) for k in keys])
    hot = keys[n // 2]
    batch = [hot] * 24 + [rng.choice(keys) for _ in range(24)]
    _measure(machine, "qrqw/batch_get_hotkey",
             lambda: sl.batch_get(batch), out)
    _measure(machine, "qrqw/batch_successor",
             lambda: sl.batch_successor([rng.randrange(6_000)
                                         for _ in range(64)]), out)


def _structure_workloads(out):
    """Container structures on the unified pipeline: LSM (with one
    forced compaction), FIFO enqueue/dequeue, priority-queue extract."""
    p = 8
    machine = PIMMachine(num_modules=p, seed=59)
    lsm = PIMLSMStore(machine, name="goldlsm", block_size=16,
                      flush_threshold=10_000)
    rng = random.Random(505)
    pairs = [(k, k * 2) for k in sorted(rng.sample(range(1, 9_000), 300))]
    lsm.batch_upsert(pairs)
    _measure(machine, "lsm/compact", lsm.compact, out)
    get_keys = [rng.choice(pairs)[0] if i % 2 == 0
                else rng.randrange(9_000) for i in range(48)]
    _measure(machine, "lsm/batch_get",
             lambda: lsm.batch_get(get_keys), out)
    succ_keys = [rng.randrange(10_000) for _ in range(48)]
    _measure(machine, "lsm/batch_successor",
             lambda: lsm.batch_successor(succ_keys), out)

    machine_q = PIMMachine(num_modules=p, seed=61)
    fifo = PIMQueue(machine_q, name="goldfifo")
    items = [rng.randrange(1_000) for _ in range(96)]
    _measure(machine_q, "fifo/enqueue_batch",
             lambda: fifo.enqueue_batch(items), out)
    _measure(machine_q, "fifo/dequeue_batch",
             lambda: fifo.dequeue_batch(64), out)

    machine_pq = PIMMachine(num_modules=p, seed=67)
    pq = PIMPriorityQueue(machine_pq, name="goldpq")
    prios = [(rng.randrange(500), i) for i in range(128)]
    _measure(machine_pq, "pq/insert_batch",
             lambda: pq.insert_batch(prios), out)
    _measure(machine_pq, "pq/extract_min_batch",
             lambda: pq.extract_min_batch(48), out)


def _pimtree_workloads(out):
    """PIM-tree accounting across the skew spectrum: uniform and Zipf
    gets, the same-successor adversary twice (cold, then hot -- the
    second replay runs over promoted shadow subtrees, so its round and
    message counts pin the push-pull *and* shadow code paths), and a
    mutation wave that splits leaves under a shadowed node."""
    p, n = 16, 512
    machine = PIMMachine(num_modules=p, seed=71)
    tree = PIMTree(machine, leaf_size=8, fanout=4, promote_threshold=2)
    rng = random.Random(606)
    keys = sorted(rng.sample(range(1, 50_000), n))
    _measure(machine, "pimtree/build",
             lambda: tree.build([(k, k * 3) for k in keys]), out)
    get_uniform = [rng.choice(keys) if i % 2 == 0 else rng.randrange(50_000)
                   for i in range(64)]
    _measure(machine, "pimtree/batch_get_uniform",
             lambda: tree.apply_batch("get", get_uniform), out)
    get_zipf = zipf_batch(64, keys, alpha=1.5, seed=606)
    _measure(machine, "pimtree/batch_get_zipf",
             lambda: tree.apply_batch("get", get_zipf), out)
    adversary = same_successor_batch(keys, 64, random.Random(607))
    _measure(machine, "pimtree/batch_successor_samesucc_cold",
             lambda: tree.apply_batch("successor", list(adversary)), out)
    _measure(machine, "pimtree/batch_successor_samesucc_hot",
             lambda: tree.apply_batch("successor", list(adversary)), out)
    upserts = [(rng.choice(keys), -1) if i % 3 == 0
               else (rng.randrange(50_000, 90_000), i)
               for i in range(128)]
    _measure(machine, "pimtree/batch_upsert",
             lambda: tree.apply_batch("upsert", upserts), out)
    del_keys = [rng.choice(keys) for _ in range(64)]
    _measure(machine, "pimtree/batch_delete",
             lambda: tree.apply_batch("delete", del_keys), out)
    ranges = []
    for _ in range(32):
        lo = rng.randrange(90_000)
        ranges.append((lo, lo + rng.randrange(1, 2_000)))
    _measure(machine, "pimtree/batch_range",
             lambda: tree.apply_batch("range", ranges), out)
    tree.check_integrity()


def _read_group_workloads(out):
    """``apply_group`` on fresh machines (the rows above keep theirs): a
    Successor batch riding an Upsert's search on the skip list, and
    Get + Successor + Range on one descent of the PIM-tree."""
    p, n = 16, 512
    rng = random.Random(909)
    keys = sorted(rng.sample(range(1, 50_000), n))
    reads = [
        ("get", [rng.choice(keys) if i % 2 == 0 else rng.randrange(50_000)
                 for i in range(48)]),
        ("successor", [rng.randrange(60_000) for _ in range(12)]),
        ("range", [(lo, lo + rng.randrange(1, 600))
                   for lo in rng.sample(range(0, 50_000, 700), 24)]),
    ]
    machine = PIMMachine(num_modules=p, seed=19)
    sl = PIMSkipList(machine, name="goldg")
    sl.build([(k, k) for k in keys])
    writes = [("upsert", [(k, -k) for k in rng.sample(range(50_000), 24)]),
              reads[1]]
    _measure(machine, "skiplist/batch_write_group",
             lambda: sl.apply_group(writes), out)
    machine = PIMMachine(num_modules=p, seed=73)
    tree = PIMTree(machine, leaf_size=8, fanout=4, promote_threshold=2)
    tree.build([(k, k) for k in keys])
    _measure(machine, "pimtree/batch_read_group",
             lambda: tree.apply_group(reads), out)


def _compute() -> dict:
    out: dict = {}
    _skiplist_workloads(out)
    _skiplist_write_workloads(out)
    _restore_workloads(out)
    _search_boundary_workloads(out)
    _baseline_workloads(out)
    _collective_workloads(out)
    _qrqw_workloads(out)
    _structure_workloads(out)
    _pimtree_workloads(out)
    _read_group_workloads(out)
    return out


def compute_all() -> dict:
    return {label: metrics for label, (metrics, _ops) in _compute().items()}


def compute_ops() -> dict:
    return {label: ops for label, (_metrics, ops) in _compute().items()}


def test_golden_metrics_exact():
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    actual = compute_all()
    assert sorted(actual) == sorted(golden), "workload set changed"
    for label in golden:
        assert actual[label] == pytest.approx(golden[label], abs=0, rel=0), \
            f"metrics drifted for {label}"


def test_golden_op_names_exact():
    with open(GOLDEN_OPS_PATH) as f:
        golden = json.load(f)
    actual = compute_ops()
    assert sorted(actual) == sorted(golden), "workload set changed"
    for label in golden:
        assert actual[label] == golden[label], f"op names changed for {label}"


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        for path, table in ((GOLDEN_PATH, compute_all()),
                            (GOLDEN_OPS_PATH, compute_ops())):
            with open(path, "w") as f:
                json.dump(table, f, indent=2, sort_keys=True)
            print(f"wrote {path}")
    else:
        print(__doc__)
