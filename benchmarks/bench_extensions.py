"""Experiments EXT: the future-work extensions, measured.

- EXT-a: PIM sample sort is PIM-balanced and O(1)-round; the within-M
  CPU sort is communication-free (the intro's example).
- EXT-b: the §2.2 PRAM-emulation argument quantified -- an emulated
  prefix sum pays Theta(n log n) all-remote messages vs the native
  formulation's Theta(n/P + P)-IO pipeline.
- EXT-c: the batch FIFO queue has no hot tail module.
- EXT-d: the §2.1 queue-write variant -- naive batched search's hidden
  contention becomes visible in PIM time; the pivot algorithm is nearly
  unaffected.
"""

import itertools
import random

from repro import PIMMachine, PIMSkipList
from repro.algorithms import PRAMEmulation, pim_sample_sort, sort_within_cache
from repro.algorithms.pram import native_prefix_sum
from repro.baselines import naive_batch_successor
from repro.structures import PIMQueue
from repro.workloads import build_items, same_successor_batch

from conftest import log2i, measure, report


def test_ext_sample_sort(benchmark):
    rows = []
    for p in (8, 16, 32):
        n = 500 * p
        rng = random.Random(p)
        machine = PIMMachine(num_modules=p, seed=p)
        data = [rng.randrange(10 ** 9) for _ in range(n)]
        parts = [data[i::p] for i in range(p)]
        d = measure(machine,
                    lambda: pim_sample_sort(machine, parts, seed=p))
        rows.append([p, n, d.io_time, d.io_time / (n / p), d.rounds,
                     d.pim_balance_ratio])
    report(
        "EXT-a: PIM sample sort (n = 500 P)",
        ["P", "n", "IO time", "IO/(n/P)", "rounds", "balance"],
        rows,
        notes="O(n/P) whp IO, O(1) rounds, PIM-balanced; the final"
              " verification gather is included.",
    )
    for row in rows:
        assert row[3] < 8       # IO within a constant of n/P
        assert row[4] < 15      # O(1) rounds
        assert row[5] < 3.0

    # the intro's free-sorting claim: n <= M sorts with zero IO
    machine = PIMMachine(num_modules=16, seed=0)
    vals = list(range(1000))[::-1]
    d = measure(machine, lambda: sort_within_cache(machine, vals))
    assert d.io_time == 0 and d.messages == 0

    rng = random.Random(1)
    m2 = PIMMachine(num_modules=8, seed=1)
    data2 = [rng.randrange(10**9) for _ in range(2000)]
    parts2 = [data2[i::8] for i in range(8)]
    benchmark.pedantic(lambda: pim_sample_sort(m2, parts2, seed=1),
                       rounds=3, iterations=1)


def test_ext_pram_emulation_overhead(benchmark):
    rows = []
    p = 8
    for n in (32, 64, 128):
        rng = random.Random(n)
        vals = [rng.random() for _ in range(n)]
        expect = list(itertools.accumulate(vals))

        m1 = PIMMachine(num_modules=p, seed=n)
        d_em = measure(m1, lambda: PRAMEmulation(m1).prefix_sum(vals))

        m2 = PIMMachine(num_modules=p, seed=n)
        chunks = [vals[i * n // p:(i + 1) * n // p] for i in range(p)]
        d_nat = measure(m2, lambda: native_prefix_sum(m2, chunks))

        rows.append([n, d_em.messages, d_nat.messages,
                     d_em.messages / d_nat.messages,
                     d_em.io_time, d_nat.io_time])
    report(
        "EXT-b: PRAM-emulated vs native prefix sum (P=8)",
        ["n", "emulated msgs", "native msgs", "ratio", "emu IO",
         "native IO"],
        rows,
        notes="SS2.2: 'emulations are impractical because all accessed"
              " memory incurs maximal data movement' -- the ratio grows"
              " like log n.",
    )
    ratios = [r[3] for r in rows]
    assert ratios[0] > 4
    assert ratios[-1] > ratios[0]  # grows with n (the log n sweeps)

    benchmark(
        lambda: native_prefix_sum(
            PIMMachine(num_modules=8, seed=5),
            [[1.0] * 8 for _ in range(8)]))


def test_ext_fifo_queue_balance(benchmark):
    rows = []
    for p in (8, 32):
        machine = PIMMachine(num_modules=p, seed=p)
        q = PIMQueue(machine)
        b = p * 16
        d_enq = measure(machine, lambda: q.enqueue_batch(list(range(b))))
        d_deq = measure(machine, lambda: q.dequeue_batch(b))
        rows.append([p, b, d_enq.io_time, d_enq.io_time / (2 * b / p),
                     d_deq.io_time, d_enq.pim_balance_ratio])
    report(
        "EXT-c: batch FIFO queue (B = 16 P)",
        ["P", "B", "enqueue IO", "IO/(2B/P)", "dequeue IO", "balance"],
        rows,
        notes="sequence numbers hash to modules: no hot tail, h ~ 2B/P.",
    )
    for row in rows:
        assert row[3] < 4.0
        assert row[5] < 2.5
    machine = PIMMachine(num_modules=8, seed=77)
    q = PIMQueue(machine)

    def run():
        q.enqueue_batch(list(range(128)))
        q.dequeue_batch(128)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_ext_qrqw_variant(benchmark):
    """§2.1's queue-write variant, with a finding.

    For the skip-list algorithms the variant changes *nothing*: every
    access to a node charges at least one unit of work on the node's
    (single-core) module, so an object's per-round access queue can
    never exceed the module's round work -- the base model already
    prices PIM-side queueing.  We assert that equality.  The variant
    bites only when accesses outpace charged work, shown with a
    synthetic concurrent-write storm (5 queued accesses per charged
    unit).  The CPU-side shared-memory version of the variant is future
    work, exactly as the paper leaves it.
    """
    rows = []
    p = 16
    for model in ("none", "qrqw"):
        machine = PIMMachine(num_modules=p, seed=21,
                             contention_model=model)
        sl = PIMSkipList(machine)
        items = build_items(800, stride=10 ** 6)
        sl.build(items)
        batch = same_successor_batch([k for k, _ in items], p * 16,
                                     random.Random(21))
        d_naive = measure(machine,
                          lambda: naive_batch_successor(sl.struct, batch))
        d_pivot = measure(machine, lambda: sl.batch_successor(batch))
        rows.append([model, d_naive.pim_time, d_pivot.pim_time])

    # synthetic: accesses outpace charges 5:1
    synth = []
    for model in ("none", "qrqw"):
        m = PIMMachine(num_modules=4, seed=1, contention_model=model)

        def storm(bct, chunks):
            for mid, _args, _tag, _size in bct.rows(chunks):
                bct.work[mid] += 1
                if bct.tracing:
                    for _ in range(5):
                        bct.touch(mid, ("cell", mid))

        m.register("storm", storm)
        for _ in range(20):
            m.send(0, "storm", ())
        m.drain()
        synth.append([f"storm/{model}", m.metrics.pim_time, "-"])

    report(
        "EXT-d: the queue-write contention variant (P=16)",
        ["workload / model", "naive PIM time", "pivot PIM time"],
        rows + synth,
        notes="finding: with one core per module, PIM-side queue length"
              " <= charged round work for every skip-list operation, so"
              " qrqw == base there; it bites only when accesses outpace"
              " charges (synthetic rows: 5 accesses per work unit).",
    )
    base, qrqw = rows[0], rows[1]
    assert qrqw[1] == base[1]  # the finding: identical for the skip list
    assert qrqw[2] == base[2]
    assert synth[1][1] == 5 * synth[0][1]  # and 5x on the storm

    machine = PIMMachine(num_modules=8, seed=22, contention_model="qrqw")
    sl = PIMSkipList(machine)
    items = build_items(300, stride=10**6)
    sl.build(items)
    batch = same_successor_batch([k for k, _ in items], 64,
                                 random.Random(22))
    benchmark(lambda: sl.batch_successor(batch))
