#!/usr/bin/env python
"""Writing your own PIM-model algorithm against the machine API.

The simulator is a general substrate, not just the skip list's: this
example implements a *PIM-balanced histogram* from scratch -- the
"scatter by hash, aggregate locally, reduce on the CPU" pattern -- and
measures whether it meets the paper's PIM-balance definition
(PIM time = O(W/P), IO time = O(I/P)).

It also shows the model's sharp edge: the same histogram computed with
*range-partitioned* buckets (contiguous bucket blocks per module)
collapses under a skewed input, exactly like §2.2's range-partitioning
argument.

Run:  python examples/custom_pim_algorithm.py
"""

import random
from collections import Counter

from repro import PIMMachine
from repro.balls.hashing import KeyLevelHash

P = 16
BUCKETS = 512


def build_histogram(machine, placement, records):
    """Scatter `records` to modules by `placement(bucket)`, count locally,
    gather per-module partial counts.

    A module function is one *batch body* ``body(bct, chunks)``: it runs
    all of a round's tasks for its function, reading each task's
    ``(module id, args, tag, size)`` row and charging work, replies and
    forwards to the executing module through ``bct``."""
    modules = machine.modules

    def count(bct, chunks):
        for mid, (bucket,), _tag, _size in bct.rows(chunks):
            modules[mid].state.setdefault("hist", Counter())[bucket] += 1
            bct.work[mid] += 1

    def collect(bct, chunks):
        for mid, _args, tag, _size in bct.rows(chunks):
            counts = modules[mid].state.get("hist", Counter())
            bct.work[mid] += len(counts) + 1
            bct.reply(mid, dict(counts), tag, max(1, len(counts)))

    machine.register("hist_count", count)
    machine.register("hist_collect", collect)

    # Scatter: one message per record to its bucket's module.
    for bucket in records:
        machine.send(placement(bucket), "hist_count", (bucket,))
    machine.drain()

    # Gather: every module returns its partial histogram.
    machine.broadcast("hist_collect", ())
    total = Counter()
    for r in machine.drain():
        total.update(r.payload)
    machine.cpu.charge(sum(len(r) for r in [total]) + BUCKETS, 16)
    return total


def run(workload_name, records):
    print(f"== workload: {workload_name} ({len(records)} records) ==")
    # Placement A: buckets spread by a seeded hash.
    m_hash = PIMMachine(num_modules=P, seed=5)
    hasher = KeyLevelHash(P, seed=99)
    before = m_hash.snapshot()
    h1 = build_histogram(m_hash, lambda b: hasher.module_of(b), records)
    d1 = m_hash.delta_since(before)

    # Placement B: contiguous bucket blocks per module (range style).
    m_block = PIMMachine(num_modules=P, seed=5)
    per = BUCKETS // P
    before = m_block.snapshot()
    h2 = build_histogram(m_block, lambda b: min(b // per, P - 1), records)
    d2 = m_block.delta_since(before)

    assert h1 == h2  # same histogram either way
    for name, d in (("hashed buckets", d1), ("block buckets", d2)):
        w, i = d.pim_work_total, d.messages
        print(f"  {name:<15} io={d.io_time:7.0f} (I/P={i / P:7.0f})  "
              f"pim={d.pim_time:7.0f} (W/P={w / P:7.0f})  "
              f"balance={d.pim_balance_ratio:5.2f}")
    print()


def main():
    rng = random.Random(0)
    uniform = [rng.randrange(BUCKETS) for _ in range(4000)]
    # Skewed: 90% of records fall in one block of 32 buckets.
    skewed = [
        rng.randrange(32) if rng.random() < 0.9 else rng.randrange(BUCKETS)
        for _ in range(4000)
    ]
    run("uniform", uniform)
    run("skewed (hot block)", skewed)
    print("PIM-balance (paper SS2.1): an algorithm is PIM-balanced when")
    print("PIM time ~ W/P and IO time ~ I/P -- the hashed placement stays")
    print("balanced under skew; the block placement does not.")


if __name__ == "__main__":
    main()
