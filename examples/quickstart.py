#!/usr/bin/env python
"""Quickstart: the PIM machine and the PIM-balanced skip list.

Builds a 16-module PIM machine, loads a skip list, runs one batch of each
operation type, and prints the model cost metrics (CPU work/depth, PIM
time, IO time, rounds) the paper analyzes -- measured, not derived.

Run:  python examples/quickstart.py
"""

import random

from repro import PIMMachine, PIMSkipList


def show(label, machine, before):
    d = machine.delta_since(before)
    print(f"{label:<28} io={d.io_time:7.0f}  pim={d.pim_time:7.0f}  "
          f"cpu_work={d.cpu_work:8.0f}  depth={d.cpu_depth:6.0f}  "
          f"rounds={d.rounds:4d}  balance={d.pim_balance_ratio:5.2f}")


def main():
    # A machine with P=16 PIM modules and the default M = 8 P log^2 P
    # words of CPU-side shared memory.
    machine = PIMMachine(num_modules=16, seed=7)
    sl = PIMSkipList(machine)

    # Initial data: a bulk load of sorted pairs into the empty list, one
    # charged op of two rounds and O(n/P) IO.
    sl.build((k, k * 10) for k in range(0, 100_000, 10))
    print(f"built skip list with {sl.size} keys on P={machine.num_modules}")
    print()

    rng = random.Random(0)
    stored = list(range(0, 100_000, 10))

    # --- batched point lookups (Theorem 4.1) -------------------------
    before = machine.snapshot()
    values = sl.batch_get([rng.choice(stored) for _ in range(64)])
    show("batch_get (64 keys)", machine, before)
    assert all(v is not None for v in values)

    # --- batched ordered queries (Theorem 4.3) -----------------------
    before = machine.snapshot()
    succs = sl.batch_successor([rng.randrange(100_000) for _ in range(256)])
    show("batch_successor (256 keys)", machine, before)

    # --- batched upsert: updates + inserts (Theorem 4.4) -------------
    before = machine.snapshot()
    stats = sl.batch_upsert(
        [(rng.choice(stored), -1) for _ in range(128)]
        + [(rng.randrange(100_000) * 10 + 5, 0) for _ in range(128)]
    )
    show("batch_upsert (256 pairs)", machine, before)
    print(f"    -> updated={stats.updated} inserted={stats.inserted}")

    # --- batched delete (Theorem 4.5) --------------------------------
    before = machine.snapshot()
    sl.batch_delete(rng.sample(stored, 256))
    show("batch_delete (256 keys)", machine, before)

    # --- range operations (Theorems 5.1 & 5.2) -----------------------
    before = machine.snapshot()
    big = sl.range_broadcast(10_000, 60_000, func="count")
    show("range_broadcast (K~5000)", machine, before)
    print(f"    -> counted {big.count} pairs in [10k, 60k]")

    before = machine.snapshot()
    small = sl.batch_range([(100, 400), (5_000, 5_300), (70_000, 70_200)])
    show("batch_range (3 small ops)", machine, before)
    print(f"    -> sizes {[r.count for r in small]}")

    # The structure can verify all its invariants at any time.
    sl.check_integrity()
    print("\nintegrity check passed; final size =", sl.size)


if __name__ == "__main__":
    main()
