"""M-enforcement honesty: the batched algorithms fit their stated M.

Table 1's "minimal M needed" column is only meaningful if the
implementation *declares* its CPU-side allocations.  These tests run
every batched operation with shared-memory enforcement ON at the
machine's default M = 32 P ceil(log2 P)^2 -- within the paper's
Theta(P log^2 P) -- and at canonical batch sizes, so any undeclared or
leaking allocation raises :class:`SharedMemoryExceeded`.
"""

import random

import pytest

from repro import PIMMachine, PIMSkipList
from repro.sim.errors import SharedMemoryExceeded
from repro.workloads import build_items, same_successor_batch


def enforced_machine(p, seed, m_words=None):
    return PIMMachine(num_modules=p, seed=seed,
                      shared_memory_words=m_words,
                      enforce_shared_memory=True)


@pytest.fixture
def enforced16():
    machine = enforced_machine(16, seed=60)
    sl = PIMSkipList(machine)
    items = build_items(1600, stride=10 ** 6)
    sl.build(items)
    return machine, sl, [k for k, _ in items]


class TestOperationsFitDefaultM:
    def test_get_fits(self, enforced16):
        machine, sl, keys = enforced16
        rng = random.Random(0)
        sl.batch_get([rng.choice(keys) for _ in range(16 * 4)])

    def test_successor_fits(self, enforced16):
        machine, sl, keys = enforced16
        rng = random.Random(1)
        batch = same_successor_batch(keys, 16 * 16, rng)
        sl.batch_successor(batch)
        sl.batch_successor([rng.randrange(10 ** 9)
                            for _ in range(16 * 16)])

    def test_upsert_fits(self, enforced16):
        machine, sl, keys = enforced16
        rng = random.Random(2)
        sl.batch_upsert([(rng.randrange(10 ** 12) * 2 + 1, 0)
                         for _ in range(16 * 16)])
        sl.check_integrity()

    def test_delete_fits(self, enforced16):
        machine, sl, keys = enforced16
        rng = random.Random(3)
        sl.batch_delete(rng.sample(keys, 16 * 16))
        sl.check_integrity()

    def test_ranges_fit(self, enforced16):
        machine, sl, keys = enforced16
        rng = random.Random(4)
        ops = []
        for _ in range(16 * 16):
            i = rng.randrange(len(keys) - 4)
            ops.append((keys[i], keys[i + 3]))
        sl.batch_range(ops, func="count")
        sl.range_broadcast(keys[0], keys[-1], func="count")

    def test_no_leak_across_batches(self, enforced16):
        """In-use shared memory returns to baseline after every batch."""
        machine, sl, keys = enforced16
        rng = random.Random(5)
        base = machine.metrics.shared_mem_in_use
        for _ in range(4):
            sl.batch_successor([rng.randrange(10 ** 9)
                                for _ in range(16 * 8)])
            assert machine.metrics.shared_mem_in_use == base
            sl.batch_upsert([(rng.randrange(10 ** 12) * 2 + 1, 0)
                             for _ in range(16 * 8)])
            assert machine.metrics.shared_mem_in_use == base


class TestTinyMFails:
    def test_successor_overflows_tiny_m(self):
        """With M far below Theta(P log^2 P), the pivot paths don't fit --
        the declared footprint is real, not decorative."""
        machine = enforced_machine(16, seed=61, m_words=64)
        sl = PIMSkipList(machine)
        sl.build(build_items(1600, stride=10 ** 6))
        rng = random.Random(6)
        with pytest.raises(SharedMemoryExceeded):
            sl.batch_successor([rng.randrange(10 ** 9)
                                for _ in range(16 * 16)])
