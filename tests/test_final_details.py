"""Late-bound details: Table 1's Get M-column, send_all, and a full
multi-structure machine."""

import random

import pytest

from repro import PIMMachine, PIMSkipList
from repro.structures import PIMLSMStore, PIMPriorityQueue, PIMQueue
from repro.workloads import build_items


class TestGetMinimalM:
    def test_get_fits_theta_p_log_p(self):
        """Table 1 row 1's 'minimal M needed' is Theta(P log P) -- a full
        log-factor below the other rows.  Get batches must run inside an
        enforced M = 8 P log P cache."""
        p = 16
        machine = PIMMachine(num_modules=p, seed=0,
                             shared_memory_words=8 * p * 4,
                             enforce_shared_memory=True)
        sl = PIMSkipList(machine)
        items = build_items(800, stride=1000)
        sl.build(items)
        rng = random.Random(0)
        keys = [k for k, _ in items]
        for _ in range(3):
            sl.batch_get([rng.choice(keys) for _ in range(p * 4)])
            sl.batch_update([(rng.choice(keys), 1) for _ in range(p * 4)])
        assert machine.metrics.shared_mem_in_use == 0


class TestSendAll:
    def test_send_all_batches_messages(self):
        machine = PIMMachine(num_modules=4, seed=0)

        def echo(bct, chunks):
            for mid, (x,), tag, _size in bct.rows(chunks):
                bct.work[mid] += 1
                bct.reply(mid, x, tag)

        machine.register("echo", echo)
        machine.send_all([(i % 4, "echo", (i,), i) for i in range(12)])
        replies = machine.drain()
        assert sorted(r.payload for r in replies) == list(range(12))
        assert sorted(r.tag for r in replies) == list(range(12))


class TestFullHouse:
    def test_five_structures_share_one_machine(self):
        """Two skip lists, an LSM store, a FIFO, and a priority queue on
        one machine: namespaced handlers and per-structure state must not
        interfere, and metrics accumulate coherently."""
        machine = PIMMachine(num_modules=8, seed=77)
        a = PIMSkipList(machine, name="sl-a")
        b = PIMSkipList(machine, name="sl-b")
        lsm = PIMLSMStore(machine, name="store", block_size=16,
                          flush_threshold=64)
        fifo = PIMQueue(machine, name="q")
        pq = PIMPriorityQueue(machine, name="pq")

        items = build_items(120, stride=20)
        a.build(items)
        b.build([(k, -v) for k, v in items])
        lsm.batch_upsert(items)
        lsm.compact()
        fifo.enqueue_batch([k for k, _ in items[:40]])
        pq.insert_batch([(v, k) for k, v in items[:40]])

        rng = random.Random(77)
        keys = [k for k, _ in items]
        ref_a = dict(items)
        ref_b = {k: -v for k, v in items}
        ref_l = dict(items)
        for _ in range(4):
            probe = rng.sample(keys, 12)
            assert a.batch_get(probe) == [ref_a.get(k) for k in probe]
            assert b.batch_get(probe) == [ref_b.get(k) for k in probe]
            assert lsm.batch_get(probe) == [ref_l.get(k) for k in probe]
            a.batch_delete(probe[:3])
            for k in probe[:3]:
                ref_a.pop(k, None)
            b.batch_upsert([(probe[0], 999)])
            ref_b[probe[0]] = 999
            fifo.dequeue_batch(5)
            pq.extract_min_batch(4)
        a.check_integrity()
        b.check_integrity()
        pq.sl.check_integrity()
        assert machine.metrics.shared_mem_in_use == 0
        assert machine.metrics.io_time > 0

    def test_structures_see_only_their_own_keys(self):
        machine = PIMMachine(num_modules=4, seed=78)
        a = PIMSkipList(machine, name="x1")
        b = PIMSkipList(machine, name="x2")
        a.build([(1, "a")])
        assert b.batch_get([1]) == [None]
        assert b.batch_successor([0]) == [None]
        b.batch_upsert([(1, "b")])
        assert a.batch_get([1]) == ["a"]
        assert b.batch_get([1]) == ["b"]
        a.batch_delete([1])
        assert b.batch_get([1]) == ["b"]
