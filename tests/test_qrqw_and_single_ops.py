"""Tests for the queue-write contention variant and the single-op API."""

import random

import pytest

from repro import PIMMachine, PIMSkipList
from repro.baselines import naive_batch_successor
from repro.sim.config import MachineConfig
from repro.workloads import build_items, same_successor_batch
from tests.conftest import make_skiplist


class TestQRQWModel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(num_modules=2, contention_model="bogus")

    def test_hot_object_inflates_round_time(self):
        """A handler that queues 5 accesses on one local object per task
        but charges only 1 unit of work: under qrqw the object's queue
        length (not the charged work) bounds the round."""

        def toucher(bct, chunks):
            for mid, _args, _tag, _size in bct.rows(chunks):
                bct.work[mid] += 1
                if bct.tracing:
                    for _ in range(5):
                        bct.touch(mid, ("obj", mid))

        m = PIMMachine(num_modules=4, seed=0, contention_model="qrqw")
        m.register("t", toucher)
        for _ in range(10):
            m.send(1, "t", ())
        m.step()
        assert m.metrics.pim_time == 50  # queue of 50 at module 1's object

        m2 = PIMMachine(num_modules=4, seed=0)  # plain model
        m2.register("t", toucher)
        for _ in range(10):
            m2.send(1, "t", ())
        m2.step()
        assert m2.metrics.pim_time == 10  # only the charged work

    def test_qrqw_counters_reset_per_round(self):
        m = PIMMachine(num_modules=2, seed=0, contention_model="qrqw")

        def toucher(bct, chunks):
            for mid, _args, _tag, _size in bct.rows(chunks):
                bct.work[mid] += 1
                if bct.tracing:
                    bct.touch(mid, "x")

        m.register("t", toucher)
        for _ in range(3):
            m.send(0, "t", ())
            m.step()
        assert m.metrics.pim_time == 3  # 1 per round, no carry-over

    def test_naive_successor_worse_under_qrqw(self):
        """The §2.1 variant makes the naive batch's contention *visible
        in PIM time*, not just in IO."""
        results = {}
        for model in ("none", "qrqw"):
            machine = PIMMachine(num_modules=8, seed=11,
                                 contention_model=model)
            sl = PIMSkipList(machine)
            items = build_items(300, stride=10**6)
            sl.build(items)
            batch = same_successor_batch([k for k, _ in items], 96,
                                         random.Random(4))
            before = machine.snapshot()
            naive_batch_successor(sl.struct, batch)
            results[model] = machine.delta_since(before).pim_time
        assert results["qrqw"] >= results["none"]


class TestSingleOps:
    def test_get_update(self, built8):
        machine, sl, ref = built8
        assert sl.get(1000) == ref.get(1000)
        assert sl.get(999) is None
        assert sl.update(1000, -5) is True
        assert sl.get(1000) == -5
        assert sl.update(999, 0) is False

    def test_get_costs_two_messages(self, built8):
        machine, sl, _ = built8
        before = machine.snapshot()
        sl.get(1000)
        d = machine.delta_since(before)
        assert d.messages == 2 and d.rounds == 1

    def test_successor_predecessor(self, built8):
        _, sl, ref = built8
        for q in (999, 1000, 1001, -5, 10**9):
            assert sl.successor(q) == ref.successor(q)
            assert sl.predecessor(q) == ref.predecessor(q)

    def test_successor_messages_logarithmic(self):
        machine, sl, _ = make_skiplist(num_modules=16, n=2000, seed=12)
        before = machine.snapshot()
        sl.successor(123456)
        d = machine.delta_since(before)
        # O(log P) lower-part hops + done reply, nothing like log n
        assert d.messages < 4 * 4 + 8

    def test_upsert_delete_one(self, built8):
        _, sl, ref = built8
        assert sl.upsert(777, 7) is True     # new key
        assert sl.upsert(777, 8) is False    # update
        assert sl.get(777) == 8
        assert sl.delete(777) is True
        assert sl.delete(777) is False
        sl.check_integrity()

    def test_single_ops_on_empty_structure(self):
        machine = PIMMachine(num_modules=4, seed=13)
        sl = PIMSkipList(machine)
        assert sl.get(1) is None
        assert sl.successor(1) is None
        assert sl.predecessor(1) is None
        assert sl.delete(1) is False
        assert sl.upsert(1, 10) is True
        assert sl.get(1) == 10
