"""Tests for PIM module memory/work accounting and the batch-body
context."""

import pytest

from repro.sim.errors import LocalMemoryExceeded
from repro.sim.machine import PIMMachine
from repro.sim.module import PIMModule
from tests.conftest import ENGINES


class TestModuleMemory:
    def test_alloc_free_and_peak(self):
        mod = PIMModule(0)
        mod.alloc_words(100)
        mod.free_words(40)
        mod.alloc_words(10)
        assert mod.words_used == 70
        assert mod.words_peak == 100

    def test_negative_memory_rejected(self):
        mod = PIMModule(0)
        with pytest.raises(ValueError):
            mod.free_words(1)

    def test_enforcement(self):
        mod = PIMModule(0, local_memory_words=50, enforce=True)
        mod.alloc_words(50)
        with pytest.raises(LocalMemoryExceeded):
            mod.alloc_words(1)

    def test_tracked_but_not_enforced(self):
        mod = PIMModule(0, local_memory_words=50, enforce=False)
        mod.alloc_words(500)
        assert mod.words_used == 500


class TestModuleWork:
    def test_charge_accumulates(self):
        mod = PIMModule(0)
        mod.charge(3)
        mod.charge()
        assert mod.work == 4
        assert mod.round_work == 4


class TestReplayGuard:
    def test_first_delivery_is_true_once_per_seq(self):
        mod = PIMModule(0)
        assert mod.first_delivery(7)
        assert not mod.first_delivery(7)
        assert mod.first_delivery(8)

    def test_a_wipe_forgets_the_guard(self):
        m = PIMMachine(num_modules=2, seed=0)
        assert m.modules[1].first_delivery(3)
        m.wipe_module(1)
        assert m.modules[1].first_delivery(3)


class TestContext:
    """The batch body's context (:class:`repro.sim.fastpath.BatchRound`),
    on the engine and on the reference oracle: it behaves the same over
    chunks and over a slot task's one row."""

    def test_reply_and_forward_sizes(self):
        for machine_cls in ENGINES.values():
            m = machine_cls(num_modules=3, seed=0)

            def h(bct, chunks):
                for mid, _args, _tag, _size in bct.rows(chunks):
                    bct.reply(mid, "r", None, 2)
                    bct.sent[mid] += 3
                    bct.stage_rows("sink", [(2, (), None, 3)])

            def sink(bct, chunks):
                for mid, _args, _tag, _size in bct.rows(chunks):
                    bct.work[mid] += 1

            m.register("h", h)
            m.register("sink", sink)
            m.send(1, "h", ())
            m.step()
            # round 1: module 1 received 1, sent 2 (reply) + 3
            # (forward) = h=6
            assert m.metrics.io_time == 6
            m.step()
            # round 2: module 2 received 3
            assert m.metrics.io_time == 9

    def test_context_identity(self):
        for machine_cls in ENGINES.values():
            m = machine_cls(num_modules=5, seed=0)
            seen = {}

            def h(bct, chunks):
                for mid, _args, _tag, _size in bct.rows(chunks):
                    seen["mid"] = mid
                    seen["p"] = bct.num_modules

            m.register("h", h)
            m.send(3, "h", ())
            m.step()
            assert seen == {"mid": 3, "p": 5}

    def test_state_access(self):
        for machine_cls in ENGINES.values():
            m = machine_cls(num_modules=2, seed=0)
            m.modules[1].state["mystruct"] = {"x": 1}

            def h(bct, chunks):
                modules = bct.machine.modules
                for mid, _args, tag, _size in bct.rows(chunks):
                    bct.reply(mid, modules[mid].state["mystruct"]["x"], tag)

            m.register("h", h)
            m.send(1, "h", ())
            assert m.drain()[0].payload == 1

    def test_charge_through_work_and_module(self):
        """Work charged to ``bct.work`` and through the module's bound
        ``charge`` callback adds up, on a row and on a broadcast
        receiver alike."""
        for machine_cls in ENGINES.values():
            m = machine_cls(num_modules=3, seed=0)

            def h(bct, chunks):
                for mid, _args, _tag, _size in bct.rows(chunks):
                    bct.work[mid] += 2
                    bct.machine.modules[mid].charge(3)

            m.register("h", h)
            m.send(1, "h", ())
            m.step()
            m.broadcast("h", ())
            m.step()
            assert [mod.work for mod in m.modules] == [5.0, 10.0, 5.0]
            assert m.metrics.pim_time == 10.0
