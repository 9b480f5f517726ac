"""Tests for :mod:`repro.sim.tracing`: round logs, access traces, and
the gated no-op paths the engine relies on for its fast path."""

from __future__ import annotations

import gc

import pytest

from repro.sim.machine import PIMMachine
from repro.sim.tracing import AccessTrace, RoundLog, Tracer
from tests.conftest import ENGINES


def _echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        if bct.tracing:
            bct.touch(mid, ("node", x))
        bct.reply(mid, x, tag)


def _touch_twice(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        if bct.tracing:
            bct.touch(mid, ("hot", 0))
            bct.touch(mid, ("hot", 0))
        bct.reply(mid, x, tag)


def _hop(bct, chunks):
    for mid, (hops_left,), _tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        if hops_left:
            bct.sent[mid] += 1
            bct.stage_rows("hop", [((mid + 1) % bct.num_modules,
                                    (hops_left - 1,), None, 1)])


class TestAccessTrace:
    def test_disabled_touch_is_noop(self):
        trace = AccessTrace(enabled=False)
        trace.touch("a")
        trace.end_round()
        assert trace.num_rounds == 0
        assert trace.max_contention() == 0
        assert trace.total_accesses() == {}

    def test_rounds_seal_in_order(self):
        trace = AccessTrace(enabled=True)
        trace.touch("a")
        trace.touch("a")
        trace.end_round()
        trace.touch("b", count=3)
        trace.end_round()
        assert trace.num_rounds == 2
        assert trace.round_counter(0) == {"a": 2}
        assert trace.round_counter(1) == {"b": 3}
        assert trace.max_contention_per_round() == [2, 3]
        assert trace.max_contention() == 3
        assert trace.max_contention(0, 1) == 2
        assert trace.total_accesses() == {"a": 2, "b": 3}

    def test_empty_rounds_count_as_zero_contention(self):
        trace = AccessTrace(enabled=True)
        trace.end_round()
        trace.touch("x")
        trace.end_round()
        assert trace.max_contention_per_round() == [0, 1]

    def test_reset(self):
        trace = AccessTrace(enabled=True)
        trace.touch("a")
        trace.end_round()
        trace.reset()
        assert trace.num_rounds == 0
        assert trace.total_accesses() == {}


class TestTracerOnMachine:
    def test_round_logs_record_engine_accounting(self):
        machine = PIMMachine(num_modules=4, seed=0)
        machine.register("echo", _echo)
        machine.send_all([(m, "echo", (m,), None) for m in range(4)])
        machine.drain()
        machine.send(0, "echo", (9,))
        machine.drain()
        logs = machine.tracer.rounds
        assert len(logs) == machine.metrics.rounds == 2
        assert all(isinstance(log, RoundLog) for log in logs)
        assert [log.index for log in logs] == [0, 1]
        # Round 0: one message in and one reply out per module -> 8
        # messages, h = 2 (in + out on each module), 4 tasks; round 1:
        # one message in, one reply out, 1 task.
        assert logs[0].messages == 8
        assert logs[0].h == 2
        assert logs[0].tasks_executed == 4
        assert logs[1].messages == 2
        assert logs[1].tasks_executed == 1
        assert logs[0].pim_work_max == 1.0

    def test_access_trace_orders_events_by_round(self):
        machine = PIMMachine(num_modules=4, seed=0, trace_accesses=True)
        machine.register("echo", _echo)
        machine.register("touch_twice", _touch_twice)
        machine.send_all([(m, "echo", (7,), None) for m in range(4)])
        machine.drain()
        machine.send_all([(m, "touch_twice", (m,), None) for m in range(3)])
        machine.drain()
        access = machine.tracer.access
        assert access.num_rounds == 2
        # Round 0: four tasks touched the same key once each.
        assert access.round_counter(0)[("node", 7)] == 4
        # Round 1: three tasks each touched the hot key twice.
        assert access.round_counter(1)[("hot", 0)] == 6
        assert access.max_contention_per_round() == [4, 6]
        assert access.total_accesses()[("node", 7)] == 4

    def test_tracing_disabled_records_nothing(self):
        machine = PIMMachine(num_modules=4, seed=0)
        machine.register("echo", _echo)
        machine.send(1, "echo", (5,))
        machine.drain()
        assert machine.tracer.access.num_rounds == 0
        assert machine.tracer.access.total_accesses() == {}

    def test_trace_rounds_off_still_seals_access_rounds(self):
        machine = PIMMachine(num_modules=4, seed=0, trace_rounds=False,
                             trace_accesses=True)
        machine.register("echo", _echo)
        machine.send(0, "echo", (1,))
        machine.drain()
        machine.send(0, "echo", (2,))
        machine.drain()
        assert machine.tracer.rounds == []
        assert machine.tracer.access.num_rounds == 2

    def test_tracer_reset_clears_both(self):
        machine = PIMMachine(num_modules=4, seed=0, trace_accesses=True)
        machine.register("echo", _echo)
        machine.send(0, "echo", (1,))
        machine.drain()
        machine.tracer.reset()
        assert machine.tracer.rounds == []
        assert machine.tracer.access.num_rounds == 0


class TestLemma42Style:
    def test_contention_bound_on_traced_skiplist_successor(self):
        """The trace is how tests verify Lemma 4.2's per-round access
        bound; exercise the wiring end to end on a real batch."""
        from tests.conftest import make_skiplist

        machine, sl, ref = make_skiplist(num_modules=8, n=128, seed=3,
                                         trace=True)
        machine.tracer.access.reset()
        keys = [k for k in range(500, 128_000, 4_000)]
        sl.batch_successor(keys)
        access = machine.tracer.access
        assert access.num_rounds > 0
        assert access.max_contention() >= 1
        assert sum(access.total_accesses().values()) > 0


class TestColumnarRoundLog:
    """The round log is five typed columns behind a record-shaped view:
    nothing per round for the garbage collector to walk."""

    @pytest.mark.parametrize("backend", list(ENGINES))
    def test_ten_thousand_rounds_add_no_gc_tracked_objects(self, backend):
        machine = ENGINES[backend](num_modules=4, seed=0)
        machine.register("hop", _hop)

        def drain_rounds(rounds: int) -> None:
            machine.send(0, "hop", (rounds - 1,))
            machine.drain()

        drain_rounds(64)  # handler tables, pools and lazy imports settle
        gc.collect()
        before = len(gc.get_objects())
        drain_rounds(10_000)
        gc.collect()
        after = len(gc.get_objects())
        assert len(machine.tracer.rounds) == machine.metrics.rounds == 10_064
        assert after - before <= 0

    def test_round_log_records_are_slotted(self):
        log = RoundLog(index=0, h=1, messages=2, pim_work_max=0.5,
                       tasks_executed=3)
        assert not hasattr(log, "__dict__")
        assert log == RoundLog(0, 1, 2, 0.5, 3)

    def _tracer(self, rounds: int = 5) -> Tracer:
        tracer = Tracer()
        for i in range(rounds):
            tracer.log_round(i, 2 * i, 3 * i, i / 2, i + 1)
        return tracer

    def test_view_len_index_and_negative_index(self):
        rounds = self._tracer().rounds
        assert len(rounds) == 5
        assert rounds[0] == RoundLog(0, 0, 0, 0.0, 1)
        assert rounds[3] == RoundLog(3, 6, 9, 1.5, 4)
        assert rounds[-1] == rounds[4] == RoundLog(4, 8, 12, 2.0, 5)
        with pytest.raises(IndexError):
            rounds[5]

    def test_view_slices_materialize_lists_of_records(self):
        rounds = self._tracer().rounds
        tail = rounds[3:]
        assert isinstance(tail, list)
        assert tail == [RoundLog(3, 6, 9, 1.5, 4), RoundLog(4, 8, 12, 2.0, 5)]
        assert [log.index for log in rounds[::2]] == [0, 2, 4]
        assert [log.index for log in rounds[-2:]] == [3, 4]
        assert rounds[5:] == []
        assert [log.index for log in rounds] == [0, 1, 2, 3, 4]
        assert [log.index for log in reversed(rounds)] == [4, 3, 2, 1, 0]

    def test_view_equality_and_emptiness(self):
        tracer = Tracer()
        assert tracer.rounds == []
        assert len(tracer.rounds) == 0
        tracer.log_round(0, 1, 1, 1.0, 1)
        assert tracer.rounds != []
        assert tracer.rounds == [RoundLog(0, 1, 1, 1.0, 1)]
        assert tracer.rounds == tracer.rounds
        tracer.reset()
        assert tracer.rounds == []

    def test_view_is_live_and_read_only(self):
        tracer = self._tracer(2)
        rounds = tracer.rounds
        tracer.log_round(2, 0, 0, 0.0, 0)
        assert len(rounds) == 3
        with pytest.raises(TypeError):
            rounds[0] = RoundLog(9, 9, 9, 9.0, 9)
        with pytest.raises(AttributeError):
            rounds.append(RoundLog(9, 9, 9, 9.0, 9))
