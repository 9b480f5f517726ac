"""Tests for :mod:`repro.sim.profiling`: wall timers, throughput probes
and per-handler attribution (the opt-in instrumentation of the
simulator itself, as opposed to the model metrics)."""

from __future__ import annotations

import time

from repro.sim.machine import PIMMachine
from repro.sim.profiling import (
    HandlerProfile,
    ThroughputProbe,
    WallTimer,
)


def _work(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x, tag)


def _slow(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        time.sleep(0.002)
        bct.reply(mid, x, tag)


def _machine() -> PIMMachine:
    machine = PIMMachine(num_modules=4, seed=0)
    machine.register("work", _work)
    machine.register("slow", _slow)
    return machine


class TestWallTimer:
    def test_measures_elapsed_time(self):
        with WallTimer() as t:
            time.sleep(0.005)
        assert t.elapsed >= 0.004

    def test_elapsed_zero_before_use(self):
        assert WallTimer().elapsed == 0.0


class TestThroughputProbe:
    def test_counts_tasks_and_rounds(self):
        machine = _machine()
        with ThroughputProbe(machine) as probe:
            machine.send_all([(m, "work", (m,), None) for m in range(4)])
            machine.drain()
            machine.send(0, "work", (1,))
            machine.drain()
        assert probe.tasks == 5
        assert probe.rounds == 2
        assert probe.seconds > 0
        assert probe.tasks_per_sec > 0
        assert probe.rounds_per_sec > 0

    def test_excludes_work_outside_region(self):
        machine = _machine()
        machine.send(0, "work", (1,))
        machine.drain()
        with ThroughputProbe(machine) as probe:
            pass
        assert probe.tasks == 0
        assert probe.rounds == 0
        assert probe.tasks_per_sec == 0.0
        assert probe.rounds_per_sec == 0.0

    def test_as_dict_keys(self):
        machine = _machine()
        with ThroughputProbe(machine) as probe:
            machine.send(0, "work", (1,))
            machine.drain()
        d = probe.as_dict()
        assert set(d) == {"seconds", "tasks", "rounds", "tasks_per_sec",
                          "rounds_per_sec"}
        assert d["tasks"] == 1.0


class TestHandlerProfile:
    def test_accumulates_per_handler(self):
        prof = HandlerProfile()
        prof.add("a", 0.5)
        prof.add("a", 0.25)
        prof.add("b", 0.1)
        assert prof.seconds["a"] == 0.75
        assert prof.calls["a"] == 2
        assert prof.calls["b"] == 1
        prof.add("b", 0.2, tasks=5)  # one batch-handler call, five tasks
        assert prof.calls["b"] == 6

    def test_as_dict_sorted_by_time_desc(self):
        prof = HandlerProfile()
        prof.add("cold", 0.1)
        prof.add("hot", 2.0)
        assert list(prof.as_dict()) == ["hot", "cold"]

    def test_top_renders_table(self):
        prof = HandlerProfile()
        prof.add("hot", 2.0)
        prof.add("cold", 0.1)
        out = prof.top(1)
        assert "hot" in out
        assert "cold" not in out
        assert "calls" in out.splitlines()[0]

    def test_engine_attribution(self):
        machine = _machine()
        prof = HandlerProfile()
        machine.set_profiler(prof)
        machine.send_all([(m, "work", (m,), None) for m in range(4)])
        machine.send(0, "slow", (1,))
        machine.drain()
        machine.set_profiler(None)
        assert prof.calls["work"] == 4
        assert prof.calls["slow"] == 1
        assert prof.seconds["slow"] >= 0.001
        # Detached: further tasks are not attributed.
        machine.send(0, "work", (2,))
        machine.drain()
        assert prof.calls["work"] == 4

    def test_metrics_identical_with_and_without_profiler(self):
        """The profiler measures the simulator, never the model: the
        measured machine's metric stream must not change."""
        def run(profiler):
            machine = _machine()
            if profiler is not None:
                machine.set_profiler(profiler)
            before = machine.snapshot()
            machine.send_all([(m, "work", (m,), None) for m in range(4)])
            machine.drain()
            return machine.delta_since(before)

        assert run(None) == run(HandlerProfile())


class TestDisabledProbesAreNoOps:
    """With no profiler installed, instrumentation costs nothing on the
    hot path."""

    def test_zero_profiling_allocations_when_off(self):
        """With profiling off, the round loop performs ZERO allocations
        attributable to the profiling module -- the probes are dead code,
        not merely cheap code."""
        import tracemalloc

        import repro.sim.profiling as profiling_mod

        machine = _machine()
        plan = [(m, "work", (m,), None) for m in range(4)]
        machine.send_all(plan)  # warm-up round outside the snapshot
        machine.drain()
        tracemalloc.start()
        try:
            for _ in range(20):
                machine.send_all(plan)
                machine.drain()
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snap.filter_traces(
            [tracemalloc.Filter(True, profiling_mod.__file__)]
        ).statistics("filename")
        assert sum(s.size for s in stats) == 0
