"""Wall-clock instrumentation for the simulator itself.

The model metrics (:mod:`repro.sim.metrics`) measure the *simulated*
machine -- rounds, h-relations, PIM time.  This module measures the
*simulator*: how many wall-clock seconds a scenario takes, how many
handler tasks and bulk-synchronous rounds the engine retires per second,
and (opt-in, it costs two ``perf_counter`` calls per slot task and per
batch-handler call) where the handler time goes per function id.

Used by ``benchmarks/perf/bench_wallclock.py``; nothing here touches the
model's accounting.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict


class WallTimer:
    """Context manager capturing elapsed wall-clock seconds.

    >>> with WallTimer() as t:
    ...     work()
    >>> t.elapsed  # seconds, float
    """

    __slots__ = ("start", "elapsed")

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "WallTimer":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed = perf_counter() - self.start


class ThroughputProbe:
    """Tasks/sec and rounds/sec for a region of driver code.

    Snapshots the machine's task and round counters on entry and computes
    rates on exit.
    """

    __slots__ = ("machine", "_timer", "_tasks0", "_rounds0",
                 "tasks", "rounds", "seconds")

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self._timer = WallTimer()
        self._tasks0 = 0
        self._rounds0 = 0
        self.tasks = 0
        self.rounds = 0
        self.seconds = 0.0

    def __enter__(self) -> "ThroughputProbe":
        self._tasks0 = self.machine.tasks_executed
        self._rounds0 = self.machine.metrics.rounds
        self._timer.__enter__()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._timer.__exit__(*exc)
        self.seconds = self._timer.elapsed
        self.tasks = self.machine.tasks_executed - self._tasks0
        self.rounds = self.machine.metrics.rounds - self._rounds0

    @property
    def tasks_per_sec(self) -> float:
        return self.tasks / self.seconds if self.seconds > 0 else 0.0

    @property
    def rounds_per_sec(self) -> float:
        return self.rounds / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "seconds": self.seconds,
            "tasks": float(self.tasks),
            "rounds": float(self.rounds),
            "tasks_per_sec": self.tasks_per_sec,
            "rounds_per_sec": self.rounds_per_sec,
        }


class HandlerProfile:
    """Per-handler wall-time attribution.

    Install with :meth:`repro.sim.machine.PIMMachine.set_profiler`; the
    engine then times every batch-handler call (the reference oracle
    every slot task) on the same rounds it runs unprofiled, and calls
    :meth:`add`.
    :attr:`calls` counts tasks per function id whichever loop ran them.
    Slows the run (two clock reads per slot task and per batch-handler
    call), so keep it off for throughput numbers and on for "where does
    the time go" questions.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, fn: str, dt: float, tasks: int = 1) -> None:
        """Book ``dt`` seconds spent running ``tasks`` tasks of ``fn``."""
        self.seconds[fn] = self.seconds.get(fn, 0.0) + dt
        self.calls[fn] = self.calls.get(fn, 0) + tasks

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            fn: {"seconds": self.seconds[fn], "calls": float(self.calls[fn])}
            for fn in sorted(self.seconds, key=self.seconds.get, reverse=True)
        }

    def top(self, k: int = 10) -> str:
        """A small human-readable table of the ``k`` hottest handlers."""
        lines = [f"{'handler':<40} {'calls':>10} {'seconds':>10}"]
        for fn in sorted(self.seconds, key=self.seconds.get,
                         reverse=True)[:k]:
            lines.append(
                f"{fn:<40} {self.calls[fn]:>10} {self.seconds[fn]:>10.4f}")
        return "\n".join(lines)

