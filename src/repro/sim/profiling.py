"""Wall-clock instrumentation for the simulator itself.

The model metrics (:mod:`repro.sim.metrics`) measure the *simulated*
machine -- rounds, h-relations, PIM time.  This module measures the
*simulator*: how many wall-clock seconds a scenario takes, how many
handler tasks and bulk-synchronous rounds the engine retires per second,
and (opt-in, it costs two ``perf_counter`` calls per task) where the
handler time goes per function id.

Used by ``benchmarks/perf/bench_wallclock.py``; nothing here touches the
model's accounting.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional


class WallTimer:
    """Context manager capturing elapsed wall-clock seconds.

    >>> with WallTimer() as t:
    ...     work()
    >>> t.elapsed  # seconds, float

    Constructed with ``enabled=False`` the timer is a true no-op: enter
    and exit read no clocks and ``elapsed`` stays 0.0, so instrumented
    call sites can be left in place on hot paths.
    """

    __slots__ = ("start", "elapsed", "enabled")

    def __init__(self, enabled: bool = True) -> None:
        self.start = 0.0
        self.elapsed = 0.0
        self.enabled = enabled

    def __enter__(self) -> "WallTimer":
        if self.enabled:
            self.start = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.enabled:
            self.elapsed = perf_counter() - self.start


class ThroughputProbe:
    """Tasks/sec and rounds/sec for a region of driver code.

    Snapshots the machine's task and round counters on entry and computes
    rates on exit.  ``tasks_executed`` is read with a ``getattr`` fallback
    so the probe degrades gracefully on engines that don't expose it
    (rates then report 0 tasks).  With ``enabled=False`` enter/exit read
    no clocks and no counters (all rates stay 0) -- a true no-op.
    """

    __slots__ = ("machine", "_timer", "_tasks0", "_rounds0",
                 "tasks", "rounds", "seconds", "enabled")

    def __init__(self, machine: Any, enabled: bool = True) -> None:
        self.machine = machine
        self._timer = WallTimer(enabled)
        self._tasks0 = 0
        self._rounds0 = 0
        self.tasks = 0
        self.rounds = 0
        self.seconds = 0.0
        self.enabled = enabled

    def __enter__(self) -> "ThroughputProbe":
        if self.enabled:
            self._tasks0 = getattr(self.machine, "tasks_executed", 0)
            self._rounds0 = self.machine.metrics.rounds
            self._timer.__enter__()
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self.enabled:
            return
        self._timer.__exit__(*exc)
        self.seconds = self._timer.elapsed
        self.tasks = getattr(self.machine, "tasks_executed", 0) - self._tasks0
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
    engine then times every handler invocation and calls :meth:`add`.
    Slows the run (two clock reads per task), so keep it off for
    throughput numbers and on for "where does the time go" questions.

    A profile constructed with ``enabled=False`` is *dropped* by
    ``set_profiler`` -- the round loop runs its unprofiled path with zero
    per-task lookups, exactly as if no profiler were installed (and the
    engine does not enter its scalar fallback for it).
    """

    __slots__ = ("seconds", "calls", "enabled")

    def __init__(self, enabled: bool = True) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.enabled = enabled

    def add(self, fn: str, dt: float) -> None:
        self.seconds[fn] = self.seconds.get(fn, 0.0) + dt
        self.calls[fn] = self.calls.get(fn, 0) + 1

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


def profile_region(machine: Any,
                   profiler: Optional[HandlerProfile] = None) -> ThroughputProbe:
    """Convenience: a :class:`ThroughputProbe`, optionally installing a
    :class:`HandlerProfile` on the machine for the region's duration.

    >>> with profile_region(machine) as probe:
    ...     structure.batch_get(keys)
    >>> probe.tasks_per_sec
    """
    if profiler is not None:
        machine.set_profiler(profiler)
    return ThroughputProbe(machine)
