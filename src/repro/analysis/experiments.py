"""A small experiment runner for parameter sweeps over the simulator.

Benchmarks and notebooks share the same pattern: build a machine per
parameter point, run an operation, snapshot the metric delta, tabulate.
:class:`Sweep` packages that pattern with deterministic seeding, repeat
handling (whp envelopes need several seeds), and CSV/table export.

Example::

    sweep = Sweep("get-io", params=[8, 16, 32], repeats=5)

    @sweep.point
    def run(p, seed):
        machine, sl, keys = build(p, seed)
        before = machine.snapshot()
        sl.batch_get(keys[: p * 4])
        return machine.delta_since(before)

    table = sweep.run()
    table.median("io_time")      # per-parameter medians
    table.envelope("io_time")    # (min, median, max) per parameter
    table.to_csv(path)
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.metrics import MetricsDelta

Runner = Callable[[Any, int], MetricsDelta]


@dataclass
class SweepTable:
    """Results of one sweep: rows of (param, seed, metric dict)."""

    name: str
    rows: List[Tuple[Any, int, Dict[str, float]]] = field(
        default_factory=list)

    @property
    def params(self) -> List[Any]:
        seen: List[Any] = []
        for p, _, _ in self.rows:
            if p not in seen:
                seen.append(p)
        return seen

    def values(self, param: Any, metric: str) -> List[float]:
        return [m[metric] for p, _, m in self.rows if p == param]

    def median(self, metric: str) -> Dict[Any, float]:
        """Per-parameter median of ``metric``."""
        return {p: statistics.median(self.values(p, metric))
                for p in self.params}

    def envelope(self, metric: str) -> Dict[Any, Tuple[float, float, float]]:
        """Per-parameter (min, median, max) -- the whp-envelope readout."""
        out = {}
        for p in self.params:
            vals = self.values(p, metric)
            out[p] = (min(vals), statistics.median(vals), max(vals))
        return out

    def to_csv(self, path: str) -> None:
        metrics = sorted(self.rows[0][2]) if self.rows else []
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["param", "seed"] + metrics)
            for p, seed, m in self.rows:
                writer.writerow([p, seed] + [m[k] for k in metrics])

    def column_rows(self, metrics: Sequence[str]):
        """Rows for :func:`repro.analysis.tables.render_table`: one per
        parameter, median of each requested metric."""
        meds = {metric: self.median(metric) for metric in metrics}
        return [[p] + [meds[metric][p] for metric in metrics]
                for p in self.params]


class Sweep:
    """Declarative parameter sweep with repeats and deterministic seeds."""

    def __init__(self, name: str, params: Sequence[Any],
                 repeats: int = 1, base_seed: int = 0) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.name = name
        self.params = list(params)
        self.repeats = repeats
        self.base_seed = base_seed
        self._runner: Optional[Runner] = None

    def point(self, fn: Runner) -> Runner:
        """Decorator registering the per-point runner
        ``fn(param, seed) -> MetricsDelta``."""
        self._runner = fn
        return fn

    def run(self) -> SweepTable:
        if self._runner is None:
            raise RuntimeError("no runner registered; use @sweep.point")
        table = SweepTable(name=self.name)
        for i, param in enumerate(self.params):
            for r in range(self.repeats):
                seed = self.base_seed + 1000 * i + r
                delta = self._runner(param, seed)
                table.rows.append((param, seed, delta.as_dict()))
        return table
