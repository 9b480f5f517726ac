"""Analysis utilities for the benchmark harness.

The paper states asymptotic bounds (Table 1, Theorems 3.1-5.2); the
benchmarks validate the *shape* of measured metrics rather than absolute
constants:

- :func:`~repro.analysis.fit.fit_power` / :func:`~repro.analysis.fit.fit_polylog`
  -- least-squares growth-exponent estimation of a metric against ``P``
  or ``log P``;
- :mod:`repro.analysis.tables` -- ASCII renderers producing the
  paper-style rows the benchmarks print (one per table/figure).
"""

from repro.analysis.experiments import Sweep, SweepTable
from repro.analysis.fit import fit_polylog, fit_power
from repro.analysis.tables import render_table
from repro.analysis.structure_viz import layout_summary, render_structure
from repro.analysis.trace_report import (
    TraceSummary,
    hotspot_rounds,
    render_timeline,
    summarize,
)

__all__ = [
    "Sweep",
    "SweepTable",
    "layout_summary",
    "render_structure",
    "TraceSummary",
    "fit_polylog",
    "fit_power",
    "hotspot_rounds",
    "render_table",
    "render_timeline",
    "summarize",
]
