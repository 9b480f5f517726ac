"""Alternating parent/change pairs of the end-to-end benchmark.

A wall-time claim in this repo is ten alternating pairs of
``benchmarks/e2e/bench_e2e.py`` runs in two checkouts (the parent commit
and the change), on seeds not used while the change was written::

    python benchmarks/perf/ab_pairs.py --parent DIR --change DIR \\
        --workload W [W ...] [--pairs 10] [--seed0 401] [--seconds 10]

Each pair runs ``python3 benchmarks/e2e/bench_e2e.py --workload W --seed
N --seconds S --trace 0`` once in each checkout (odd seeds run the change
first) and reads the last stdout line.  For each end-to-end metric it
prints the EXPERIMENTS.md cell -- ``parent median [q1, q3] -> change
median [q1, q3]``, the median per-pair ratio (min-max), pairs won -- and
the verdict of the choosing-metrics guide's section 8: a gain is
*resolved* when the change wins at least nine tenths of the pairs (ties
count for neither side) and the medians are further apart than the
distance between the parent's own quartiles.  Next to it stands the
no-regression reading of section 6: the change's median *drift* in the
adverse direction against the bound ``BENCHMARK.json`` fixes for that
metric (``-2.8 % of 25 %`` is 2.8 % better), ``ok`` at or under the
bound.  Several workloads in one invocation run one after the other, so
"no worse on the other four" is one command.

The statistics are :func:`summarize` and :func:`drift`, pure functions
of the two value lists (tier-1: ``tests/test_ab_pairs.py``).  Nothing
here imports the benchmark: it is run as a subprocess of the checkout
it measures, and ``BENCHMARK.json`` is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "..", "BENCHMARK.json")
WIN_SHARE = 0.9


def load_metrics(path: str = BENCHMARK_JSON) -> Dict[str, Tuple[bool, float]]:
    """The benchmark's end-to-end metrics: ``name -> (higher is better,
    bound)``, the bound being the share by which the metric may worsen
    before a change counts as a regression."""
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: (m["better"] == "higher", m["bound"])
            for m in doc["end_to_end"]}


Spread = Tuple[float, float, float]   # (median, q1, q3)


def spread(values: Sequence[float]) -> Spread:
    """Median and quartiles; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


class Summary(NamedTuple):
    pairs: int
    won: int
    lost: int
    parent: Spread
    change: Spread
    ratio: Optional[Spread]   # per-pair change/parent: (median, min, max)
    medians_apart: bool
    verdict: str              # improved | worse | flat | unresolved


def summarize(parent: Sequence[float], change: Sequence[float],
              higher_is_better: bool) -> Summary:
    """Paired statistics of one metric over ``len(parent)`` pairs.

    ``verdict`` is ``"improved"`` / ``"worse"`` when that side won at
    least ``WIN_SHARE`` of all pairs and the medians differ by more than
    the parent's inter-quartile distance, ``"flat"`` when every pair
    tied, and ``"unresolved"`` otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs a side")
    sign = 1 if higher_is_better else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    before, after = spread(parent), spread(change)
    apart = abs(after[0] - before[0]) > before[2] - before[1]
    if won == lost == 0:
        verdict = "flat"
    elif apart and won >= WIN_SHARE * len(parent):
        verdict = "improved"
    elif apart and lost >= WIN_SHARE * len(parent):
        verdict = "worse"
    else:
        verdict = "unresolved"
    ratio = ((statistics.median(ratios), min(ratios), max(ratios))
             if ratios else None)
    return Summary(len(parent), won, lost, before, after, ratio, apart,
                   verdict)


def drift(stats: Summary, higher_is_better: bool) -> Optional[float]:
    """The change's median against the parent's, as a share of the
    parent's and signed so that positive is *worse*; ``None`` when the
    parent's median is zero."""
    before, after = stats.parent[0], stats.change[0]
    if not before:
        return None
    return (before - after if higher_is_better else after - before) / before


def cell(name: str, stats: Summary,
         against: Optional[Tuple[bool, float]] = None) -> str:
    """One EXPERIMENTS.md line for ``name``; with ``against`` = the
    metric's ``(higher is better, bound)``, the drift column too."""
    fmt = "{:.4g} [{:.4g}, {:.4g}]".format
    ratio = ("n/a" if stats.ratio is None else
             "{:.3f} ({:.2f}-{:.2f})".format(*stats.ratio))
    line = (f"{name}: {fmt(*stats.parent)} -> {fmt(*stats.change)}"
            f" | ratio {ratio}, {stats.won}/{stats.pairs} won"
            f" | {stats.verdict}")
    if against is not None:
        higher, bound = against
        moved = drift(stats, higher)
        if moved is None:
            line += f" | drift n/a of {100 * bound:.0f} % | n/a"
        else:
            line += (f" | drift {100 * moved:+.1f} % of {100 * bound:.0f} %"
                     f" | {'ok' if moved <= bound else 'OVER'}")
    return line


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> Dict[str, object]:
    """One benchmark run in ``checkout``; its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, check=True, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True, nargs="+",
                    help="one or more workloads, run one after the other")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=401)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)

    metrics = load_metrics()
    all_clean = True
    for workload in args.workload:
        values: Dict[str, Dict[str, List[float]]] = {
            side: {name: [] for name in metrics}
            for side in ("parent", "change")}
        clean = True
        for seed in range(args.seed0, args.seed0 + args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            for side, checkout in (sides[::-1] if seed % 2 else sides):
                run = run_once(checkout, workload, seed, args.seconds)
                clean &= run["correct"] is True and run["failed"] == 0
                for name in metrics:
                    values[side][name].append(run["metrics"][name]["value"])
            print(f"{workload} seed {seed}: ops_per_s "
                  f"{values['parent']['ops_per_s'][-1]:.0f}"
                  f" -> {values['change']['ops_per_s'][-1]:.0f}", flush=True)
        print(f"\n{workload}, {args.pairs} pairs, seeds {args.seed0}-"
              f"{args.seed0 + args.pairs - 1}, {args.seconds:g} s a run; "
              f"correct and failed 0 on every run: {clean}")
        for name, against in metrics.items():
            stats = summarize(values["parent"][name], values["change"][name],
                              against[0])
            print(cell(name, stats, against))
        print(flush=True)
        all_clean &= clean
    return 0 if all_clean else 1


if __name__ == "__main__":
    sys.exit(main())
