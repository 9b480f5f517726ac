"""A/A check: does the benchmark agree with itself on unchanged code?

Default mode -- the evidence for the regression bounds: run the suite
twice back to back (same seed, fixed work) and print, per workload and
end-to-end metric, both medians, their ratio and the bound.  Fails if a
host-time metric moved by more than its bound, or if any simulated-cost
metric or exact count (``model_*``, ``*_n``, ...) differs at all.

``--seeds N`` -- the acceptance procedure ``BENCHMARK.json`` is held to:
N time-bounded runs per workload, each on another seed, done twice.  For
each end-to-end metric it prints the spread (distance between the first
and third quartile as a share of the median) of each set and the drift
of the second median against the first.  Fails if a spread (other than
``setup_s``'s) or a drift exceeds the metric's bound; flags spreads above
a third of the bound, which is the margin to aim for.

If a bound fails here, lengthen the run or raise ``--repeats``; do not
widen the bound silently.  (``--quick`` is for plumbing: its 0.1 s
phases fail the host-time bounds, but exact values must still match.)
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Any, Dict, List, Sequence

from bench_e2e import (END_TO_END, FAIL_RATIO, PER_LAYER, RUN_SECONDS,
                       WORKLOADS, Metric, run_in_child, run_suite)


def worse_by(metric: Metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative: better)."""
    change = (second - first) / first if first else float(second != first)
    return change if metric.better == "lower" else -change


def compare_suites(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the A/A table; return the list of violations."""
    problems: List[str] = []
    print(f"\n{'workload':<21}{'metric':<24}{'first':>13}{'second':>13}"
          f"{'ratio':>9}{'bound':>8}")
    for name, first in a["workloads"].items():
        second = b["workloads"][name]
        for m in END_TO_END + [FAIL_RATIO]:
            x, y = first["end_to_end"][m.name], second["end_to_end"][m.name]
            ratio = y / x if x else float("nan")
            verdict = ""
            if m.exact:
                if x != y:
                    verdict = "DIFFERS (must repeat exactly)"
            elif abs(worse_by(m, x, y)) > m.bound:
                verdict = "OUTSIDE BOUND"
            bound = "exact" if m.exact else f"{m.bound:.2f}"
            print(f"{name:<21}{m.name:<24}{x:>13.6g}{y:>13.6g}"
                  f"{ratio:>9.3f}{bound:>8}  {verdict}")
            if verdict:
                problems.append(f"{name} {m.name}: {x!r} vs {y!r}")
        if first["per_layer"] and second["per_layer"]:
            for m in PER_LAYER:
                x, y = first["per_layer"][m.name], second["per_layer"][m.name]
                if m.exact and x != y:
                    problems.append(f"{name} {m.name}: {x!r} vs {y!r} "
                                    "(must repeat exactly)")
    return problems


def spread(values: Sequence[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def seed_sets(names: Sequence[str], seeds: int, first_seed: int,
              seconds: float) -> List[str]:
    """Two sets of ``seeds`` time-bounded runs per workload; print spread
    and drift per metric; return the list of violations."""
    problems: List[str] = []
    print(f"\n{'workload':<21}{'metric':<24}{'median 1':>12}{'spread 1':>10}"
          f"{'median 2':>12}{'spread 2':>10}{'drift':>8}{'bound':>7}")
    for name in names:
        sets: List[Dict[str, List[float]]] = []
        for _ in range(2):
            values: Dict[str, List[float]] = {m.name: [] for m in END_TO_END}
            for seed in range(first_seed, first_seed + seeds):
                record = run_in_child(name=name, seed=seed, seconds=seconds)
                if not record["correct"]:
                    problems.append(f"{name} seed {seed}: wrong answers")
                for m in END_TO_END:
                    values[m.name].append(record["end_to_end"][m.name])
            sets.append(values)
        for m in END_TO_END:
            one, two = sets[0][m.name], sets[1][m.name]
            spreads = [spread(one), spread(two)]
            drift = worse_by(m, statistics.median(one),
                             statistics.median(two))
            verdict = ""
            if drift > m.bound:
                verdict = "DRIFT OUTSIDE BOUND"
            elif m.name != "setup_s" and max(spreads) > m.bound:
                verdict = "SPREAD OUTSIDE BOUND"
            elif m.name != "setup_s" and max(spreads) > m.bound / 3:
                verdict = "(spread above bound/3)"
            print(f"{name:<21}{m.name:<24}{statistics.median(one):>12.5g}"
                  f"{spreads[0]:>10.4f}{statistics.median(two):>12.5g}"
                  f"{spreads[1]:>10.4f}{drift:>8.4f}{m.bound:>7.2f}  "
                  f"{verdict}", flush=True)
            if verdict and not verdict.startswith("("):
                problems.append(f"{name} {m.name}: {verdict.lower()}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--seeds", type=int, default=0,
                    help="seed-set mode: runs per set (the contract uses 10)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="seed-set mode: length of each run")
    args = ap.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.seeds:
        problems = seed_sets(names, args.seeds, args.seed, args.seconds)
    else:
        def quiet(_line: str) -> None:
            pass
        suites = [run_suite(names, args.seed, args.repeats, None,
                            args.quick, True, quiet) for _ in range(2)]
        problems = compare_suites(*suites)
    if problems:
        print("\nA/A check FAILED:")
        for line in problems:
            print("  " + line)
        return 1
    print("\nA/A check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
