"""The pair runner's statistics (``benchmarks/perf/ab_pairs.py``) on
canned numbers.  The script is not a package module, so it is imported
by path; nothing here runs the benchmark."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = (Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
         / "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_a_clear_gain_is_improved_with_the_house_cell():
    change = [p * 1.2 for p in PARENT]
    stats = ab.summarize(PARENT, change, higher_is_better=True)
    assert (stats.pairs, stats.won, stats.lost) == (10, 10, 0)
    assert stats.parent == (100.0, 99.25, 101.0)      # median, q1, q3
    assert stats.ratio == pytest.approx((1.2, 1.2, 1.2))
    assert stats.medians_apart and stats.verdict == "improved"
    assert ab.cell("ops_per_s", stats) == (
        "ops_per_s: 100 [99.25, 101] -> 120 [119.1, 121.2]"
        " | ratio 1.200 (1.20-1.20), 10/10 won | improved")


def test_direction_follows_the_metric():
    change = [p * 1.2 for p in PARENT]
    assert ab.summarize(PARENT, change, False).verdict == "worse"
    assert ab.summarize(change, PARENT, False).verdict == "improved"


def test_eight_of_ten_pairs_is_unresolved():
    change = [p * 1.2 for p in PARENT]
    change[0], change[1] = PARENT[0] - 1, PARENT[1] - 1
    stats = ab.summarize(PARENT, change, True)
    assert (stats.won, stats.lost) == (8, 2)
    assert stats.medians_apart and stats.verdict == "unresolved"


def test_ties_count_for_neither_side():
    change = [p * 1.2 for p in PARENT]
    change[0] = PARENT[0]                      # 9 won, 1 tie: still 0.9
    assert ab.summarize(PARENT, change, True).verdict == "improved"
    change[1] = PARENT[1]                      # 8 won, 2 ties
    assert ab.summarize(PARENT, change, True).verdict == "unresolved"
    assert ab.summarize(PARENT, PARENT, True).verdict == "flat"


def test_medians_inside_the_parents_quartiles_are_unresolved():
    change = [p + 0.5 for p in PARENT]         # wins every pair, by noise
    stats = ab.summarize(PARENT, change, True)
    assert stats.won == 10 and not stats.medians_apart
    assert stats.verdict == "unresolved"


def test_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0], True)
    with pytest.raises(ValueError):
        ab.summarize([], [], True)


def test_drift_is_signed_so_that_positive_is_worse():
    better = ab.summarize(PARENT, [p * 1.2 for p in PARENT], True)
    assert ab.drift(better, higher_is_better=True) == pytest.approx(-0.2)
    assert ab.drift(better, higher_is_better=False) == pytest.approx(0.2)
    assert ab.drift(ab.summarize([0.0, 0.0], [1.0, 1.0], False),
                    False) is None


def test_the_drift_column_reads_against_the_metrics_bound():
    change = [p * 0.97 for p in PARENT]            # 3 % fewer ops a second
    stats = ab.summarize(PARENT, change, True)     # resolved, and in bound
    assert ab.cell("ops_per_s", stats, (True, 0.25)).endswith(
        " | worse | drift +3.0 % of 25 % | ok")
    assert ab.cell("ops_per_s", stats, (True, 0.02)).endswith(
        " | drift +3.0 % of 2 % | OVER")
    gain = ab.summarize(PARENT, [p * 1.2 for p in PARENT], True)
    assert ab.cell("ops_per_s", gain, (True, 0.25)).endswith(
        " | improved | drift -20.0 % of 25 % | ok")
    # Without a bound the cell is the one EXPERIMENTS.md has always had.
    assert " drift " not in ab.cell("ops_per_s", gain)


def test_metrics_and_bounds_come_from_benchmark_json():
    metrics = ab.load_metrics()
    assert metrics["ops_per_s"] == (True, 0.25)
    assert metrics["model_io_per_op"] == (False, 0.1)
    assert len(metrics) == 8


def test_several_workloads_in_one_invocation(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        value = 100.0 + seed % 3 + (10.0 if checkout == "CHANGE" else 0.0)
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": value}
                            for name in ab.load_metrics()}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    status = ab.main(["--parent", "PARENT", "--change", "CHANGE",
                      "--workload", "w_one", "w_two", "--pairs", "2",
                      "--seed0", "10"])
    assert status == 0
    # Workloads one after the other; odd seeds run the change first.
    assert calls == [("PARENT", "w_one", 10), ("CHANGE", "w_one", 10),
                     ("CHANGE", "w_one", 11), ("PARENT", "w_one", 11),
                     ("PARENT", "w_two", 10), ("CHANGE", "w_two", 10),
                     ("CHANGE", "w_two", 11), ("PARENT", "w_two", 11)]
    out = capsys.readouterr().out
    assert out.count("2 pairs, seeds 10-11") == 2
    assert ("ops_per_s: 101.5 [101.2, 101.8] -> 111.5 [111.2, 111.8]"
            " | ratio 1.099 (1.10-1.10), 2/2 won | improved"
            " | drift -9.9 % of 25 % | ok") in out
    # The same numbers on a lower-is-better metric with a 10 % bound.
    assert "0/2 won | worse | drift +9.9 % of 10 % | ok" in out
