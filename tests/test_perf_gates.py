"""Tests for ``benchmarks/perf/check_regression.py``: the gate table.

The script is not a package module, so it is imported by path.  The
table's *exact* rows -- counts of the deterministic model, equal on
every host -- are run here, in tier-1; its timed rows (in-process
ratios, the two loose durable bounds) run in CI's ``perf-smoke`` job.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = (Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
         / "check_regression.py")
_spec = importlib.util.spec_from_file_location("check_regression", _PATH)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

BASE_ROWS = [g for g in gates.GATES if isinstance(g.threshold, gates.Base)]
EXACT_ROWS = [g for g in gates.GATES if g.exact]


def test_table_is_well_formed():
    names = [g.name for g in gates.GATES]
    assert len(names) == len(set(names))
    for g in gates.GATES:
        assert g.cmp == "info" or g.cmp in gates.COMPARE, g.name
        # Only an info row may go without a threshold, and an exact row
        # is a gate: a printed-only count would certify nothing.
        assert g.threshold is not None or g.cmp == "info", g.name
        assert not (g.exact and g.cmp == "info"), g.name


def test_every_threshold_key_exists_in_its_committed_baseline():
    bench = gates.Bench()
    assert BASE_ROWS
    for g in BASE_ROWS:
        assert isinstance(bench.value(g.threshold), (int, float)), g.name


def test_quick_baseline_is_refused(tmp_path):
    path = tmp_path / "BENCH_quick.json"
    path.write_text(json.dumps({"config": {"quick": True}, "gates": {}}))
    with pytest.raises(ValueError, match="--quick"):
        gates.load_baseline(str(path))
    path.write_text(json.dumps({"config": {"quick": False}, "gates": {}}))
    assert gates.load_baseline(str(path))["gates"] == {}


def test_exact_rows_pass():
    """The chunked-task shares, the CPU-side charges of one fixed
    session, the fixed Upsert batch and batch of ranges, one tick group
    per structure, the search at
    four widths around its pivot-spacing boundary, the seven
    skew-adversary rows and the durable restart counts, measured in
    process with the committed baselines' parameters."""
    names = {g.name for g in EXACT_ROWS}
    assert {"chunked share write_churn", "chunked share pimtree reads",
            "chunked share range batch",
            "CPU-side session: cpu_work, cpu_depth, shared_mem_peak, rng",
            "upsert batch: write_ptr rows through send_all",
            "pimtree read group: read rows through send_all",
            "write group: skiplist Upsert + Successor, (rounds, io, "
            "messages)",
            "write group: skiplist Upsert + Successor apart, (rounds, io, "
            "messages)",
            "upsert batch: path replies above their op's limit",
            "upsert batch: messages",
            "range batch: boundary searches == ops",
            "range batch: rounds",
            "search widths: 13-key Successor, rounds",
            "search widths: 385-key Successor, (rounds, io_time)",
            "pimtree rounds",
            "skiplist rounds above ceiling",
            "durable replayed records: before snapshot"} <= names
    assert gates.run(gates.Bench(repeat=1), EXACT_ROWS) == []


def test_a_failing_row_is_reported_and_an_info_row_never_fails(capsys):
    rows = [
        gates.Gate("short of the floor", lambda b: 1.0, ">=", 2.0),
        gates.Gate("at the ceiling", lambda b: 8, ">", 8),
        gates.Gate("printed only", lambda b: 1.0, "info", None),
        gates.Gate("fine", lambda b: 3, "==", 3),
    ]
    failed = gates.run(gates.Bench(), rows)
    assert [line.split()[0] for line in failed] == ["FAIL", "FAIL"]
    assert "short of the floor" in failed[0] and "at the ceiling" in failed[1]
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["FAIL", "FAIL", "info", "ok"]
