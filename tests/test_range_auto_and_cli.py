"""Tests for the CLI."""

import pytest

from repro.cli import EXPERIMENTS, main as cli_main


class TestCLI:
    def test_info_runs(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SPAA 2021" in out
        for ident, _, _ in EXPERIMENTS:
            assert ident in out

    def test_demo_runs(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "integrity verified" in out
        assert "batch_successor" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["nope"])

    def test_experiment_index_covers_design_md(self):
        """Every experiment id in the CLI maps to a real bench module."""
        import os
        bench_dir = os.path.join(os.path.dirname(__file__), "..",
                                 "benchmarks")
        for _, _, module in EXPERIMENTS:
            assert os.path.exists(os.path.join(bench_dir, module + ".py"))
