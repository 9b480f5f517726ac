"""The chaos soak harness and the serving/verify CLI contracts.

- soak runs are clean across fault schedules and deterministic;
- the replay verifier actually catches wrong answers, reordered
  streams and refused-but-executed requests (mutation tests on the
  checker itself);
- ``python -m repro verify fuzz|chaos`` exit non-zero on divergence
  and print the shrunk repro path on the last output line;
- ``python -m repro serve`` runs and reports the SLO verdict.
"""

import os

import pytest

from repro.serve import ServerConfig
from repro.serve.server import JournalEntry
from repro.verify.soak import (
    SoakReport,
    _Record,
    _verify_replay,
    check_soak_determinism,
    soak_session,
)


class TestSoakSession:
    def test_fault_free_soak_answers_everything(self):
        report = soak_session("none", clients=24, ops_per_client=6, seed=0,
                              num_modules=4)
        assert report.ok, report.violations
        assert report.answered == 24 * 6
        assert report.total_refused == 0
        assert report.total_degraded == 0
        assert report.health_state == "healthy"
        assert report.batches <= report.answered  # coalescing happened
        assert report.latency_percentile(0.99) >= \
            report.latency_percentile(0.5) >= 0

    @pytest.mark.parametrize("schedule", ["crash_wipe", "intermittent",
                                          "mixed", "drop"])
    def test_soak_is_clean_under_chaos(self, schedule):
        report = soak_session(schedule, 0, clients=24, ops_per_client=6,
                              seed=1, num_modules=4)
        assert report.ok, (schedule, report.violations)
        answered = (report.answered + report.total_refused
                    + report.total_degraded)
        assert answered == 24 * 6  # nothing lost, nothing hung

    def test_degraded_soak_still_satisfies_the_slo(self):
        # hair-trigger breaker + no recovery budget: the run must end
        # degraded, yet every response stays typed or replay-exact
        report = soak_session(
            "crash_wipe", 0, clients=16, ops_per_client=6, seed=3,
            num_modules=4,
            config=ServerConfig(seed=3, max_recoveries=0,
                                read_retry_attempts=0))
        assert report.ok, report.violations
        assert report.total_degraded > 0
        assert report.health_state == "degraded"

    def test_soak_is_deterministic(self):
        same, first, second = check_soak_determinism(
            "crash_wipe", 0, clients=12, ops_per_client=5, seed=2,
            num_modules=4)
        assert same, (first, second)

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            soak_session("gremlins")

    def test_as_dict_is_json_serialisable(self):
        import json

        report = soak_session("none", clients=4, ops_per_client=3,
                              num_modules=4)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["answered"] == report.answered
        assert "latency_p99" in payload


class _FakeServer:
    def __init__(self, journal):
        self.journal = journal


class TestReplayVerifier:
    """Mutation tests: the checker must catch what it claims to catch."""

    def _report(self):
        return SoakReport("none", 0, 0, 1, 1)

    def test_accepts_an_exact_stream(self):
        report = self._report()
        records = {"c0": [_Record("get", [1], [5], 0),
                          _Record("upsert", [(1, 9)], None, 0),
                          _Record("get", [1], [9], 0)]}
        journal = [
            JournalEntry(1, "get", (1,), ((0, "c0", 0, 1),)),
            JournalEntry(2, "upsert", ((1, 9),), ((1, "c0", 0, 1),)),
            JournalEntry(3, "get", (1,), ((2, "c0", 0, 1),)),
        ]
        _verify_replay(report, records, _FakeServer(journal), [(1, 5)])
        assert report.violations == []

    def test_catches_a_wrong_answer(self):
        report = self._report()
        records = {"c0": [_Record("get", [1], [999], 0)]}
        journal = [JournalEntry(1, "get", (1,), ((0, "c0", 0, 1),))]
        _verify_replay(report, records, _FakeServer(journal), [(1, 5)])
        assert any("diverges from sequential replay" in v
                   for v in report.violations)

    def test_catches_an_answer_missing_from_the_journal(self):
        report = self._report()
        records = {"c0": [_Record("get", [1], [5], 0)]}
        _verify_replay(report, records, _FakeServer([]), [(1, 5)])
        assert any("absent from the journal" in v
                   for v in report.violations)

    def test_catches_a_refused_request_that_executed(self):
        from repro.serve import Refusal, RefusalReason

        report = self._report()
        refusal = Refusal("get", "c0", RefusalReason.OVERLOADED)
        records = {"c0": [_Record("get", [1], refusal, 0)]}
        journal = [JournalEntry(1, "get", (1,), ((0, "c0", 0, 1),))]
        _verify_replay(report, records, _FakeServer(journal), [(1, 5)])
        assert any("extra batch slice" in v for v in report.violations)

    def test_catches_an_out_of_order_stream(self):
        report = self._report()
        records = {"c0": [_Record("get", [1], [5], 0),
                          _Record("upsert", [(1, 9)], None, 0)]}
        journal = [  # journal claims the write ran first
            JournalEntry(1, "upsert", ((1, 9),), ((1, "c0", 0, 1),)),
            JournalEntry(2, "get", (1,), ((0, "c0", 0, 1),)),
        ]
        _verify_replay(report, records, _FakeServer(journal), [(1, 5)])
        assert any("order mismatch" in v for v in report.violations)


class TestVerifyCliExitCodes:
    """``verify fuzz|chaos``: exit codes + repro path on the last line."""

    def test_fuzz_clean_exits_zero(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["fuzz", "--sessions", "1", "--batches", "3",
                          "--batch-size", "6", "--modules", "4",
                          "--no-determinism", "--no-backends",
                          "--no-metamorphic"])
        assert rc == 0
        assert "verified clean" in capsys.readouterr().out

    def test_fuzz_divergence_exits_nonzero_with_repro_path_last(
            self, capsys, tmp_path):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["fuzz", "--sessions", "1", "--batches", "4",
                          "--batch-size", "6", "--modules", "4",
                          "--inject-fault", "skiplist:drop_get",
                          "--repro-dir", str(tmp_path),
                          "--max-evals", "40",
                          "--no-determinism", "--no-backends",
                          "--no-metamorphic"])
        assert rc == 1
        out = capsys.readouterr().out.strip().splitlines()
        last = out[-1].strip()
        assert os.path.isfile(last), f"last line not a repro path: {last!r}"
        assert last.endswith(".json")

    def test_chaos_clean_exits_zero(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["chaos", "--sessions", "1", "--schedules",
                          "drop", "--batches", "4", "--batch-size", "8",
                          "--modules", "4", "--no-determinism",
                          "--no-containers"])
        assert rc == 0
        assert "exact" in capsys.readouterr().out

    def test_chaos_divergence_exits_nonzero(self, capsys, monkeypatch):
        from repro.verify import cli as verify_cli
        from repro.verify.differ import Divergence

        class FailingReport:
            ok = False
            divergences = [Divergence(seed=0, batch_index=0, op="get",
                                      impl="skiplist+chaos", kind="test",
                                      detail="forced")]

            @staticmethod
            def summary():
                return "forced failure"

        monkeypatch.setattr(verify_cli, "chaos_session",
                            lambda *a, **k: FailingReport())
        rc = verify_cli.main(["chaos", "--sessions", "1", "--schedules",
                              "drop", "--modules", "4", "--no-shrink",
                              "--no-determinism", "--no-containers"])
        assert rc == 1
        assert "chaos failure" in capsys.readouterr().out

    def test_soak_subcommand_exits_zero(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["soak", "--schedules", "none,crash_wipe",
                          "--fault-seeds", "0", "--clients", "8",
                          "--ops", "4", "--modules", "4",
                          "--no-determinism"])
        assert rc == 0
        assert "soak run(s) clean" in capsys.readouterr().out

    def test_soak_subcommand_fails_on_violation_with_repro_path_last(
            self, capsys, monkeypatch, tmp_path):
        import repro.verify.soak as soak_mod

        real = soak_mod.soak_session

        def sabotage(*args, **kwargs):
            report = real(*args, **kwargs)
            report.violations.append("forced violation")
            return report

        monkeypatch.setattr(soak_mod, "soak_session", sabotage)
        from repro.verify.cli import main as verify_main

        rc = verify_main(["soak", "--schedules", "none", "--clients", "4",
                          "--ops", "3", "--modules", "4",
                          "--no-determinism",
                          "--repro-dir", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "forced violation" in out
        # Contract shared with fuzz/chaos: the repro path is the LAST
        # line of stdout, so `tail -1` pipes straight into replay.
        last = out.strip().splitlines()[-1].strip()
        assert os.path.isfile(last), f"last line not a repro path: {last!r}"
        assert last.endswith(".json")
        import json

        data = json.loads(open(last).read())
        assert data["kind"] == "soak" and data["check"] == "slo"
        # The un-sabotaged soak replays clean through `verify replay`.
        monkeypatch.setattr(soak_mod, "soak_session", real)
        rc = verify_main(["replay", last])
        capsys.readouterr()
        assert rc == 0

    def test_soak_subcommand_runs_a_pimtree(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["soak", "--schedules", "none", "--clients", "6",
                          "--ops", "3", "--modules", "4",
                          "--structure", "pimtree", "--no-determinism"])
        assert rc == 0
        assert "structure=pimtree" in capsys.readouterr().out

    def test_unknown_soak_schedule_exits_two(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["soak", "--schedules", "gremlins"])
        assert rc == 2

    def test_unknown_soak_structure_exits_two(self, capsys):
        from repro.verify.cli import main as verify_main

        with pytest.raises(SystemExit) as exc:
            verify_main(["soak", "--structure", "gremlins"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--storage", "arena"],
        ["fuzz", "--no-storages"],
        ["replay", "--storage", "object"],
        ["chaos", "--storage", "arena"],
    ])
    def test_storage_flags_are_gone(self, argv, capsys):
        from repro.verify.cli import main as verify_main

        with pytest.raises(SystemExit) as exc:
            verify_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeCli:
    def test_serve_command_runs_and_verifies(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["serve", "--clients", "12", "--ops", "4",
                       "--modules", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO verified" in out
        assert "final health" in out

    def test_serve_command_under_chaos(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["serve", "--clients", "12", "--ops", "4",
                       "--modules", "4", "--chaos", "intermittent"])
        assert rc == 0
        assert "SLO verified" in capsys.readouterr().out

    def test_serve_rejects_unknown_schedule(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["serve", "--chaos", "gremlins"]) == 2

    def test_serve_restart_from_state_dir_verifies_clean(
            self, capsys, tmp_path):
        # Second run on the same state dir restores the first run's
        # mutations from disk; the replay oracle must be seeded with
        # the restored state, not the synthetic build.
        from repro.cli import main as cli_main

        argv = ["serve", "--clients", "8", "--ops", "4", "--modules", "4",
                "--state-dir", str(tmp_path / "state")]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "SLO verified" in out
        assert "state dir" in out
