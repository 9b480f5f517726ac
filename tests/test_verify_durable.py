"""The durability certification harness and its CLI surfaces.

- the kill sweep is exact across seeds and bit-identical on rerun;
- the disk-fault sweep catches every registered disk fault;
- mutation tests: sabotaging durability (dropped payloads) or damage
  (no-op injector) makes the harness light up -- the checker checks;
- ``repro verify durable`` honors the exit-code + repro-path-last-line
  contract shared with fuzz/chaos/soak, and repros replay;
- ``repro fsck`` checks, repairs and self-tests.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.verify.durable import (
    check_durable_determinism,
    fault_sweep,
    kill_sweep,
)
from repro.verify.faults import DISK_FAULTS, get_fault

SMALL = dict(num_batches=8, batch_size=8, num_modules=4,
             checkpoint_every=3)


class TestKillSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_boundary_restarts_to_the_acked_prefix(self, seed):
        report = kill_sweep(seed, **SMALL)
        assert report.ok, report.violations
        assert report.cases == report.mutations + 1  # every boundary
        assert report.fingerprint

    def test_sweep_is_bit_identical_on_rerun(self):
        same, first, second = check_durable_determinism(1, **SMALL)
        assert same, f"{first} != {second}"

    def test_dropped_payloads_are_caught(self, monkeypatch):
        # Sabotage: a store that acks upserts without logging their
        # payload.  Restarts then miss acked keys at some boundary and
        # the sweep must say so.
        import repro.verify.durable as durable_mod
        from repro.recovery.durable import DurableStore

        class LossyStore(DurableStore):
            def append(self, op, payload):
                if op == "upsert":
                    payload = []
                return super().append(op, payload)

        monkeypatch.setattr(durable_mod, "DurableStore", LossyStore)
        report = kill_sweep(0, **SMALL)
        assert not report.ok
        assert any("acked key(s) lost" in v for v in report.violations)


class TestFaultSweep:
    def test_all_disk_faults_registered(self):
        assert set(DISK_FAULTS) == {
            "wal_torn_tail", "wal_bitflip", "snapshot_truncated",
            "crash_before_rename", "wal_dup_record"}
        for name in DISK_FAULTS:
            defn = get_fault(name)
            assert defn.level == "disk" and defn.damage is not None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_fault_is_caught_and_recovery_is_a_prefix(self, seed):
        report = fault_sweep(seed, **SMALL)
        assert report.ok, report.violations
        assert report.caught and set(report.caught) == set(DISK_FAULTS)
        assert all(outcome in ("recovered", "refused+repaired",
                               "refused+unrepairable")
                   for outcome in report.caught.values())

    def test_benign_faults_must_recover_to_full_state(self):
        # snapshot damage never loses WAL records: retention keeps a
        # fallback snapshot, so these must recover, not refuse.
        report = fault_sweep(0, faults=["snapshot_truncated",
                                        "crash_before_rename"], **SMALL)
        assert report.ok, report.violations
        assert all(v == "recovered" for v in report.caught.values())

    def test_invisible_damage_is_a_violation(self):
        # Mutation test: an injector that damages nothing must trip
        # the "fsck saw nothing" check for every fault.
        report = fault_sweep(0, damage_override=lambda root, seed: "noop",
                             **SMALL)
        assert not report.ok
        assert all("invisible to fsck" in v for v in report.violations)
        assert len(report.violations) == len(DISK_FAULTS)


class TestRotationCoverage:
    """The amortized cadence rotates by items served, so the sweeps
    size their sessions; both must really cross two rotations."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweeps_cross_two_rotations(self, seed):
        for sweep in (kill_sweep, fault_sweep):
            report = sweep(seed, **SMALL)
            assert report.ok, report.violations
            assert report.rotations >= 2
            assert report.as_dict()["rotations"] == report.rotations

    def test_fuzz_sessions_are_prefix_stable(self):
        # sized_session cuts one long session; that is only the seed's
        # own session, extended, if length never changes the prefix.
        from repro.verify.fuzz import fuzz_session

        short = fuzz_session(3, num_batches=8, batch_size=8)
        longer = fuzz_session(3, num_batches=40, batch_size=8)
        assert longer.batches[:8] == short.batches
        assert longer.initial_keys == short.initial_keys

    def test_an_unsized_session_is_a_coverage_violation(self, monkeypatch):
        # Mutation test: hand the sweep the bare 8-batch session (one
        # rotation at most) and the harness must say so.
        import repro.verify.durable as durable_mod
        from repro.verify.fuzz import fuzz_session

        monkeypatch.setattr(
            durable_mod, "sized_session",
            lambda seed, make, *, num_batches, batch_size, checkpoint_every:
            fuzz_session(seed, num_batches=num_batches,
                         batch_size=batch_size))
        for sweep in (kill_sweep, fault_sweep):
            report = sweep(1, **SMALL)
            assert report.rotations < 2
            assert any(v.startswith("coverage:") for v in report.violations)


class TestVerifyDurableCli:
    def test_clean_sweep_exits_zero(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["durable", "--seeds", "0", "--fault-seeds", "1",
                          "--batches", "8", "--batch-size", "8",
                          "--modules", "4", "--no-determinism"])
        assert rc == 0
        assert "durable sweep(s) exact" in capsys.readouterr().out

    def test_unknown_fault_exits_two(self, capsys):
        from repro.verify.cli import main as verify_main

        rc = verify_main(["durable", "--faults", "gremlins"])
        assert rc == 2

    def test_failure_exits_nonzero_with_repro_path_last(
            self, capsys, monkeypatch, tmp_path):
        import repro.verify.durable as durable_mod
        from repro.verify.cli import main as verify_main

        real = durable_mod.kill_sweep

        def sabotage(*args, **kwargs):
            report = real(*args, **kwargs)
            report.violations.append("forced violation")
            return report

        monkeypatch.setattr(durable_mod, "kill_sweep", sabotage)
        rc = verify_main(["durable", "--seeds", "0", "--fault-seeds", "1",
                          "--batches", "8", "--batch-size", "8",
                          "--modules", "4", "--no-determinism",
                          "--repro-dir", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "forced violation" in out
        last = out.strip().splitlines()[-1].strip()
        assert os.path.isfile(last), f"last line not a repro path: {last!r}"
        data = json.loads(open(last).read())
        assert data["kind"] == "durable" and data["mode"] == "kill"
        # un-sabotaged, the recorded sweep replays clean
        monkeypatch.setattr(durable_mod, "kill_sweep", real)
        rc = verify_main(["replay", last])
        capsys.readouterr()
        assert rc == 0


class TestFsckCli:
    def test_selftest_round_trips(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["fsck", "--selftest"])
        assert rc == 0
        assert "fsck selftest ok" in capsys.readouterr().out

    def test_missing_dir_exits_one(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["fsck", "/no/such/state/dir"]) == 1

    def test_no_args_exits_two(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["fsck"]) == 2

    def test_check_then_repair_a_torn_dir(self, capsys, tmp_path):
        from repro.cli import main as cli_main
        from repro.recovery import Checkpoint
        from repro.recovery.durable import (
            DurabilityPolicy,
            DurableStore,
            list_segments,
        )

        root = str(tmp_path / "state")
        store = DurableStore.open(
            root, DurabilityPolicy(os_fsync=False))
        store.bootstrap(Checkpoint(kind="skiplist", name="t",
                                   payload=[(1, 1)]))
        store.append("upsert", [[2, 2]])
        store.close()
        _, seg = list_segments(root)[-1]
        with open(seg, "ab") as f:
            f.write(b"\xba\xad")
        assert cli_main(["fsck", root]) == 1  # check mode: dirty
        assert cli_main(["fsck", root, "--repair"]) == 0
        assert cli_main(["fsck", root]) == 0  # clean after repair
        out = capsys.readouterr().out
        assert "torn_tail" in out and "clean" in out
