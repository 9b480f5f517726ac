"""Replay every committed repro file in ``tests/golden/repros/``.

Each JSON file there is a shrunk, once-failing (or hand-written
conformance) certificate emitted by ``python -m repro verify fuzz`` /
``chaos`` / ``shrink``.  This test auto-collects the directory and
asserts every file replays **clean** against the current
implementations, through the same runner as ``verify replay`` -- so a
fuzz failure, once fixed and committed, stays fixed by existing.

To add a regression case: run the fuzzer, let it shrink the failure
into ``tests/golden/repros/seed<N>.json``, fix the bug, and commit the
file with the fix.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.verify import certify, fuzz_session, load_repro, write_repro
from repro.verify.shrink import session_to_dict

REPRO_DIR = os.path.join(os.path.dirname(__file__), "golden", "repros")
REPRO_FILES = sorted(glob.glob(os.path.join(REPRO_DIR, "*.json")))


def test_repro_corpus_exists():
    assert REPRO_FILES, f"no repro files under {REPRO_DIR}"


@pytest.mark.parametrize("path", REPRO_FILES,
                         ids=[os.path.basename(p) for p in REPRO_FILES])
def test_repro_replays_clean(path):
    report = certify(load_repro(path))
    assert report.ok, (
        f"{os.path.basename(path)} diverges again:\n  "
        + "\n  ".join(str(v) for v in report.violations))


def test_every_kind_replays_as_written(tmp_path):
    """A soak, a durable and a read-group differential repro each run
    with every field they were written with."""
    session = fuzz_session(3, num_batches=4, batch_size=8)
    configs = [
        dict(kind="soak", schedule="crash_wipe", fault_seed=1, clients=4,
             ops_per_client=3, seed=2, num_modules=4, structure="pimtree"),
        dict(kind="durable", mode="kill", session_seed=1, fault_seed=2,
             num_batches=8, batch_size=8, num_modules=4,
             checkpoint_every=3),
        dict(session_to_dict(session), kind="differential",
             impls=["skiplist", "pimtree"], num_modules=4, read_groups=True,
             check_metamorphic=True, check_determinism=True,
             check_backends=False),
    ]
    for i, config in enumerate(configs):
        path = write_repro(str(tmp_path / f"{i}.json"), config)
        report = certify(load_repro(path))
        assert report.ok, (config["kind"], report.violations)
        assert report.config == config
