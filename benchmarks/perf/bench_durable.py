"""Durability wall-clock benchmark: what do the WAL and restart cost?

Measures :mod:`repro.recovery.durable` end to end:

- ``wal_append`` -- sustained records/sec through
  :meth:`DurableStore.append` (serialize, checksum, write, modeled
  fsync boundary).  The store runs with ``os_fsync=False`` so the
  number prices the durability *code path*, not the host's disk
  hardware -- CI runners and laptops then agree within noise.  A
  second (informational, never gated) cell re-runs with real
  ``os.fsync`` to show the physical-disk multiplier.
- ``rto_log_length`` -- restart time (RTO) as a function of WAL length:
  a state dir with one snapshot and N replayable records is reopened
  through a :class:`RecoveryManager` (scan, verify, restore, replay);
  RTO should grow roughly linearly in N.
- ``rto_replay_debt`` -- the recovery bound the amortized checkpoint
  cadence is traded against.  The manager snapshots only once the
  items served reach the checkpoint's size, so a restart replays
  between nothing and (stored items + one batch) items.  The pair
  restarts a state dir cut **just after** a snapshot rotation (best
  case: restore only) and one cut **just before** the next (worst
  case: restore + a full window of replay); the rotation points are
  observed on a scratch run, not computed.  ``worst_over_best`` is the
  number the regression gate holds under a constant.

Every recovery cell also verifies the restart (restored range scan ==
the expected oracle state) and records that verdict in ``ok`` -- a fast
restart to the wrong state is not a benchmark win.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_durable.py [--quick]
        [--repeat N] [--out PATH]

Writes ``benchmarks/perf/BENCH_durable.json``; ``--quick`` shrinks the
log lengths to a seconds-scale smoke run (used by CI) and refuses to
overwrite a committed full-parameter baseline with quick numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.core.skiplist import PIMSkipList  # noqa: E402
from repro.recovery import Checkpoint, RecoveryManager  # noqa: E402
from repro.recovery.durable import (  # noqa: E402
    DurabilityPolicy,
    DurableStore,
)
from repro.sim.machine import PIMMachine  # noqa: E402

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_durable.json")

#: (records, pairs-per-record) for the append-throughput cell.
APPEND_FULL = (20_000, 8)
APPEND_QUICK = (2_000, 8)

#: WAL lengths for the RTO-vs-log-length sweep (checkpointing off).
LOG_LENGTHS_FULL = [32, 128, 512]
LOG_LENGTHS_QUICK = [16, 64]

#: The replay-debt pair restarts around this snapshot rotation (1 =
#: the first after bootstrap), at the serving layer's default
#: ``checkpoint_every``.
DEBT_ROTATION_FULL = 3
DEBT_ROTATION_QUICK = 1
DEBT_CHECKPOINT_EVERY = 4

NUM_MODULES = 8
BATCH_KEYS = 8
INITIAL_ITEMS = [(k * 64, k) for k in range(1, 257)]


def bench_wal_append(records: int, pairs: int, *,
                     os_fsync: bool) -> Dict[str, Any]:
    """Append ``records`` batches straight into a DurableStore."""
    root = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        store = DurableStore.open(root, DurabilityPolicy(os_fsync=os_fsync))
        store.bootstrap(Checkpoint(kind="skiplist", name="bench",
                                   payload=list(INITIAL_ITEMS)))
        payloads = [[[i * pairs + j, j] for j in range(pairs)]
                    for i in range(records)]
        start = time.perf_counter()
        for payload in payloads:
            store.append("upsert", payload)
        seconds = time.perf_counter() - start
        stats = store.stats()
        store.close()
        wal_bytes = sum(
            os.path.getsize(os.path.join(root, n))
            for n in os.listdir(root) if n.endswith(".log"))
        return {
            "records": records,
            "pairs_per_record": pairs,
            "os_fsync": os_fsync,
            "seconds": seconds,
            "records_per_sec": records / seconds if seconds > 0 else 0.0,
            "fsyncs": stats["fsyncs"],
            "wal_bytes": wal_bytes,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _durable_manager(root: str, checkpoint_every: int,
                     ) -> Tuple[RecoveryManager, DurableStore]:
    store = DurableStore.open(root, DurabilityPolicy(os_fsync=False))

    def rebuild() -> PIMSkipList:
        return PIMSkipList(PIMMachine(num_modules=NUM_MODULES, seed=3))

    live = rebuild()
    if store.report.created:
        live.build(INITIAL_ITEMS)
    manager = RecoveryManager(live, rebuild,
                              checkpoint_every=checkpoint_every,
                              durable=store)
    return manager, store


def _batch(i: int) -> List[Tuple[int, int]]:
    """The ``i``-th mutating batch: ``BATCH_KEYS`` fresh keys."""
    return [(1_000_000 + i * BATCH_KEYS + j, i) for j in range(BATCH_KEYS)]


def _populate(root: str, mutations: int, checkpoint_every: int,
              ) -> List[Tuple[int, int]]:
    """Drive ``mutations`` upsert batches through a durable manager;
    returns the expected final (key, value) state."""
    manager, store = _durable_manager(root, checkpoint_every)
    state = dict(INITIAL_ITEMS)
    for i in range(mutations):
        payload = _batch(i)
        manager.run([("upsert", payload)])
        state.update(payload)
    store.close()
    return sorted(state.items())


def rotation_points(rotations: int, checkpoint_every: int) -> List[int]:
    """Mutation counts at which the manager rotated the snapshot, for
    the first ``rotations`` rotations of the ``_populate`` stream."""
    root = tempfile.mkdtemp(prefix="repro-bench-rot-")
    try:
        manager, store = _durable_manager(root, checkpoint_every)
        points: List[int] = []
        done = 0
        while len(points) < rotations:
            manager.run([("upsert", _batch(done))])
            done += 1
            if store.snapshots_written > len(points):
                points.append(done)
        store.close()
        return points
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_restart(mutations: int, checkpoint_every: int,
                  repeat: int) -> Dict[str, Any]:
    """Populate once, then time ``repeat`` cold restarts of the dir."""
    root = tempfile.mkdtemp(prefix="repro-bench-rto-")
    try:
        expected = _populate(root, mutations, checkpoint_every)
        lo, hi = expected[0][0], expected[-1][0]
        best = None
        replayed = replayed_items = checkpoint_items = 0
        ok = True
        for _ in range(repeat):
            start = time.perf_counter()
            manager, store = _durable_manager(root, checkpoint_every)
            seconds = time.perf_counter() - start
            replayed = len(store.report.records)
            replayed_items = manager.replay_debt_items
            checkpoint_items = manager.last_checkpoint_items
            [got] = manager.run([("range", [(lo, hi)])])
            ok = ok and got == [expected] and manager.restored_from_disk
            store.close()
            if best is None or seconds < best:
                best = seconds
        return {
            "mutations": mutations,
            "checkpoint_every": checkpoint_every,
            "replayed_records": replayed,
            "replayed_items": replayed_items,
            "checkpoint_items": checkpoint_items,
            "rto_seconds": best,
            "records_per_sec": (replayed / best) if best else 0.0,
            "ok": ok,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_replay_debt(rotation: int, checkpoint_every: int,
                      repeat: int) -> Dict[str, Any]:
    """Restart just after snapshot rotation ``rotation`` and just
    before rotation ``rotation + 1``."""
    points = rotation_points(rotation + 1, checkpoint_every)
    after = bench_restart(points[rotation - 1], checkpoint_every, repeat)
    before = bench_restart(points[rotation] - 1, checkpoint_every, repeat)
    return {
        "rotation": rotation,
        "batch_items": BATCH_KEYS,
        "after_snapshot": after,
        "before_snapshot": before,
        "worst_over_best": before["rto_seconds"] / after["rto_seconds"],
    }


def run(quick: bool = False, repeat: int = 3,
        out_path: Optional[str] = OUT_PATH) -> Dict[str, Any]:
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    records, pairs = APPEND_QUICK if quick else APPEND_FULL
    lengths = LOG_LENGTHS_QUICK if quick else LOG_LENGTHS_FULL
    rotation = DEBT_ROTATION_QUICK if quick else DEBT_ROTATION_FULL

    best = None
    for _ in range(repeat):
        rec = bench_wal_append(records, pairs, os_fsync=False)
        if best is None or rec["seconds"] < best["seconds"]:
            best = rec
    print(f"wal_append         {best['seconds']:7.3f}s  "
          f"{best['records_per_sec']:>9.0f} rec/s  "
          f"({best['records']} records, modeled fsync)")
    fsynced = bench_wal_append(min(records, 2_000), pairs, os_fsync=True)
    print(f"wal_append+fsync   {fsynced['seconds']:7.3f}s  "
          f"{fsynced['records_per_sec']:>9.0f} rec/s  "
          f"(informational: real os.fsync)")

    log_sweep = []
    for length in lengths:
        # snapshot cadence far beyond the log: every mutation replays
        cell = bench_restart(length, length + 1, repeat)
        log_sweep.append(cell)
        print(f"rto log={length:<5}      {cell['rto_seconds']:7.3f}s  "
              f"replayed {cell['replayed_records']:>4d} records  "
              f"{'ok' if cell['ok'] else 'RESTART WRONG'}")

    debt = bench_replay_debt(rotation, DEBT_CHECKPOINT_EVERY, repeat)
    for label in ("after_snapshot", "before_snapshot"):
        cell = debt[label]
        print(f"rto {label:<15} {cell['rto_seconds']:7.3f}s  "
              f"replayed {cell['replayed_records']:>4d} records "
              f"({cell['replayed_items']} items over a "
              f"{cell['checkpoint_items']}-item checkpoint)  "
              f"{'ok' if cell['ok'] else 'RESTART WRONG'}")
    print(f"rto worst/best     {debt['worst_over_best']:7.2f}x")

    doc = {
        "config": {"quick": quick, "repeat": repeat,
                   "num_modules": NUM_MODULES, "batch_keys": BATCH_KEYS},
        "wal_append": best,
        "wal_append_fsync": fsynced,
        "rto_log_length": log_sweep,
        "rto_replay_debt": debt,
    }
    if out_path:
        if quick and os.path.exists(out_path):
            with open(out_path) as f:
                committed = json.load(f)
            if not committed.get("config", {}).get("quick", True):
                print(f"\nrefusing to overwrite the full-parameter "
                      f"baseline {out_path} with --quick numbers; "
                      f"pass --out to write elsewhere")
                return doc
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=2)
        print(f"\nwrote {out_path}")
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrunk log lengths (CI smoke run)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="repeats per cell; best is reported (default 3)")
    ap.add_argument("--out", default=OUT_PATH,
                    help="output JSON path (default BENCH_durable.json)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1, got {args.repeat}")
    doc = run(quick=args.quick, repeat=args.repeat, out_path=args.out)
    cells = doc["rto_log_length"] + [
        doc["rto_replay_debt"]["after_snapshot"],
        doc["rto_replay_debt"]["before_snapshot"]]
    return 0 if all(c["ok"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
