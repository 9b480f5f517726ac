"""Command-line interface: ``python -m repro <command>``.

Commands
--------

- ``info`` — versions, model defaults, the experiment index.
- ``demo`` — a one-minute tour: build a machine + skip list, run one
  batch of each operation, print measured model costs.
- ``reproduce [-k EXPR] [--out DIR]`` — regenerate the paper's tables
  (runs the benchmark harness's experiment functions through pytest
  with timing disabled; tables land in ``benchmarks/out/``).
- ``selftest`` — run the full unit/property test suite.
- ``verify fuzz|replay|shrink|chaos|soak`` — the differential
  verification subsystem: fuzz seeded adversarial sessions against
  every implementation, replay recorded repro files, shrink failures,
  chaos-sweep fault schedules, soak the serving layer
  (see ``repro.verify``).
- ``serve [--clients N] [--chaos SCHEDULE]`` — drive the resilient
  serving layer with N concurrent clients (optionally under a fault
  schedule) and verify the serving SLO (see ``repro.serve``).
- ``fsck DIR [--repair]`` — check (and optionally repair) a durable
  WAL+snapshot state dir (see ``repro.recovery.durable``): torn
  tails, mid-log corruption, LSN gaps, corrupt snapshots, orphan
  tmps.  ``--selftest`` damages a scratch store and round-trips
  check → repair → reopen.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

EXPERIMENTS = [
    ("T1-get", "Table 1 row 1: batched Get/Update", "bench_table1_get_update"),
    ("T1-succ", "Table 1 row 2: batched Successor/Predecessor",
     "bench_table1_successor"),
    ("T1-upsert", "Table 1 row 3: batched Upsert", "bench_table1_upsert"),
    ("T1-delete", "Table 1 row 4: batched Delete", "bench_table1_delete"),
    ("THM31", "Theorem 3.1: space usage", "bench_space_thm31"),
    ("L21/L22", "Lemmas 2.1/2.2: balls in bins", "bench_balls_in_bins"),
    ("FIG3/L42", "Fig. 3 + Lemma 4.2: contention", "bench_fig3_contention"),
    ("FIG4", "Fig. 4: batch pointer construction/splicing",
     "bench_fig4_batch_pointers"),
    ("THM51", "Theorem 5.1: broadcast ranges", "bench_range_broadcast"),
    ("THM52", "Theorem 5.2: tree ranges", "bench_range_tree"),
    ("BASE", "SS2.2/SS3.1 baseline comparisons", "bench_baselines"),
    ("MODEL", "SS2.1 model mechanics", "bench_model_mechanics"),
    ("ABL", "design-choice ablations", "bench_ablations"),
    ("EXT", "future-work extensions", "bench_extensions"),
    ("SKEW", "the skew spectrum, uniform -> Zipf -> adversarial",
     "bench_skew_spectrum"),
    ("LSM", "the log-structured foil vs the skip list", "bench_lsm"),
    ("FIG2", "Fig. 2: the pointer structure, rendered live",
     "bench_fig2_layout"),
    ("SESSION", "mixed-workload macro-benchmark", "bench_sessions"),
    ("WHP", "whp concentration envelopes across seeds",
     "bench_whp_envelopes"),
    ("OSTAT", "order statistics: rank and distributed selection",
     "bench_order_statistics"),
]


def _repo_benchmarks_dir() -> Optional[str]:
    """The benchmarks/ directory of a source checkout, if present."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cand = os.path.join(here, "benchmarks")
    if os.path.isdir(cand):
        return cand
    cand = os.path.join(os.getcwd(), "benchmarks")
    if os.path.isdir(cand):
        return cand
    return None


def cmd_info(_args: argparse.Namespace) -> int:
    import repro
    from repro.sim.config import default_shared_memory_words

    print(f"repro {repro.__version__} -- executable reproduction of")
    print("'The Processing-in-Memory Model' (Kang et al., SPAA 2021)\n")
    print("model defaults:")
    for p in (8, 64, 512):
        print(f"  P={p:<4} M = {default_shared_memory_words(p)} words, "
              f"min batches: point={p * max(1, p.bit_length() - 1)}, "
              f"search={p * max(1, p.bit_length() - 1) ** 2}")
    print("\nexperiment index (run with: python -m repro reproduce -k ID):")
    for ident, desc, module in EXPERIMENTS:
        print(f"  {ident:<10} {desc:<48} [{module}]")
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    import random

    from repro import PIMMachine, PIMSkipList

    machine = PIMMachine(num_modules=16, seed=1)
    sl = PIMSkipList(machine)
    sl.build((k, k) for k in range(0, 50_000, 5))
    rng = random.Random(0)
    print(f"machine: P={machine.num_modules}, "
          f"M={machine.cpu.shared_memory_words} words; "
          f"skip list with {sl.size} keys\n")

    def show(label, fn):
        before = machine.snapshot()
        fn()
        d = machine.delta_since(before)
        print(f"  {label:<30} io={d.io_time:7.0f} pim={d.pim_time:7.0f} "
              f"rounds={d.rounds:4d} balance={d.pim_balance_ratio:5.2f}")

    stored = list(range(0, 50_000, 5))
    show("batch_get x64",
         lambda: sl.batch_get(rng.sample(stored, 64)))
    show("batch_successor x256",
         lambda: sl.batch_successor([rng.randrange(50_000)
                                     for _ in range(256)]))
    show("batch_upsert x256",
         lambda: sl.batch_upsert([(rng.randrange(500_000) * 5 + 1, 0)
                                  for _ in range(256)]))
    show("batch_delete x256",
         lambda: sl.batch_delete(rng.sample(stored, 256)))
    show("range_broadcast K~2000",
         lambda: sl.range_broadcast(10_000, 20_000, func="count"))
    sl.check_integrity()
    print("\nintegrity verified; try `python -m repro reproduce`")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    bench_dir = _repo_benchmarks_dir()
    if bench_dir is None:
        print("benchmarks/ not found: `reproduce` needs a source checkout",
              file=sys.stderr)
        return 2
    import pytest

    argv: List[str] = [bench_dir, "--benchmark-disable", "-q", "-s"]
    if args.k:
        argv += ["-k", args.k]
    rc = pytest.main(argv)
    out_dir = os.path.join(bench_dir, "out")
    if os.path.isdir(out_dir):
        print(f"\ntables archived under {out_dir}")
    return int(rc)


def cmd_selftest(_args: argparse.Namespace) -> int:
    import pytest

    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    tests = os.path.join(here, "tests")
    if not os.path.isdir(tests):
        tests = os.path.join(os.getcwd(), "tests")
    if not os.path.isdir(tests):
        print("tests/ not found: `selftest` needs a source checkout",
              file=sys.stderr)
        return 2
    return int(pytest.main([tests, "-q"]))


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.cli import main as verify_main

    return verify_main(list(args.rest))


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.cli import main as serve_main

    return serve_main(list(args.rest))


def _fsck_selftest() -> int:
    """Damage a scratch store, then round-trip check -> repair ->
    reopen.  Exercises the same code paths CI's smoke needs without
    touching any real state dir."""
    import shutil
    import tempfile

    from repro.recovery import Checkpoint
    from repro.recovery.durable import (
        DurabilityPolicy,
        DurableStore,
        fsck,
    )

    root = tempfile.mkdtemp(prefix="repro-fsck-selftest-")
    try:
        policy = DurabilityPolicy(os_fsync=False)
        store = DurableStore.open(root, policy)
        store.bootstrap(Checkpoint(kind="skiplist", name="selftest",
                                   payload=[(0, 0)]))
        for i in range(6):
            store.append("upsert", [[i, i]])
        store.crash(b"\x07\x03")  # power cut mid-record: torn tail
        report = fsck(root)
        if report.clean or not any(f.kind == "torn_tail"
                                   for f in report.findings):
            print("fsck selftest FAILED: torn tail not detected")
            return 1
        repaired = fsck(root, repair=True)
        for line in repaired.lines():
            print(line)
        if not repaired.repairable or repaired.lost_records:
            print("fsck selftest FAILED: torn-tail repair should be free")
            return 1
        reopened = DurableStore.open(root, policy)
        records = reopened.report.records
        reopened.close()
        after = fsck(root)
        if not after.clean:
            print("fsck selftest FAILED: dir not clean after repair")
            return 1
        print(f"fsck selftest ok: torn tail detected, repaired, "
              f"reopened with {len(records)} replayable record(s)")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def cmd_fsck(args: argparse.Namespace) -> int:
    if args.selftest:
        return _fsck_selftest()
    if args.state_dir is None:
        print("fsck needs a state dir (or --selftest)", file=sys.stderr)
        return 2
    from repro.recovery.durable import fsck

    report = fsck(args.state_dir, repair=args.repair)
    for line in report.lines():
        print(line)
    if report.clean:
        return 0
    if args.repair and report.repairable:
        # Repaired: the dir is openable again; lost records (if any)
        # were reported above.
        return 0
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # argparse.REMAINDER refuses to swallow a leading flag
    # (`serve --clients 100`), so hand the serve CLI its argv directly.
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Processing-in-Memory Model, executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="versions, defaults, experiment index")
    sub.add_parser("demo", help="one-minute measured tour")
    rep = sub.add_parser("reproduce", help="regenerate the paper's tables")
    rep.add_argument("-k", default=None,
                     help="pytest -k filter (e.g. 'succ or fig3')")
    sub.add_parser("selftest", help="run the test suite")
    ver = sub.add_parser(
        "verify", help="differential verification: fuzz, replay, shrink")
    ver.add_argument("rest", nargs=argparse.REMAINDER,
                     help="verify subcommand and flags "
                          "(try: verify fuzz --help)")
    srv = sub.add_parser(
        "serve", help="drive the resilient serving layer "
                      "(try: serve --clients 100 --chaos intermittent)")
    srv.add_argument("rest", nargs=argparse.REMAINDER,
                     help="serve flags (try: serve --help)")
    fsk = sub.add_parser(
        "fsck", help="check/repair a durable WAL+snapshot state dir")
    fsk.add_argument("state_dir", nargs="?", default=None,
                     help="durable state dir (as given to "
                          "serve --state-dir)")
    fsk.add_argument("--repair", action="store_true",
                     help="truncate torn tails, delete orphan tmps and "
                          "corrupt-but-redundant snapshots; mid-log "
                          "damage is truncated with lost records "
                          "counted honestly")
    fsk.add_argument("--selftest", action="store_true",
                     help="damage a scratch store and round-trip "
                          "check -> repair -> reopen")
    args = parser.parse_args(argv)
    return {
        "info": cmd_info,
        "demo": cmd_demo,
        "reproduce": cmd_reproduce,
        "selftest": cmd_selftest,
        "verify": cmd_verify,
        "serve": cmd_serve,
        "fsck": cmd_fsck,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
