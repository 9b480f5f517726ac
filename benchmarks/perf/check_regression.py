"""Regression gate for the simulator's round engine and its layers.

Re-runs the ``macro_successor`` scenario (the P=128 batched-successor
session from ``bench_wallclock.py``) on the engine (``PIMMachine``,
baseline key ``"columnar"``) and on its per-task reference oracle
(``ReferencePIMMachine``, baseline key ``"object"``) with the
*committed* baseline's own parameters, and gates on **ratios measured
inside this one process**: both sides of a ratio run on the same host
in the same minute, so the host's speed cancels.

- *Speedup floors*: the measured engine-over-reference tasks/sec ratio
  must stay above a conservative floor for each gated scenario.  The
  floors are deliberately below the recorded speedups (macro 1.2x,
  write_churn ~1.15x, forward_chain ~9x, fanout_broadcast ~17x at
  baseline time; write_churn's ratio is too small to carry a
  discriminating floor, so its chunked path is gated by an exact
  count, the share of its tasks run inside batch handlers) so runner
  noise doesn't flake the gate, but a change that quietly collapses the
  array-native path back to per-task speed fails.

Wall seconds against the committed ``BENCH_simwall.json`` are printed
for every measured cell but **not gated**: the baseline's seconds are a
property of the box that recorded them (a +10 % / +25 % gate against
them failed at an unchanged commit on a slower host and would pass any
regression on a faster one).  End-to-end wall-time claims are made
against ``benchmarks/e2e`` with parent/change pairs, not here.

Run this *before* anything overwrites ``BENCH_simwall.json`` in the
working tree (the CI smoke run writes its quick-mode output to a
separate path for exactly that reason).

The script also prints (informationally, not gated -- the protocol's
ack traffic is a real, honestly-charged cost, not a regression) how
much slower the same scenario runs with a zero-rate fault plan
installed, i.e. the price of the reliable-delivery protocol itself.
That run uses the reference oracle explicitly: a fault plan puts the
engine into its documented scalar fallback, so the price is a
scalar-loop property.

The skew-adversary gate reads the committed ``BENCH_pimtree.json``
(see ``bench_pimtree.py``): it re-measures the same-successor
adversary cells for the PIM-tree and the skip list on the simulated
machine -- deterministic metrics, so the re-measurement must equal the
committed numbers exactly (drift means the committed baseline is
stale) -- then enforces the structural inequalities: the PIM-tree's
steady-state adversary batch stays within the committed rounds
ceiling, the plain skip list *exceeds* that same ceiling, and the
PIM-tree's max per-module message load is at most the committed
fraction (0.5) of the skip list's.

The durability gate reads the committed ``BENCH_durable.json`` (see
``bench_durable.py``): the modeled-fsync WAL append throughput must
stay above a conservative fraction (0.25x) of the committed
records/sec, the worst-case restart (longest gated log) must finish
within the inverse ceiling (4x) of the committed RTO, the replay-debt
pair (restart just after a snapshot rotation vs just before the next,
under the manager's amortized checkpoint rule) must replay exactly the
committed record counts, stay within the rule's bound (stored items +
one batch) and keep worst-case RTO within 4x of the best case -- the
recovery bound the write path's amortization is traded against -- and
every re-measured restart must be exact
(``ok``) -- a fast restart to the wrong state is a correctness bug,
not a perf win.  ``--only-durable`` runs just this gate for a CI lane;
``--no-durable`` skips it.

The script also gates the serving layer against the committed
``BENCH_serve.json`` (see ``bench_serve.py``): the fault-free soak's
sustained requests/sec must stay above a conservative fraction of the
recorded baseline (a floor, not a +/- band, for the same anti-flake
reason as the speedup floors), the fault-free refusal/degraded rate
must be **exactly zero** (a fault-free server that refuses has broken
admission or a leaking circuit breaker), and every gated soak must
report the serving SLO intact.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_regression.py
        [--baseline PATH] [--repeat 3] [--no-chaos]
        [--serve-baseline PATH] [--no-serve]
        [--pimtree-baseline PATH] [--no-pimtree]

Exit status 0 when every gate passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from bench_wallclock import BACKENDS, ENGINES, SCENARIOS  # noqa: E402
from repro.sim.profiling import ThroughputProbe  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_simwall.json")
SERVE_BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                                   "BENCH_serve.json")
PIMTREE_BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                                     "BENCH_pimtree.json")
DURABLE_BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                                     "BENCH_durable.json")
GATE_SCENARIO = "macro_successor"

#: WAL append throughput floor and restart-time ceiling, as fractions
#: of the committed BENCH_durable.json numbers.  0.25x/4x is deliberately
#: loose -- these are sub-second cells on shared CI runners; the gate
#: exists to catch "the write path grew an O(n) scan", not scheduler
#: jitter.
DURABLE_THROUGHPUT_FLOOR = 0.25
DURABLE_RTO_CEILING = 4.0

#: Worst-case restart (cut just before a snapshot rotation: restore +
#: a full window of replay) over best-case (cut just after one: restore
#: only).  The amortized cadence bounds the window by the checkpoint's
#: own size, so the ratio is a constant (~2x measured); an unbounded
#: log shows up here as a ratio that grows with the run.
DURABLE_REPLAY_DEBT_CEILING = 4.0

#: The fault-free soak must sustain at least this fraction of the
#: committed baseline's requests/sec.  A floor rather than a +/- band,
#: like the speedup floors: it gates "the serving stack collapsed",
#: not a given CI runner's luck.
SERVE_THROUGHPUT_FLOOR = 0.4

#: Serve scenarios whose SLO verdict is gated (the fault-free one also
#: carries the throughput floor and the zero-refusal ceiling).
SERVE_GATED = ("fault_free", "chaos_intermittent")

# Engine-over-reference tasks/sec floors, per scenario.  Conservative by
# construction: roughly half the speedup recorded in the committed
# baseline, so they gate the existence of the fast path, not the exact
# magnitude of a given runner's luck.
SPEEDUP_FLOORS = {
    "macro_successor": 1.05,
    # The chunked write path and point ops.  Most of a churn cycle is
    # structure and CPU-side work both sides share, so the ratio is small
    # (1.07-1.21x over repeated measurements on a noisy box; 0.99-1.09x
    # with only the search walk chunked) and this floor only says "not
    # slower than the oracle"; CHUNKED_SHARE_FLOOR below is what gates
    # the path's existence.
    "write_churn": 1.02,
    "forward_chain": 4.0,
    "fanout_broadcast": 8.0,
}

#: Share of ``write_churn``'s tasks the engine must run inside batch
#: handlers (``machine.tasks_chunked / tasks_executed``).  An exact
#: count, 0.8965 with the committed parameters -- what stays in slots is
#: ``ups_upper_link`` / ``del_upper`` / ``grow`` -- and 0.30 with only
#: the search walk chunked, so unlike a wall-clock ratio it cannot flake.
CHUNKED_SHARE_SCENARIO = "write_churn"
CHUNKED_SHARE_FLOOR = 0.85


def measure(name: str, params: dict, repeat: int, backend: str,
            **extra) -> dict:
    """Best-of-``repeat`` probe dict for one scenario on the side of
    ``ENGINES`` labelled ``backend``."""
    fn = SCENARIOS[name][0]
    best = None
    for _ in range(repeat):
        probe = fn(ThroughputProbe, machine_cls=ENGINES[backend], **params,
                   **extra)
        if best is None or probe.seconds < best["seconds"]:
            best = probe.as_dict()
    return best


def report_protocol_price(params: dict, repeat: int,
                          fault_free_s: float) -> None:
    """Print (informational) the reliable-delivery protocol's wall-clock
    price: the same scenario with a zero-rate fault plan installed, so
    every stage rides sequence numbers, acks and replay guards but no
    fault ever fires."""
    from repro.sim.chaos import FaultPlan, FaultSpec

    armed = measure(GATE_SCENARIO, params, repeat, backend="object",
                    fault_plan=FaultPlan(FaultSpec(), seed=0))
    print(f"chaos protocol price (informational, reference oracle): "
          f"fault-free {fault_free_s:.3f}s vs zero-rate plan "
          f"{armed['seconds']:.3f}s "
          f"({armed['seconds'] / fault_free_s:.2f}x)")


def check_serve(baseline_path: str, repeat: int,
                failures: list) -> None:
    """Gate the serving layer against the committed BENCH_serve.json.

    - throughput floor: the fault-free soak's measured requests/sec
      must be >= ``SERVE_THROUGHPUT_FLOOR`` x the recorded baseline;
    - refusal ceiling: the fault-free soak must refuse or degrade
      **zero** requests (rate exactly 0.0);
    - SLO: every gated scenario's soak report must verify clean
      (replay-exact answers, typed refusals only, no hangs).
    """
    from bench_serve import run_scenario

    with open(baseline_path) as f:
        doc = json.load(f)
    if doc.get("config", {}).get("quick"):
        failures.append(f"{baseline_path} is a --quick run; the serve gate "
                        "needs a full-parameter baseline")
        return
    for name in SERVE_GATED:
        base = doc["scenarios"][name]
        best = None
        for _ in range(repeat):
            rec = run_scenario(name, base["params"])
            if best is None or rec["seconds"] < best["seconds"]:
                best = rec
        if name == "fault_free":
            floor = base["requests_per_sec"] * SERVE_THROUGHPUT_FLOOR
            print(f"serve {name}: baseline "
                  f"{base['requests_per_sec']:.0f} req/s, measured "
                  f"{best['requests_per_sec']:.0f} req/s "
                  f"(floor {floor:.0f}), refusal rate "
                  f"{best['refusal_rate']:.3f} (ceiling 0)")
            if best["requests_per_sec"] < floor:
                failures.append(
                    f"serve {name} throughput "
                    f"{best['requests_per_sec']:.0f} req/s is below the "
                    f"{SERVE_THROUGHPUT_FLOOR:.0%}-of-baseline floor "
                    f"({floor:.0f} req/s)")
            if best["refusal_rate"] != 0.0:
                failures.append(
                    f"serve {name} refused/degraded "
                    f"{best['refused'] + best['degraded']} request(s) "
                    "with no faults installed (ceiling is exactly 0)")
        else:
            print(f"serve {name}: {best['requests_per_sec']:.0f} req/s, "
                  f"p99 {best['latency_p99_ticks']} ticks, "
                  f"recoveries {best['recoveries']}, "
                  f"{'ok' if best['ok'] else 'SLO VIOLATED'}")
        if not best["ok"]:
            failures.append(f"serve {name} soak violated the serving SLO")


def check_pimtree(baseline_path: str, failures: list) -> None:
    """The skew-adversary gate against the committed BENCH_pimtree.json.

    Re-measures the adversary cells for the PIM-tree and the skip list
    (simulated-machine metrics: deterministic, so a mismatch against
    the committed numbers is a stale baseline, not runner noise), then
    enforces the structural inequalities the tree exists for:

    - ``pimtree rounds <= rounds_ceiling < skiplist rounds`` -- the
      tree's shallow pull-collapsed descent vs the skip list's
      Theta(log n) lockstep pointer walk;
    - ``pimtree max module load <= load_ratio_ceiling x skiplist's``.
    """
    from bench_pimtree import (
        ADVERSARY,
        CONTESTANTS,
        make_workloads,
        measure_cell,
    )
    from repro.workloads import build_items

    with open(baseline_path) as f:
        doc = json.load(f)
    cfg = doc["config"]
    if cfg.get("quick"):
        failures.append(f"{baseline_path} is a --quick run; the skew gate "
                        "needs the full-parameter baseline")
        return
    gates = doc["gates"]
    items = build_items(cfg["n"], stride=1000)
    keys = [k for k, _ in items]
    batch = make_workloads(keys, cfg["batch"], cfg["seed"])[ADVERSARY]
    got = {name: measure_cell(CONTESTANTS[name], items, batch,
                              P=cfg["P"], seed=cfg["seed"])
           for name in ("pimtree", "skiplist")}
    print(f"pimtree skew adversary (P={cfg['P']}, B={cfg['batch']}): "
          f"tree {got['pimtree']['rounds']} rounds / load "
          f"{got['pimtree']['max_module_load']}, skiplist "
          f"{got['skiplist']['rounds']} rounds / load "
          f"{got['skiplist']['max_module_load']}, ceiling "
          f"{gates['rounds_ceiling']} rounds, load ratio ceiling "
          f"{gates['load_ratio_ceiling']}")
    for name, rk, lk in (("pimtree", "pimtree_rounds", "pimtree_load"),
                         ("skiplist", "skiplist_rounds", "skiplist_load")):
        if (got[name]["rounds"] != gates[rk]
                or got[name]["max_module_load"] != gates[lk]):
            failures.append(
                f"pimtree gate: measured {name} adversary metrics "
                f"({got[name]['rounds']} rounds, load "
                f"{got[name]['max_module_load']}) differ from the "
                f"committed baseline ({gates[rk]} rounds, load "
                f"{gates[lk]}); regenerate BENCH_pimtree.json")
    if got["pimtree"]["rounds"] > gates["rounds_ceiling"]:
        failures.append(
            f"pimtree adversary batch took {got['pimtree']['rounds']} "
            f"rounds, above the {gates['rounds_ceiling']}-round ceiling")
    if got["skiplist"]["rounds"] <= gates["rounds_ceiling"]:
        failures.append(
            f"skiplist adversary batch took {got['skiplist']['rounds']} "
            f"rounds, inside the {gates['rounds_ceiling']}-round ceiling "
            "-- the adversary no longer separates the structures")
    sl_load = got["skiplist"]["max_module_load"]
    ratio = (got["pimtree"]["max_module_load"] / sl_load) if sl_load else 0.0
    if ratio > gates["load_ratio_ceiling"]:
        failures.append(
            f"pimtree adversary max module load is {ratio:.2f}x the "
            f"skiplist's (ceiling {gates['load_ratio_ceiling']})")


def check_durable(baseline_path: str, repeat: int,
                  failures: list) -> None:
    """Gate durability against the committed BENCH_durable.json.

    - WAL append floor: measured modeled-fsync records/sec must be
      >= ``DURABLE_THROUGHPUT_FLOOR`` x the committed number;
    - RTO ceiling: the longest committed log-length cell, re-measured,
      must restart within ``DURABLE_RTO_CEILING`` x its committed RTO;
    - replay debt: the committed after/before-snapshot pair,
      re-measured, must replay the committed record counts exactly,
      at most (checkpoint items + one batch) items, and restart within
      ``DURABLE_REPLAY_DEBT_CEILING`` x of each other;
    - exactness: every re-measured restart must report ``ok``.
    """
    from bench_durable import bench_restart, bench_wal_append

    with open(baseline_path) as f:
        doc = json.load(f)
    if doc.get("config", {}).get("quick"):
        failures.append(f"{baseline_path} is a --quick run; the durable "
                        "gate needs a full-parameter baseline")
        return

    base_append = doc["wal_append"]
    best = None
    for _ in range(repeat):
        rec = bench_wal_append(base_append["records"],
                               base_append["pairs_per_record"],
                               os_fsync=False)
        if best is None or rec["seconds"] < best["seconds"]:
            best = rec
    floor = base_append["records_per_sec"] * DURABLE_THROUGHPUT_FLOOR
    print(f"durable wal_append: baseline "
          f"{base_append['records_per_sec']:.0f} rec/s, measured "
          f"{best['records_per_sec']:.0f} rec/s (floor {floor:.0f})")
    if best["records_per_sec"] < floor:
        failures.append(
            f"durable WAL append {best['records_per_sec']:.0f} rec/s is "
            f"below the {DURABLE_THROUGHPUT_FLOOR:.0%}-of-baseline floor "
            f"({floor:.0f} rec/s)")

    base_cell = max(doc["rto_log_length"], key=lambda c: c["mutations"])
    got = bench_restart(base_cell["mutations"],
                        base_cell["checkpoint_every"], repeat)
    limit = base_cell["rto_seconds"] * DURABLE_RTO_CEILING
    print(f"durable rto log={base_cell['mutations']}: baseline "
          f"{base_cell['rto_seconds']:.3f}s, measured "
          f"{got['rto_seconds']:.3f}s (ceiling {limit:.3f}s), "
          f"replayed {got['replayed_records']} record(s), "
          f"{'ok' if got['ok'] else 'RESTART WRONG'}")
    if got["rto_seconds"] > limit:
        failures.append(
            f"durable restart of a {base_cell['mutations']}-record log "
            f"took {got['rto_seconds']:.3f}s, above the "
            f"{DURABLE_RTO_CEILING:.0f}x-baseline ceiling ({limit:.3f}s)")
    if not got["ok"]:
        failures.append("durable restart re-measurement was not exact")

    debt = doc["rto_replay_debt"]
    cells = {}
    for label in ("after_snapshot", "before_snapshot"):
        base = debt[label]
        cell = cells[label] = bench_restart(
            base["mutations"], base["checkpoint_every"], repeat)
        if cell["replayed_records"] != base["replayed_records"]:
            failures.append(
                f"durable restart {label} replayed "
                f"{cell['replayed_records']} record(s), committed "
                f"baseline says {base['replayed_records']}: the "
                f"checkpoint cadence changed (re-emit BENCH_durable.json "
                f"if intended)")
        if not cell["ok"]:
            failures.append(f"durable restart {label} was not exact")
    best, worst = cells["after_snapshot"], cells["before_snapshot"]
    ratio = worst["rto_seconds"] / best["rto_seconds"]
    print(f"durable rto replay debt: after snapshot "
          f"{best['rto_seconds']:.3f}s ({best['replayed_items']} items "
          f"replayed), before the next {worst['rto_seconds']:.3f}s "
          f"({worst['replayed_items']} items over a "
          f"{worst['checkpoint_items']}-item checkpoint), worst/best "
          f"{ratio:.2f}x (ceiling {DURABLE_REPLAY_DEBT_CEILING:.0f}x)")
    bound = worst["checkpoint_items"] + debt["batch_items"]
    if worst["replayed_items"] > bound:
        failures.append(
            f"durable replay debt {worst['replayed_items']} items exceeds "
            f"the amortized rule's bound (checkpoint "
            f"{worst['checkpoint_items']} + one batch "
            f"{debt['batch_items']})")
    if ratio > DURABLE_REPLAY_DEBT_CEILING:
        failures.append(
            f"durable worst-case restart is {ratio:.2f}x the best case, "
            f"above the {DURABLE_REPLAY_DEBT_CEILING:.0f}x ceiling -- "
            f"replay debt is no longer a constant factor of the restore")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=BASELINE_PATH,
                    help="baseline JSON (default: committed BENCH_simwall)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs; best is compared (default 3)")
    ap.add_argument("--no-chaos", action="store_true",
                    help="skip the informational protocol-price line")
    ap.add_argument("--serve-baseline", default=SERVE_BASELINE_PATH,
                    help="serving baseline JSON (default: committed "
                         "BENCH_serve)")
    ap.add_argument("--no-serve", action="store_true",
                    help="skip the serving-layer gates")
    ap.add_argument("--pimtree-baseline", default=PIMTREE_BASELINE_PATH,
                    help="skew-adversary baseline JSON (default: committed "
                         "BENCH_pimtree)")
    ap.add_argument("--no-pimtree", action="store_true",
                    help="skip the skew-adversary gate")
    ap.add_argument("--only-pimtree", action="store_true",
                    help="run only the skew-adversary gate (it is exact "
                         "and machine-independent, so a CI lane can run "
                         "it without the wall-clock floors' noise)")
    ap.add_argument("--durable-baseline", default=DURABLE_BASELINE_PATH,
                    help="durability baseline JSON (default: committed "
                         "BENCH_durable)")
    ap.add_argument("--no-durable", action="store_true",
                    help="skip the durability gates")
    ap.add_argument("--only-durable", action="store_true",
                    help="run only the durability gates (WAL throughput "
                         "floor + RTO ceiling + replay-debt bound) "
                         "for a CI lane")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1, got {args.repeat}")
    if args.only_pimtree and args.no_pimtree:
        ap.error("--only-pimtree and --no-pimtree are mutually exclusive")
    if args.only_durable and args.no_durable:
        ap.error("--only-durable and --no-durable are mutually exclusive")
    if args.only_pimtree and args.only_durable:
        ap.error("--only-pimtree and --only-durable are mutually exclusive")
    if args.only_pimtree:
        failures: list = []
        check_pimtree(args.pimtree_baseline, failures)
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        if not failures:
            print("ok: skew-adversary gate passed")
        return 1 if failures else 0
    if args.only_durable:
        failures = []
        check_durable(args.durable_baseline, args.repeat, failures)
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        if not failures:
            print("ok: durability gates passed")
        return 1 if failures else 0

    with open(args.baseline) as f:
        doc = json.load(f)
    if doc.get("config", {}).get("quick"):
        print(f"error: {args.baseline} is a --quick run; the gate needs a "
              "full-parameter baseline", file=sys.stderr)
        return 1
    if "backends" not in doc:
        print(f"error: {args.baseline} predates the \"backends\" schema; "
              "regenerate it with bench_wallclock.py", file=sys.stderr)
        return 1

    failures = []

    # -- the macro scenario, engine and reference (wall: informational) ---
    measured: dict = {}
    for backend in BACKENDS:
        base = doc["backends"][backend]["scenarios"][GATE_SCENARIO]
        got = measure(GATE_SCENARIO, base["params"], args.repeat, backend)
        measured[backend] = got
        print(f"{GATE_SCENARIO} [{backend}]: baseline {base['seconds']:.3f}s, "
              f"measured {got['seconds']:.3f}s "
              f"({got['seconds'] / base['seconds']:.2f}x, not gated) "
              f"params={base['params']}")

    # -- engine-over-reference speedup floors ----------------------------
    for name, floor in SPEEDUP_FLOORS.items():
        if name == GATE_SCENARIO:
            per_backend = measured
        else:
            params = doc["backends"]["object"]["scenarios"][name]["params"]
            per_backend = {b: measure(name, params, args.repeat, b)
                           for b in BACKENDS}
        obj_tps = per_backend["object"]["tasks_per_sec"]
        col_tps = per_backend["columnar"]["tasks_per_sec"]
        speedup = col_tps / obj_tps if obj_tps > 0 else 0.0
        status = "ok" if speedup >= floor else "FAIL"
        print(f"speedup floor {name:<18} columnar {speedup:5.2f}x "
              f"(floor {floor:.2f}x) {status}")
        if speedup < floor:
            failures.append(
                f"{name} columnar speedup {speedup:.2f}x below the "
                f"{floor:.2f}x floor")

    # -- chunked-task share (an exact count, not a timing) ---------------
    params = doc["backends"]["columnar"]["scenarios"][
        CHUNKED_SHARE_SCENARIO]["params"]
    machine = SCENARIOS[CHUNKED_SHARE_SCENARIO][0](
        ThroughputProbe, machine_cls=ENGINES["columnar"], **params).machine
    share = machine.tasks_chunked / machine.tasks_executed
    status = "ok" if share >= CHUNKED_SHARE_FLOOR else "FAIL"
    print(f"chunked share {CHUNKED_SHARE_SCENARIO:<18} {share:.4f} of "
          f"{machine.tasks_executed} tasks (floor "
          f"{CHUNKED_SHARE_FLOOR:.2f}) {status}")
    if share < CHUNKED_SHARE_FLOOR:
        failures.append(
            f"{CHUNKED_SHARE_SCENARIO} runs {share:.1%} of its tasks in "
            f"batch handlers, below the {CHUNKED_SHARE_FLOOR:.0%} floor -- "
            "a write-path function fell back to slots")

    if not args.no_serve:
        check_serve(args.serve_baseline, args.repeat, failures)

    if not args.no_pimtree:
        check_pimtree(args.pimtree_baseline, failures)

    if not args.no_durable:
        check_durable(args.durable_baseline, args.repeat, failures)

    if not args.no_chaos:
        report_protocol_price(
            doc["backends"]["object"]["scenarios"][GATE_SCENARIO]["params"],
            args.repeat, measured["object"]["seconds"])

    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        return 1
    print("ok: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
