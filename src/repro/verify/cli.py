"""``python -m repro verify fuzz|replay|shrink|chaos|faults``.

- ``fuzz`` -- generate N seeded sessions, differentially replay each
  against every implementation (plus the FIFO/priority-queue container
  checks), and on divergence shrink the session and write a replayable
  repro file.  Exit code 1 if anything diverged.  ``--faults`` layers
  registered faults on top (``--faults list`` enumerates the registry).
- ``replay`` -- re-run one repro JSON file (or every file in a
  directory) and report whether it still diverges.  Repros carrying a
  ``fault_schedule`` replay through the chaos harness.
- ``shrink`` -- minimize an existing repro file in place.
- ``chaos`` -- sweep fuzz sessions across machine-level fault
  schedules: result equivalence under faults, round-overhead
  envelopes, bit-identical reruns, and container checks on a faulty
  machine.
- ``soak`` -- chaos-soak the serving layer (:mod:`repro.serve`):
  concurrent synthetic clients vs the sequential oracle under machine
  fault schedules; every answer must match a sequential replay of the
  server's journal or be a typed refusal, and fault-free runs must
  refuse nothing.
- ``durable`` -- certify crash-consistent persistence
  (:mod:`repro.recovery.durable`): kill the store at every acked
  record boundary and demand the restart equals the oracle's acked
  prefix, then inject every registered disk fault into a completed
  state dir and demand fsck or recovery catches it.
- ``faults`` -- print the unified fault registry.

``fuzz``, ``chaos``, ``soak`` and ``durable`` exit non-zero on any
failure and, when a repro was written, print its path on the **last
line** of output so scripts can ``tail -1`` straight into ``replay``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from repro.verify.chaos import (
    MESSAGE_SCHEDULES,
    STRUCTURE_FACTORIES,
    chaos_containers,
    chaos_session,
    check_chaos_determinism,
)
from repro.verify.differ import verify_containers, verify_session
from repro.verify.faults import describe_faults, get_fault
from repro.verify.fuzz import fuzz_session
from repro.verify.shrink import (
    load_repro,
    session_from_dict,
    shrink_session,
    write_repro,
)
from repro.sim.chaos import MACHINE_SCHEDULES

DEFAULT_REPRO_DIR = os.path.join("tests", "golden", "repros")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--modules", type=int, default=8,
                   help="PIM modules per machine (default 8)")
    p.add_argument("--impls", default=None,
                   help="comma-separated implementation names "
                        "(default: all)")
    p.add_argument("--no-metamorphic", action="store_true",
                   help="skip split-monotonicity / round-envelope checks")
    p.add_argument("--no-determinism", action="store_true",
                   help="skip the bit-identical rerun check")
    p.add_argument("--no-backends", action="store_true",
                   help="skip the cross-engine equivalence replay on "
                        "the per-task reference oracle")
    p.add_argument("--read-groups", action="store_true",
                   help="replay runs of consecutive read batches as one "
                        "apply_reads call on the structures that declare "
                        "shared reads (what a shared-read serve tick "
                        "sends)")


def _impl_list(args: argparse.Namespace) -> Optional[List[str]]:
    if args.impls is None:
        return None
    return [s.strip() for s in args.impls.split(",") if s.strip()]


def _verify_kwargs(args: argparse.Namespace) -> dict:
    return {
        "impls": _impl_list(args),
        "num_modules": args.modules,
        "check_metamorphic": not args.no_metamorphic,
        "check_determinism": not args.no_determinism,
        "check_backends": not args.no_backends,
        "read_groups": args.read_groups,
    }


def _parse_faults(spec: str) -> Tuple[Optional[tuple], List[str]]:
    """Split a ``--faults`` list into (adapter/storage (impl, name),
    machine schedule names).  Adapter and storage names accept an
    ``IMPL:`` prefix and default to the skip list."""
    adapter = None
    schedules: List[str] = []
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        impl, _, rest = token.partition(":")
        name = rest if rest else token
        defn = get_fault(name)  # raises on unknown names
        if defn.level == "machine":
            if rest:
                raise ValueError(
                    f"machine fault {name!r} takes no IMPL: prefix")
            schedules.append(name)
        else:
            if adapter is not None:
                raise ValueError("at most one adapter fault per run")
            adapter = (impl if rest else "skiplist", name)
    return adapter, schedules


def cmd_fuzz(args: argparse.Namespace) -> int:
    fault = None
    chaos_schedules: List[str] = []
    if args.faults:
        if args.faults.strip() == "list":
            print(describe_faults())
            return 0
        try:
            fault, chaos_schedules = _parse_faults(args.faults)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.inject_fault:
        impl, _, name = args.inject_fault.partition(":")
        if not name:
            print("--inject-fault wants IMPL:FAULT "
                  "(e.g. skiplist:drop_get)", file=sys.stderr)
            return 2
        if fault is not None:
            print("--inject-fault conflicts with an adapter fault in "
                  "--faults", file=sys.stderr)
            return 2
        fault = (impl, name)
    failures = 0
    repro_paths: List[str] = []
    for i in range(args.sessions):
        seed = args.seed + i
        session = fuzz_session(seed, num_batches=args.batches,
                               batch_size=args.batch_size,
                               read_only=args.read_only)
        report = verify_session(session, fault=fault,
                                **_verify_kwargs(args))
        container_divs = verify_containers(seed, num_modules=args.modules)
        chaos_divs = []
        for schedule in chaos_schedules:
            cr = chaos_session(seed, schedule, args.fault_seed,
                               num_modules=args.modules, session=session)
            chaos_divs += cr.divergences
        print(report.summary()
              + (f" + {len(container_divs)} container divergence(s)"
                 if container_divs else "")
              + (f" + {len(chaos_divs)} chaos divergence(s)"
                 if chaos_divs else ""))
        for d in container_divs + chaos_divs:
            print(f"  {d}")
        if report.ok and not container_divs and not chaos_divs:
            continue
        failures += 1
        for d in report.divergences:
            print(f"  {d}")
        if report.divergences and not args.no_shrink:
            path = _shrink_and_write(session, args, fault)
            repro_paths.append(path)
            print(f"  shrunk repro written: {path}")
    if failures:
        print(f"\n{failures}/{args.sessions} session(s) diverged")
        if repro_paths:
            # Contract: on divergence the repro path is the LAST line,
            # so scripts (and humans) can tail -1 straight into replay.
            print(repro_paths[-1])
        return 1
    print(f"\nall {args.sessions} session(s) verified clean "
          f"({args.batches} batches x {args.batch_size} each, "
          f"P={args.modules}"
          + (f", chaos: {','.join(chaos_schedules)}" if chaos_schedules
             else "") + ")")
    return 0


def _shrink_and_write(session, args: argparse.Namespace, fault) -> str:
    kwargs = _verify_kwargs(args)

    def is_failing(candidate) -> bool:
        return not verify_session(candidate, fault=fault, **kwargs).ok

    small = shrink_session(session, is_failing, max_evals=args.max_evals)
    report = verify_session(small, fault=fault, **kwargs)
    os.makedirs(args.repro_dir, exist_ok=True)
    path = os.path.join(args.repro_dir, f"seed{session.seed}.json")
    impls = kwargs["impls"]
    return write_repro(
        small, path, divergences=report.divergences,
        impls=list(impls) if impls else None,
        num_modules=args.modules, read_groups=args.read_groups,
        note=(f"shrunk from a {len(session.batches)}-batch fuzz session"
              + (f" with injected fault {fault[0]}:{fault[1]}" if fault
                 else "")))


def _replay_soak(path: str, data: dict) -> bool:
    """Re-run a soak repro; returns True when it (still) fails."""
    from repro.verify.soak import check_soak_determinism, soak_session

    kwargs = dict(clients=int(data["clients"]),
                  ops_per_client=int(data["ops_per_client"]),
                  seed=int(data["seed"]),
                  num_modules=int(data["num_modules"]),
                  structure=data.get("structure", "skiplist"))
    schedule = data["schedule"]
    fault_seed = int(data["fault_seed"])
    if data.get("check") == "determinism":
        same, first, second = check_soak_determinism(
            schedule, fault_seed, **kwargs)
        tag = "clean" if same else "STILL NOT DETERMINISTIC"
        print(f"{path}: soak determinism {schedule!r} -> {tag}")
        if not same:
            print(f"  {first[:16]}... != {second[:16]}...")
        return not same
    report = soak_session(schedule, fault_seed, **kwargs)
    tag = "STILL VIOLATES" if not report.ok else "clean"
    print(f"{path}: {report.summary()} -> {tag}")
    for v in report.violations:
        print(f"  {v}")
    return not report.ok


def _replay_durable(path: str, data: dict) -> bool:
    """Re-run a durable-sweep repro; returns True when it still fails."""
    from repro.verify.durable import fault_sweep, kill_sweep

    kwargs = dict(fault_seed=int(data["fault_seed"]),
                  num_batches=int(data["num_batches"]),
                  batch_size=int(data["batch_size"]),
                  num_modules=int(data["num_modules"]),
                  checkpoint_every=int(data["checkpoint_every"]))
    if data["mode"] == "fault":
        report = fault_sweep(int(data["session_seed"]),
                             faults=data.get("faults"), **kwargs)
    else:
        report = kill_sweep(int(data["session_seed"]), **kwargs)
    tag = "STILL VIOLATES" if not report.ok else "clean"
    print(f"{path}: {report.summary()} -> {tag}")
    for v in report.violations:
        print(f"  {v}")
    return not report.ok


def _replay_one(path: str, args: argparse.Namespace) -> bool:
    """Replay one repro file; returns True when it (still) diverges."""
    data = load_repro(path)
    kind = data.get("kind")
    if kind == "soak":
        return _replay_soak(path, data)
    if kind == "durable":
        return _replay_durable(path, data)
    session = session_from_dict(data)
    num_modules = args.modules
    if data.get("num_modules") and args.modules == 8:
        num_modules = data["num_modules"]
    schedule = data.get("fault_schedule")
    if schedule is not None:
        # Chaos repro: replay under the recorded machine fault schedule.
        report = chaos_session(session.seed, schedule,
                               int(data.get("fault_seed", 0)),
                               num_modules=num_modules, session=session)
        tag = "DIVERGES" if not report.ok else "clean"
        print(f"{path}: {len(session.batches)} batch(es) under "
              f"{schedule!r} (fault_seed={report.fault_seed}) -> {tag}")
        for d in report.divergences:
            print(f"  {d}")
        return not report.ok
    kwargs = _verify_kwargs(args)
    if args.impls is None and data.get("impls"):
        kwargs["impls"] = data["impls"]
    kwargs["num_modules"] = num_modules
    kwargs["read_groups"] = args.read_groups or bool(data.get("read_groups"))
    report = verify_session(session, **kwargs)
    tag = "DIVERGES" if not report.ok else "clean"
    print(f"{path}: {len(session.batches)} batch(es) -> {tag}")
    for d in report.divergences:
        print(f"  {d}")
    return not report.ok


def cmd_replay(args: argparse.Namespace) -> int:
    explicit = bool(args.paths)
    paths: List[str] = []
    for target in args.paths or [DEFAULT_REPRO_DIR]:
        if os.path.isdir(target):
            paths += sorted(os.path.join(target, f)
                            for f in os.listdir(target)
                            if f.endswith(".json"))
        elif os.path.isfile(target):
            paths.append(target)
        elif explicit:
            print(f"no such repro file or directory: {target}",
                  file=sys.stderr)
            return 2
    if not paths:
        print("no repro files found", file=sys.stderr)
        return 2
    diverged = sum(_replay_one(p, args) for p in paths)
    if diverged and not args.expect_divergence:
        return 1
    if args.expect_divergence and diverged != len(paths):
        print(f"expected every repro to diverge; "
              f"{len(paths) - diverged} replayed clean", file=sys.stderr)
        return 1
    return 0


def cmd_shrink(args: argparse.Namespace) -> int:
    data = load_repro(args.path)
    session = session_from_dict(data)
    kwargs = _verify_kwargs(args)
    if args.impls is None and data.get("impls"):
        kwargs["impls"] = data["impls"]
    kwargs["read_groups"] = args.read_groups or bool(data.get("read_groups"))

    def is_failing(candidate) -> bool:
        return not verify_session(candidate, **kwargs).ok

    if not is_failing(session):
        print(f"{args.path}: replays clean -- nothing to shrink")
        return 0
    before = len(session.batches)
    small = shrink_session(session, is_failing, max_evals=args.max_evals)
    report = verify_session(small, **kwargs)
    out = args.out or args.path
    write_repro(small, out, divergences=report.divergences,
                impls=kwargs["impls"],
                num_modules=kwargs["num_modules"],
                read_groups=kwargs["read_groups"],
                note=f"re-shrunk from {before} batch(es)")
    print(f"{args.path}: {before} -> {len(small.batches)} batch(es), "
          f"written to {out}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.schedules == "all":
        schedules = list(MACHINE_SCHEDULES)
    else:
        schedules = [s.strip() for s in args.schedules.split(",")
                     if s.strip()]
        for s in schedules:
            if s not in MACHINE_SCHEDULES:
                print(f"unknown fault schedule {s!r}; known: "
                      f"{', '.join(sorted(MACHINE_SCHEDULES))}",
                      file=sys.stderr)
                return 2
    failures = 0
    runs = 0
    repro_paths: List[str] = []
    for schedule in schedules:
        for i in range(args.sessions):
            seed = args.seed + i
            report = chaos_session(
                seed, schedule, args.fault_seed,
                num_modules=args.modules, num_batches=args.batches,
                batch_size=args.batch_size, structure=args.structure)
            runs += 1
            print(report.summary())
            if report.ok:
                continue
            failures += 1
            for d in report.divergences:
                print(f"  {d}")
            if not args.no_shrink:
                path = _shrink_chaos_and_write(seed, schedule, args)
                repro_paths.append(path)
                print(f"  shrunk chaos repro written: {path}")
        if not args.no_determinism:
            div = check_chaos_determinism(
                args.seed, schedule, args.fault_seed,
                num_modules=args.modules, num_batches=args.batches,
                batch_size=args.batch_size, structure=args.structure)
            if div is not None:
                failures += 1
                print(f"  {div}")
        if not args.no_containers and schedule in MESSAGE_SCHEDULES:
            divs = chaos_containers(args.seed, schedule, args.fault_seed,
                                    num_modules=args.modules)
            if divs:
                failures += 1
                for d in divs:
                    print(f"  {d}")
    if failures:
        print(f"\n{failures} chaos failure(s) across {runs} session(s)")
        if repro_paths:
            # Same contract as fuzz: repro path on the last line.
            print(repro_paths[-1])
        return 1
    print(f"\nall {runs} chaos session(s) exact "
          f"({len(schedules)} schedule(s), fault_seed={args.fault_seed}, "
          f"P={args.modules})")
    return 0


def _shrink_chaos_and_write(seed: int, schedule: str,
                            args: argparse.Namespace) -> str:
    session = fuzz_session(seed, num_batches=args.batches,
                           batch_size=args.batch_size)

    def is_failing(candidate) -> bool:
        return not chaos_session(seed, schedule, args.fault_seed,
                                 num_modules=args.modules,
                                 session=candidate).ok

    small = shrink_session(session, is_failing, max_evals=args.max_evals)
    report = chaos_session(seed, schedule, args.fault_seed,
                           num_modules=args.modules, session=small)
    os.makedirs(args.repro_dir, exist_ok=True)
    path = os.path.join(args.repro_dir,
                        f"seed{seed}-{schedule}-f{args.fault_seed}.json")
    return write_repro(
        small, path, divergences=report.divergences,
        num_modules=args.modules, fault_schedule=schedule,
        fault_seed=args.fault_seed,
        note=(f"shrunk from a {len(session.batches)}-batch chaos session "
              f"under schedule {schedule!r}"))


def _write_param_repro(path: str, data: dict) -> str:
    """Write a parameter-replay repro (soak/durable): no session body,
    just the knobs ``verify replay`` needs to re-run the harness."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.verify.soak import check_soak_determinism, soak_session

    if args.schedules == "all":
        schedules = ["none"] + sorted(MACHINE_SCHEDULES)
    else:
        schedules = [s.strip() for s in args.schedules.split(",")
                     if s.strip()]
        for s in schedules:
            if s != "none" and s not in MACHINE_SCHEDULES:
                print(f"unknown fault schedule {s!r}; known: none, "
                      f"{', '.join(sorted(MACHINE_SCHEDULES))}",
                      file=sys.stderr)
                return 2
    fault_seeds = [int(s) for s in str(args.fault_seeds).split(",")
                   if s.strip() != ""]
    failures = 0
    runs = 0
    repro_paths: List[str] = []

    def _soak_repro(schedule: str, fault_seed: int, *, check: str,
                    clients: int, violations: List[str]) -> None:
        data = {
            "kind": "soak", "check": check, "schedule": schedule,
            "fault_seed": fault_seed, "clients": clients,
            "ops_per_client": args.ops, "seed": args.seed,
            "num_modules": args.modules, "structure": args.structure,
            "violations": violations[:20],
        }
        path = os.path.join(
            args.repro_dir,
            f"soak-{schedule}-f{fault_seed}-s{args.seed}.json")
        repro_paths.append(_write_param_repro(path, data))
        print(f"  soak repro written: {path}")

    for schedule in schedules:
        for fault_seed in (fault_seeds if schedule != "none" else [0]):
            report = soak_session(
                schedule, fault_seed, clients=args.clients,
                ops_per_client=args.ops, seed=args.seed,
                num_modules=args.modules, structure=args.structure)
            runs += 1
            print(report.summary())
            if not report.ok:
                failures += 1
                for v in report.violations:
                    print(f"  {v}")
                _soak_repro(schedule, fault_seed, check="slo",
                            clients=args.clients,
                            violations=[str(v) for v in report.violations])
        if not args.no_determinism:
            det_seed = fault_seeds[0] if schedule != "none" else 0
            det_clients = min(args.clients, 32)
            same, first, second = check_soak_determinism(
                schedule, det_seed, clients=det_clients,
                ops_per_client=args.ops, seed=args.seed,
                num_modules=args.modules, structure=args.structure)
            if not same:
                failures += 1
                print(f"  soak {schedule!r} is NOT deterministic: "
                      f"{first[:16]}... != {second[:16]}...")
                _soak_repro(schedule, det_seed, check="determinism",
                            clients=det_clients,
                            violations=[f"{first} != {second}"])
    if failures:
        print(f"\n{failures} soak failure(s) across {runs} run(s)")
        if repro_paths:
            # Same contract as fuzz/chaos: repro path on the last line.
            print(repro_paths[-1])
        return 1
    print(f"\nall {runs} soak run(s) clean ({args.clients} clients x "
          f"{args.ops} ops, {len(schedules)} schedule(s), "
          f"P={args.modules}, structure={args.structure})")
    return 0


def cmd_durable(args: argparse.Namespace) -> int:
    from repro.verify.durable import (
        check_durable_determinism,
        fault_sweep,
        kill_sweep,
    )
    from repro.verify.faults import DISK_FAULTS

    if args.faults is None:
        faults: Optional[List[str]] = None
    else:
        faults = [s.strip() for s in args.faults.split(",") if s.strip()]
        for name in faults:
            if name not in DISK_FAULTS:
                print(f"unknown disk fault {name!r}; known: "
                      f"{', '.join(sorted(DISK_FAULTS))}", file=sys.stderr)
                return 2
    session_seeds = [int(s) for s in str(args.seeds).split(",")
                     if s.strip() != ""]
    fault_seeds = [int(s) for s in str(args.fault_seeds).split(",")
                   if s.strip() != ""]
    kwargs = dict(num_batches=args.batches, batch_size=args.batch_size,
                  num_modules=args.modules,
                  checkpoint_every=args.checkpoint_every)
    failures = 0
    runs = 0
    repro_paths: List[str] = []

    def _durable_repro(report) -> None:
        data = dict(kind="durable", mode=report.mode,
                    session_seed=report.session_seed,
                    fault_seed=report.fault_seed, faults=faults,
                    violations=[str(v) for v in report.violations][:20],
                    **kwargs)
        path = os.path.join(
            args.repro_dir,
            f"durable-{report.mode}-s{report.session_seed}"
            f"-f{report.fault_seed}.json")
        repro_paths.append(_write_param_repro(path, data))
        print(f"  durable repro written: {path}")

    for session_seed in session_seeds:
        for fault_seed in fault_seeds:
            for report in (
                    kill_sweep(session_seed, fault_seed=fault_seed,
                               **kwargs),
                    fault_sweep(session_seed, fault_seed=fault_seed,
                                faults=faults, **kwargs)):
                runs += 1
                print(report.summary())
                if report.ok:
                    continue
                failures += 1
                for v in report.violations:
                    print(f"  {v}")
                _durable_repro(report)
        if not args.no_determinism:
            same, first, second = check_durable_determinism(
                session_seed, fault_seed=fault_seeds[0], **kwargs)
            if not same:
                failures += 1
                print(f"  durable kill sweep seed={session_seed} is NOT "
                      f"deterministic: {first[:16]}... != {second[:16]}...")
    if failures:
        print(f"\n{failures} durable failure(s) across {runs} sweep(s)")
        if repro_paths:
            # Same contract as fuzz/chaos/soak: path on the last line.
            print(repro_paths[-1])
        return 1
    print(f"\nall {runs} durable sweep(s) exact "
          f"({len(session_seeds)} session seed(s) x "
          f"{len(fault_seeds)} fault seed(s), "
          f"checkpoint_every={args.checkpoint_every})")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    print(describe_faults())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="differential verification: fuzz, replay, shrink")
    sub = parser.add_subparsers(dest="command", required=True)

    fz = sub.add_parser("fuzz", help="fuzz N sessions differentially")
    fz.add_argument("--seed", type=int, default=0,
                    help="first session seed (sessions use seed..seed+N-1)")
    fz.add_argument("--sessions", type=int, default=25,
                    help="number of sessions (default 25)")
    fz.add_argument("--batches", type=int, default=12,
                    help="batches per session (default 12)")
    fz.add_argument("--batch-size", type=int, default=24,
                    help="ops per batch (default 24)")
    fz.add_argument("--read-only", action="store_true",
                    help="no mutating batches (keeps build-once "
                         "implementations live)")
    fz.add_argument("--inject-fault", default=None, metavar="IMPL:FAULT",
                    help="mutation-test the verifier (e.g. "
                         "skiplist:drop_get)")
    fz.add_argument("--faults", default=None, metavar="NAMES",
                    help="comma-separated registered faults to layer on "
                         "('list' enumerates; machine names run each "
                         "session under that chaos schedule too)")
    fz.add_argument("--fault-seed", type=int, default=0,
                    help="seed for machine fault schedules (default 0)")
    fz.add_argument("--no-shrink", action="store_true",
                    help="report divergences without shrinking")
    fz.add_argument("--repro-dir", default=DEFAULT_REPRO_DIR,
                    help=f"where shrunk repros land "
                         f"(default {DEFAULT_REPRO_DIR})")
    fz.add_argument("--max-evals", type=int, default=400,
                    help="shrinker evaluation budget (default 400)")
    _add_common(fz)
    fz.set_defaults(fn=cmd_fuzz)

    rp = sub.add_parser("replay", help="replay repro file(s)")
    rp.add_argument("paths", nargs="*",
                    help=f"repro files or directories "
                         f"(default {DEFAULT_REPRO_DIR})")
    rp.add_argument("--expect-divergence", action="store_true",
                    help="exit 0 only if every repro still diverges")
    _add_common(rp)
    rp.set_defaults(fn=cmd_replay)

    sh = sub.add_parser("shrink", help="minimize an existing repro file")
    sh.add_argument("path", help="repro JSON file")
    sh.add_argument("--out", default=None,
                    help="write here instead of in place")
    sh.add_argument("--max-evals", type=int, default=400,
                    help="shrinker evaluation budget (default 400)")
    _add_common(sh)
    sh.set_defaults(fn=cmd_shrink)

    ch = sub.add_parser("chaos", help="sweep fuzz sessions across "
                                      "machine-level fault schedules")
    ch.add_argument("--seed", type=int, default=0,
                    help="first session seed (sessions use seed..seed+N-1)")
    ch.add_argument("--sessions", type=int, default=25,
                    help="sessions per schedule (default 25)")
    ch.add_argument("--schedules", default="all",
                    help="comma-separated schedule names or 'all' "
                         f"(known: {', '.join(sorted(MACHINE_SCHEDULES))})")
    ch.add_argument("--fault-seed", type=int, default=0,
                    help="fault plan seed (default 0)")
    ch.add_argument("--batches", type=int, default=10,
                    help="batches per session (default 10)")
    ch.add_argument("--batch-size", type=int, default=16,
                    help="ops per batch (default 16)")
    ch.add_argument("--modules", type=int, default=8,
                    help="PIM modules per machine (default 8)")
    ch.add_argument("--structure", choices=sorted(STRUCTURE_FACTORIES),
                    default="skiplist",
                    help="structure to put under chaos (default skiplist)")
    ch.add_argument("--no-shrink", action="store_true",
                    help="report divergences without shrinking")
    ch.add_argument("--no-determinism", action="store_true",
                    help="skip the bit-identical rerun check")
    ch.add_argument("--no-containers", action="store_true",
                    help="skip FIFO/priority-queue checks on a faulty "
                         "machine")
    ch.add_argument("--repro-dir", default=DEFAULT_REPRO_DIR,
                    help=f"where shrunk chaos repros land "
                         f"(default {DEFAULT_REPRO_DIR})")
    ch.add_argument("--max-evals", type=int, default=200,
                    help="shrinker evaluation budget (default 200)")
    ch.set_defaults(fn=cmd_chaos)

    sk = sub.add_parser("soak", help="chaos-soak the serving layer "
                                     "(concurrent clients vs the oracle)")
    sk.add_argument("--schedules", default="none,crash_wipe,intermittent,"
                                           "mixed",
                    help="comma-separated schedule names, 'none' for the "
                         "fault-free baseline, or 'all' "
                         f"(known: none, "
                         f"{', '.join(sorted(MACHINE_SCHEDULES))})")
    sk.add_argument("--fault-seeds", default="0,1,2",
                    help="comma-separated fault plan seeds (default 0,1,2)")
    sk.add_argument("--clients", type=int, default=64,
                    help="concurrent synthetic clients (default 64)")
    sk.add_argument("--ops", type=int, default=8,
                    help="requests per client (default 8)")
    sk.add_argument("--seed", type=int, default=0,
                    help="client-program / machine seed (default 0)")
    sk.add_argument("--modules", type=int, default=8,
                    help="PIM modules per machine (default 8)")
    sk.add_argument("--structure", choices=sorted(STRUCTURE_FACTORIES),
                    default="skiplist",
                    help="structure under serve (default skiplist)")
    sk.add_argument("--no-determinism", action="store_true",
                    help="skip the bit-identical rerun check")
    sk.add_argument("--repro-dir", default=DEFAULT_REPRO_DIR,
                    help=f"where soak repros land "
                         f"(default {DEFAULT_REPRO_DIR})")
    sk.set_defaults(fn=cmd_soak)

    du = sub.add_parser("durable", help="certify crash-consistent "
                                        "persistence (kill sweep + "
                                        "disk-fault sweep)")
    du.add_argument("--seeds", default="0,1,2",
                    help="comma-separated session seeds (default 0,1,2)")
    du.add_argument("--fault-seeds", default="1,2",
                    help="comma-separated damage-placement seeds "
                         "(default 1,2)")
    du.add_argument("--batches", type=int, default=14,
                    help="batches per session (default 14)")
    du.add_argument("--batch-size", type=int, default=12,
                    help="ops per batch (default 12)")
    du.add_argument("--modules", type=int, default=8,
                    help="PIM modules per machine (default 8)")
    du.add_argument("--checkpoint-every", type=int, default=3,
                    help="snapshot every N acked records (default 3)")
    du.add_argument("--faults", default=None,
                    help="comma-separated disk fault names "
                         "(default: all registered disk faults)")
    du.add_argument("--no-determinism", action="store_true",
                    help="skip the bit-identical rerun check")
    du.add_argument("--repro-dir", default=DEFAULT_REPRO_DIR,
                    help=f"where durable repros land "
                         f"(default {DEFAULT_REPRO_DIR})")
    du.set_defaults(fn=cmd_durable)

    fl = sub.add_parser("faults", help="print the unified fault registry")
    fl.set_defaults(fn=cmd_faults)

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
