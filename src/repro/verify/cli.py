"""``python -m repro verify fuzz|replay|shrink|chaos|soak|durable|faults``.

- ``fuzz`` -- generate N seeded sessions, differentially replay each
  against every implementation (plus the FIFO/priority-queue container
  checks).  ``--faults`` layers registered faults on top (``--faults
  list`` enumerates the registry).
- ``replay`` -- re-run repro files through
  :func:`~repro.verify.certificate.certify`; do they still fail?
- ``shrink`` -- minimize a differential or chaos repro file in place.
- ``chaos`` -- sweep fuzz sessions across machine-level fault
  schedules (:mod:`repro.verify.chaos`).
- ``soak`` -- chaos-soak the serving layer with concurrent clients
  (:mod:`repro.verify.soak`).
- ``durable`` -- a kill at every acked record boundary and every
  registered disk fault (:mod:`repro.verify.durable`).
- ``faults`` -- print the unified fault registry.

``fuzz``, ``chaos``, ``soak`` and ``durable`` generate certificates
(:mod:`repro.verify.certificate`) under one exit contract: non-zero on
any failure and, when a repro was written, its path on the **last
line** of output so scripts can ``tail -1`` straight into ``replay``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.chaos import MACHINE_SCHEDULES
from repro.verify import durable, soak
from repro.verify.certificate import Certificate, certify, load_repro, write_repro
from repro.verify.chaos import (MESSAGE_SCHEDULES, STRUCTURE_FACTORIES,
                                chaos_containers, chaos_session)
from repro.verify.differ import SessionReport, verify_containers, verify_session
from repro.verify.faults import DISK_FAULTS, describe_faults, get_fault
from repro.verify.fuzz import fuzz_session
from repro.verify.shrink import session_from_dict, session_to_dict, shrink_session

DEFAULT_REPRO_DIR = os.path.join("tests", "golden", "repros")

#: Repro file names by certificate kind, filled from the config.
_REPRO_NAMES = {
    "differential": "seed{seed}",
    "chaos": "seed{seed}-{fault_schedule}-f{fault_seed}",
    "soak": "soak-{schedule}-f{fault_seed}-s{seed}",
    "durable": "durable-{mode}-s{session_seed}-f{fault_seed}",
}


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
                   help="replay runs of consecutive batches that form "
                        "one of a structure's declared tick groups as one "
                        "apply_group call (what a grouped serve tick "
                        "sends)")


def _add_contract(p: argparse.ArgumentParser, noun: str, *,
                  max_evals: int = 0, determinism: bool = True) -> None:
    """The exit contract's flags: where repros land, the rerun check,
    and -- for runs that carry a session -- shrinking."""
    p.add_argument("--repro-dir", default=DEFAULT_REPRO_DIR,
                   help=f"where {noun} repros land "
                        f"(default {DEFAULT_REPRO_DIR})")
    if determinism:
        p.add_argument("--no-determinism", action="store_true",
                       help="skip the bit-identical rerun check")
    if max_evals:
        p.add_argument("--no-shrink", action="store_true",
                       help="report divergences without shrinking")
        p.add_argument("--max-evals", type=int, default=max_evals,
                       help=f"shrinker evaluation budget "
                            f"(default {max_evals})")


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


def _certify_all(args: argparse.Namespace, runs: Iterable[Certificate], *,
                 noun: str, clean: str,
                 fault: Optional[Tuple[str, str]] = None) -> int:
    """Print each report's summary; a failing one's violations follow
    and, unless ``--no-shrink``, its repro lands in ``--repro-dir`` (the
    session the report ran, shrunk, when its config carries one).  Any
    failure exits 1 with the last repro path as the last line; otherwise
    ``clean`` is the verdict.  The shrinker injects ``fault``, the
    adapter fault the runs injected; the repro never holds it.
    """
    failures = total = 0
    written = None
    for report in runs:
        total += 1
        print(report.summary())
        if report.ok:
            continue
        failures += 1
        for v in report.violations:
            print(f"  {v}")
        if not report.config or getattr(args, "no_shrink", False):
            continue
        note = f"a failing {noun} run"
        if "batches" in report.config and "check" not in report.config:
            before = len(report.config["batches"])
            report = _shrink(report.config, args.max_evals, fault)
            note = (f"shrunk from a {before}-batch {noun} session"
                    + (f" with injected fault {fault[0]}:{fault[1]}"
                       if fault else ""))
        name = (_REPRO_NAMES[report.config["kind"]].format(**report.config)
                + ("-determinism" if "check" in report.config else ""))
        written = write_repro(os.path.join(args.repro_dir, name + ".json"),
                              _repro(report, note))
        print(f"  {noun} repro written: {written}")
    if failures:
        print(f"\n{failures} {noun} failure(s) across {total} run(s)")
        if written:
            # Contract: the repro path is the LAST line, so scripts (and
            # humans) can tail -1 straight into replay.
            print(written)
        return 1
    print(f"\n{clean}")
    return 0


def _shrink(config: Dict[str, Any], max_evals: int,
            fault: Optional[Tuple[str, str]] = None) -> Certificate:
    """The smallest failing certificate found by shrinking the session
    ``config`` ran."""
    def with_session(session) -> Dict[str, Any]:
        return dict(config, **session_to_dict(session))

    def is_failing(session) -> bool:
        return not certify(with_session(session), fault=fault).ok

    small = shrink_session(session_from_dict(config), is_failing,
                           max_evals=max_evals)
    return certify(with_session(small), fault=fault)


def _repro(report: Certificate, note: str) -> Dict[str, Any]:
    """A repro file: the config, how it was made, its first violations."""
    return dict(report.config, note=note,
                violations=[str(v) for v in report.violations[:20]])


def _failing(*reports: Certificate) -> List[Certificate]:
    """Riders (a determinism rerun, a container check) join the runs
    only when they fail: a clean run prints its sessions alone."""
    return [report for report in reports if not report.ok]


def _with_rerun(reports: Iterable[Certificate], args: argparse.Namespace,
                **change: Any) -> Iterator[Certificate]:
    """``reports``, then -- unless ``--no-determinism`` or the first one
    already failed -- its config (with ``change``) as a determinism
    rider."""
    first = None
    for report in reports:
        first = first or report
        yield report
    if first is not None and first.ok and not args.no_determinism:
        yield from _failing(certify(dict(first.config, check="determinism",
                                         **change)))


def _containers(seed: int, num_modules: int,
                divergences: list) -> SessionReport:
    """The FIFO / priority-queue checks as a report.  It has no config:
    a failure is printed, never written as a repro."""
    return SessionReport(seed=seed, num_modules=num_modules,
                         impls=("fifo", "priority_queue"), num_batches=6,
                         violations=divergences)


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
    kwargs = _verify_kwargs(args)

    def runs():
        for seed in range(args.seed, args.seed + args.sessions):
            session = fuzz_session(seed, num_batches=args.batches,
                                   batch_size=args.batch_size,
                                   read_only=args.read_only)
            yield verify_session(session, fault=fault, **kwargs)
            yield from _failing(
                _containers(seed, args.modules, verify_containers(
                    seed, num_modules=args.modules)),
                *(chaos_session(seed, schedule, args.fault_seed,
                                num_modules=args.modules, session=session)
                  for schedule in chaos_schedules))

    return _certify_all(
        args, runs(), noun="fuzz", fault=fault,
        clean=(f"all {args.sessions} session(s) verified clean "
               f"({args.batches} batches x {args.batch_size} each, "
               f"P={args.modules}"
               + (f", chaos: {','.join(chaos_schedules)}"
                  if chaos_schedules else "") + ")"))


def _with_flags(config: Dict[str, Any],
                args: argparse.Namespace) -> Dict[str, Any]:
    """``replay`` / ``shrink`` flags over a session-bodied repro: an
    explicit ``--modules``, and for a differential one ``--impls``,
    ``--read-groups`` and each check a ``--no-*`` flag turns off."""
    config = dict(config)
    if "batches" in config and (args.modules != 8
                                or "num_modules" not in config):
        config["num_modules"] = args.modules
    if config["kind"] == "differential":
        flags = _verify_kwargs(args)
        config.update((k, False) for k, on in flags.items()
                      if k.startswith("check_") and not on)
        config["impls"] = flags["impls"] or config.get("impls")
        config["read_groups"] = args.read_groups or config.get("read_groups")
    return config


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
    diverged = 0
    for path in paths:
        report = certify(_with_flags(load_repro(path), args))
        print(f"{path}: {report.summary()} -> "
              f"{'clean' if report.ok else 'DIVERGES'}")
        for v in report.violations:
            print(f"  {v}")
        diverged += not report.ok
    if diverged and not args.expect_divergence:
        return 1
    if args.expect_divergence and diverged != len(paths):
        print(f"expected every repro to diverge; "
              f"{len(paths) - diverged} replayed clean", file=sys.stderr)
        return 1
    return 0


def cmd_shrink(args: argparse.Namespace) -> int:
    config = _with_flags(load_repro(args.path), args)
    if "batches" not in config:
        print(f"{args.path}: a {config['kind']} repro has no session to "
              f"shrink", file=sys.stderr)
        return 2
    if certify(config).ok:
        print(f"{args.path}: replays clean -- nothing to shrink")
        return 0
    before = len(config["batches"])
    report = _shrink(config, args.max_evals)
    out = args.out or args.path
    write_repro(out, _repro(report, f"re-shrunk from {before} batch(es)"))
    print(f"{args.path}: {before} -> {len(report.config['batches'])} "
          f"batch(es), written to {out}")
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

    def runs():
        for schedule in schedules:
            yield from _with_rerun((chaos_session(
                seed, schedule, args.fault_seed, num_modules=args.modules,
                num_batches=args.batches, batch_size=args.batch_size,
                structure=args.structure)
                for seed in range(args.seed, args.seed + args.sessions)),
                args)
            if not args.no_containers and schedule in MESSAGE_SCHEDULES:
                yield from _failing(_containers(
                    args.seed, args.modules, chaos_containers(
                        args.seed, schedule, args.fault_seed,
                        num_modules=args.modules)))

    return _certify_all(
        args, runs(), noun="chaos",
        clean=(f"all {len(schedules) * args.sessions} chaos session(s) "
               f"exact ({len(schedules)} schedule(s), "
               f"fault_seed={args.fault_seed}, P={args.modules})"))


def cmd_soak(args: argparse.Namespace) -> int:
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
    runs_per = {s: fault_seeds if s != "none" else [0] for s in schedules}

    def runs():
        for schedule, seeds in runs_per.items():
            yield from _with_rerun((soak.soak_session(
                schedule, fault_seed, clients=args.clients,
                ops_per_client=args.ops, seed=args.seed,
                num_modules=args.modules, structure=args.structure)
                for fault_seed in seeds), args, clients=min(args.clients, 32))

    return _certify_all(
        args, runs(), noun="soak",
        clean=(f"all {sum(map(len, runs_per.values()))} soak run(s) clean "
               f"({args.clients} clients x {args.ops} ops, "
               f"{len(schedules)} schedule(s), P={args.modules}, "
               f"structure={args.structure})"))


def cmd_durable(args: argparse.Namespace) -> int:
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

    def sweeps(session_seed):  # a kill sweep first: the one rerun
        for fault_seed in fault_seeds:
            yield durable.kill_sweep(session_seed, fault_seed=fault_seed,
                                     **kwargs)
            yield durable.fault_sweep(session_seed, fault_seed=fault_seed,
                                      faults=faults, **kwargs)

    def runs():
        for session_seed in session_seeds:
            yield from _with_rerun(sweeps(session_seed), args)

    return _certify_all(
        args, runs(), noun="durable",
        clean=(f"all {2 * len(session_seeds) * len(fault_seeds)} durable "
               f"sweep(s) exact ({len(session_seeds)} session seed(s) x "
               f"{len(fault_seeds)} fault seed(s), "
               f"checkpoint_every={args.checkpoint_every})"))


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
    _add_contract(fz, "fuzz", max_evals=400, determinism=False)
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
    ch.add_argument("--no-containers", action="store_true",
                    help="skip FIFO/priority-queue checks on a faulty "
                         "machine")
    _add_contract(ch, "chaos", max_evals=200)
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
    _add_contract(sk, "soak")
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
    _add_contract(du, "durable")
    du.set_defaults(fn=cmd_durable)

    fl = sub.add_parser("faults", help="print the unified fault registry")
    fl.set_defaults(fn=cmd_faults)

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
