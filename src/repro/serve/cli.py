"""``python -m repro serve`` -- drive the serving layer, watchably.

Spins up a :class:`~repro.serve.server.Server` over a skip list,
replays ``--clients`` concurrent synthetic client streams against it
(optionally under a ``--chaos`` fault schedule), verifies the serving
SLO through the soak harness (:mod:`repro.verify.soak`), and prints
the resulting health timeline, per-outcome tallies and latency
percentiles.  Exit code 1 if the SLO was violated.

Example::

    python -m repro serve --clients 100 --chaos intermittent
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.sim.chaos import MACHINE_SCHEDULES

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve concurrent clients over one PIM structure "
                    "and verify the SLO")
    parser.add_argument("--clients", type=int, default=100,
                        help="concurrent synthetic clients (default 100)")
    parser.add_argument("--ops", type=int, default=8,
                        help="requests per client (default 8)")
    parser.add_argument("--chaos", default="none", metavar="SCHEDULE",
                        help="fault schedule for the live machine "
                             f"(default none; known: "
                             f"{', '.join(sorted(MACHINE_SCHEDULES))})")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault plan seed (default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="client-program / machine seed (default 0)")
    parser.add_argument("--modules", type=int, default=8,
                        help="PIM modules per machine (default 8)")
    parser.add_argument("--structure", default="skiplist",
                        help="structure under serve: skiplist or pimtree "
                             "(default skiplist)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="durable WAL+snapshot directory; answers are "
                             "acked only after their record is on disk, "
                             "and a restart resumes from DIR (default: "
                             "in-memory only)")
    args = parser.parse_args(argv)

    if args.chaos != "none" and args.chaos not in MACHINE_SCHEDULES:
        print(f"unknown fault schedule {args.chaos!r}; known: none, "
              f"{', '.join(sorted(MACHINE_SCHEDULES))}", file=sys.stderr)
        return 2
    from repro.verify.chaos import STRUCTURE_FACTORIES
    if args.structure not in STRUCTURE_FACTORIES:
        print(f"unknown structure {args.structure!r}; known: "
              f"{', '.join(sorted(STRUCTURE_FACTORIES))}", file=sys.stderr)
        return 2

    from repro.serve.server import ServerConfig
    from repro.verify.soak import soak_session

    config = None
    if args.state_dir is not None:
        config = ServerConfig(seed=args.seed, state_dir=args.state_dir)
    report = soak_session(args.chaos, args.fault_seed,
                          clients=args.clients, ops_per_client=args.ops,
                          seed=args.seed, num_modules=args.modules,
                          structure=args.structure, config=config)

    total = args.clients * args.ops
    print(f"served {total} requests from {args.clients} concurrent "
          f"clients over a {args.modules}-module {args.structure} "
          f"(chaos: {args.chaos}, fault_seed {args.fault_seed}"
          + (f", state dir {args.state_dir}" if args.state_dir else "")
          + ")\n")
    print(f"  answered exactly : {report.answered}")
    for reason, count in sorted(report.degraded.items()):
        print(f"  degraded ({reason:<14}): {count}")
    for reason, count in sorted(report.refused.items()):
        print(f"  refused ({reason:<15}): {count}")
    print(f"\n  scheduler ticks  : {report.ticks}")
    print(f"  merged batches   : {report.batches} "
          f"({total / max(1, report.batches):.1f} requests/batch)")
    if report.runtime:
        kinds = ", ".join(f"{kind} {n}" for kind, n in
                          report.runtime["ticks_by_kind"].items())
        print(f"  ticks by kind    : {kinds} "
              f"({report.runtime['batches_per_tick']:.2f} batches/tick)")
    print(f"  machine rounds   : {report.rounds}")
    print(f"  queue wait p50   : {report.latency_percentile(0.5)} ticks")
    print(f"  queue wait p99   : {report.latency_percentile(0.99)} ticks")
    print(f"  failovers        : {report.recoveries}, "
          f"breaker trips: {report.trips}, "
          f"stale reads: {report.stale_reads}")
    if report.recovery:  # empty when the harness gave up before status()
        print(f"  checkpoints      : "
              f"{report.recovery['checkpoints_captured']} captured, last "
              f"{report.recovery['last_checkpoint_items']} item(s), replay "
              f"debt {report.recovery['replay_debt_items']} item(s)")
        young, middle, full = report.runtime["gc_collections"]
        share = report.runtime["chunked_task_share"]
        print(f"  host runtime     : {report.runtime['batch_epochs']} batch "
              f"epoch(s) on the live machine, collections "
              f"{young} young / {middle} middle / {full} full, "
              + ("no tasks run" if share is None
                 else f"{share:.0%} of tasks run chunked"))
    print(f"  final health     : {report.health_state} "
          f"({report.health_transitions} transition(s))")

    if report.ok:
        print("\nSLO verified: every response oracle-correct or a typed "
              "refusal; stream results sequential-replay-equivalent.")
        return 0
    print(f"\nSLO VIOLATED ({len(report.violations)}):")
    for violation in report.violations:
        print(f"  {violation}")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
