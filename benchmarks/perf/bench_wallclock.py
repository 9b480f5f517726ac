"""Simulator wall-clock benchmark: how fast does the round engine run?

Unlike the model benchmarks under ``benchmarks/``, which measure the
*simulated* machine (rounds, h-relations, PIM time), this harness measures
the *simulator*: wall-clock seconds, tasks/sec and rounds/sec on six
scenarios chosen to stress different engine paths, each run on the round
engine (``PIMMachine``, reported under the label ``"columnar"``) and on
its per-task reference oracle (``ReferencePIMMachine``, label
``"object"``) -- the labels are the keys the committed baseline uses:

- ``macro_successor`` -- the acceptance macro scenario: a P=128 skip list
  serving batched-successor sessions (dominated by search-step forwards
  and per-round module activation);
- ``pointer_walk`` -- search+successor only: raw search messages against
  a prebuilt list, resolved to successors from the replies, with no pivot
  machinery in the way: the walk's chunk handler versus the per-task
  walk;
- ``write_churn`` -- upsert -> get -> delete of fresh keys at P=32: the
  write path and the hash-shortcut point ops (RemoteWrites, tower
  delivery, delete marking), chunked on the engine, per-task on the
  reference oracle;
- ``engine_echo`` -- many tiny rounds of CPU-issued sends with small
  fanout (stresses send/step fixed overhead at low occupancy);
- ``fanout_broadcast`` -- one CPU broadcast per round to every module
  (the high-fanout dispatch-stress case: the engine retires the whole
  round as one body call over one ``BCAST`` chunk);
- ``mixed_dispatch`` -- many distinct function ids per round, issued in
  per-fn runs (stresses grouped dispatch: one body call per function id
  versus one body call per task).

Every module function is a batch body registered via
``machine.register`` -- one call per round over contiguous chunks on the
engine, one call per task over its one row on the reference oracle
(``repro.verify.differ`` certifies the streams bit-identical).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_wallclock.py [--quick]
        [--repeat N] [--profile] [--out PATH] [--backend object|columnar]

Writes ``benchmarks/perf/BENCH_simwall.json``::

    {
      "config": {"quick": false, "repeat": 3},
      "backends": {
        "object":   {"scenarios": {"<name>": {"seconds": ..., "tasks": ...,
                                              "rounds": ..., "tasks_per_sec": ...,
                                              "rounds_per_sec": ..., "params": {...}}}},
        "columnar": {"scenarios": {...}}
      },
      "speedup": {"<name>": <columnar tasks/sec over object tasks/sec>},
      "handler_profile": {"<fn>": {"seconds": ..., "calls": ...}}  # --profile
    }

``--quick`` shrinks every scenario to a seconds-scale smoke run (used by
CI); full runs are the numbers quoted in EXPERIMENTS.md.  Round logging
is disabled (``trace_rounds=False``) -- these are throughput runs and the
per-round log objects are pure overhead; model metrics are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from typing import Any, Dict, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.core.ops_search import search_message, walk_columns
from repro.core.skiplist import PIMSkipList
from repro.sim.fastpath import BCAST
from repro.sim.machine import PIMMachine, ReferencePIMMachine
from repro.sim.profiling import HandlerProfile, ThroughputProbe
from repro.sim.task import Reply

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_simwall.json")

#: The reference oracle and the engine, under the labels the committed
#: baseline is keyed by, measured in this order (object first: it is the
#: reference the speedup ratios divide by).
ENGINES = {"object": ReferencePIMMachine, "columnar": PIMMachine}
BACKENDS = tuple(ENGINES)


def _settle_heap() -> None:
    """Collect before a timed region that follows a bulk build.

    The previous repeat's dropped rig is one big reference cycle, and a
    build runs with the cyclic collector paused (``repro.ops.batch_epoch``),
    so without this the timed region -- ``pointer_walk`` drives ``drain``
    directly, outside any epoch -- pays for freeing the last rig and for
    ageing this one.  ``benchmarks/e2e`` collects after its warm-up for
    the same reason.
    """
    gc.collect()


def macro_successor(probe_machine, *, P=128, n=4096, batches=4, seed=7,
                    machine_cls=PIMMachine):
    """Batched Successor on ``P`` modules after a build of ``n`` keys."""
    machine = machine_cls(num_modules=P, seed=seed, trace_rounds=False)
    sl = PIMSkipList(machine, name="bench")
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 * n), n))
    sl.build([(k, k) for k in keys])
    B = sl.min_search_batch
    queries = [[rng.randrange(10 * n) for _ in range(B)] for _ in range(batches)]
    _settle_heap()
    with probe_machine(machine) as probe:
        for qs in queries:
            sl.batch_successor(qs)
    return probe


def pointer_walk(probe_machine, *, P=128, n=8192, B=4096, batches=3,
                 seed=13, machine_cls=PIMMachine):
    """Search+successor only: the raw walk throughput.

    Each batch issues ``B`` search messages straight at the prebuilt
    list (no pivot machinery, no hint derivation) and resolves every
    reply to its successor pair -- the walk itself is the whole probe.
    """
    machine = machine_cls(num_modules=P, seed=seed, trace_rounds=False)
    sl = PIMSkipList(machine, name="bench")
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 * n), n))
    sl.build([(k, k) for k in keys])
    struct = sl.struct
    queries = [[rng.randrange(10 * n) for _ in range(B)]
               for _ in range(batches)]
    _settle_heap()
    with probe_machine(machine) as probe:
        for qs in queries:
            msgs = [search_message(struct, k, opid=i)
                    for i, k in enumerate(qs)]
            machine.send_all(msgs)
            succ = [None] * len(qs)
            (opids, preds, rights), _path = walk_columns(machine.drain())
            for opid, pred, right in zip(opids, preds, rights):
                if not pred.is_sentinel and pred.key == qs[opid]:
                    succ[opid] = (pred.key, pred.value)
                elif right is not None:
                    succ[opid] = (right.key, right.value)
    return probe


def write_churn(probe_machine, *, P=32, n=4096, cycles=4, seed=17,
                machine_cls=PIMMachine):
    """The write path: upsert -> get -> delete of fresh keys.

    Every cycle inserts one ``P log^2 P`` batch of keys the list does
    not hold, reads them back and deletes them again, so the traffic is
    RemoteWrites, hash-shortcut point tasks, tower delivery and delete
    marking around one embedded search.  On the engine they run chunked;
    on the reference oracle every one is a task through a slot.  The
    regression gate holds every task of this scenario to a chunk
    (its chunked-task share is exactly 1).
    """
    machine = machine_cls(num_modules=P, seed=seed, trace_rounds=False)
    sl = PIMSkipList(machine, name="bench")
    rng = random.Random(seed)
    sl.build([(2 * k, k) for k in range(n)])  # even keys; fresh ones are odd
    B = sl.min_search_batch  # 800 at P = 32; n must be at least that
    fresh = [[2 * k + 1 for k in rng.sample(range(n), B)]
             for _ in range(cycles)]
    _settle_heap()
    with probe_machine(machine) as probe:
        for keys in fresh:
            sl.batch_upsert([(k, -k) for k in keys])
            sl.batch_get(keys)
            sl.batch_delete(keys)
    return probe


def engine_echo(probe_machine, *, P=64, rounds=400, fanout=16, seed=3,
                machine_cls=PIMMachine):
    machine = machine_cls(num_modules=P, seed=seed, trace_rounds=False)

    def batch_echo(bct, chunks):
        # One unit of work and one reply per task.
        replies = bct.replies
        work = bct.work
        sent = bct.sent
        for ch in chunks:
            rows = ch.rows if ch.rows is not None \
                else list(bct.machine._iter_chunk(ch))
            for mid, args, tag, _size in rows:
                replies.append(Reply(args[0], tag, mid))
                work[mid] += 1
                sent[mid] += 1

    machine.register("echo", batch_echo)
    rng = random.Random(seed)
    plan = [[(rng.randrange(P), i) for i in range(fanout)]
            for _ in range(rounds)]
    with probe_machine(machine) as probe:
        for msgs in plan:
            for dest, i in msgs:
                machine.send(dest, "echo", (i,))
            machine.step()
    return probe


def fanout_broadcast(probe_machine, *, P=256, rounds=400, seed=9,
                     machine_cls=PIMMachine):
    """High-fanout dispatch stress: one CPU broadcast per round.

    Every module charges one unit per broadcast; the engine retires
    the whole P-task round as one body call that adds to the plain
    ``bct.work`` list instead of P one-row body calls.
    """
    machine = machine_cls(num_modules=P, seed=seed, trace_rounds=False)

    def batch_accum(bct, chunks):
        work = bct.work
        for ch in chunks:
            if ch.kind == BCAST:
                work[:] = [w + 1 for w in work]
            else:
                for mid, _args, _tag, _size in ch.rows:
                    work[mid] += 1

    machine.register("accum", batch_accum)
    with probe_machine(machine) as probe:
        for i in range(rounds):
            machine.broadcast("accum", (i,))
            machine.step()
    return probe


def mixed_dispatch(probe_machine, *, P=64, fns=24, per_fn=12, rounds=120,
                   seed=11, machine_cls=PIMMachine):
    """Many-distinct-function-id dispatch stress.

    Each round issues ``fns`` runs of ``per_fn`` messages (one run per
    function id, so the chunk queues tail-merge each run into one
    contiguous chunk); grouped dispatch then makes ``fns`` batch calls
    per round where the reference oracle makes ``fns * per_fn`` context
    dispatches.
    """
    machine = machine_cls(num_modules=P, seed=seed, trace_rounds=False)

    def make_batch(j):
        def bh(bct, chunks):
            replies = bct.replies
            work = bct.work
            sent = bct.sent
            for ch in chunks:
                rows = ch.rows if ch.rows is not None \
                    else list(bct.machine._iter_chunk(ch))
                for mid, args, tag, _size in rows:
                    replies.append(Reply(args[0] + j, tag, mid))
                    work[mid] += 1
                    sent[mid] += 1
        return bh

    names = []
    for j in range(fns):
        name = f"mix{j}"
        names.append(name)
        machine.register(name, make_batch(j))
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        msgs = []
        for name in names:
            msgs.extend((rng.randrange(P), name, (rng.randrange(1000),), None)
                        for _ in range(per_fn))
        plan.append(msgs)
    with probe_machine(machine) as probe:
        for msgs in plan:
            machine.send_all(msgs)
            machine.step()
    return probe


SCENARIOS = {
    "macro_successor": (macro_successor,
                        {"P": 128, "n": 4096, "batches": 4, "seed": 7},
                        {"P": 32, "n": 512, "batches": 1, "seed": 7}),
    "pointer_walk": (pointer_walk,
                     {"P": 128, "n": 8192, "B": 4096, "batches": 3,
                      "seed": 13},
                     {"P": 32, "n": 512, "B": 256, "batches": 1,
                      "seed": 13}),
    "write_churn": (write_churn,
                    {"P": 32, "n": 4096, "cycles": 4, "seed": 17},
                    {"P": 32, "n": 1024, "cycles": 1, "seed": 17}),
    "engine_echo": (engine_echo,
                    {"P": 64, "rounds": 400, "fanout": 16, "seed": 3},
                    {"P": 64, "rounds": 40, "fanout": 16, "seed": 3}),
    "fanout_broadcast": (fanout_broadcast,
                         {"P": 256, "rounds": 400, "seed": 9},
                         {"P": 64, "rounds": 40, "seed": 9}),
    "mixed_dispatch": (mixed_dispatch,
                       {"P": 64, "fns": 24, "per_fn": 12, "rounds": 120,
                        "seed": 11},
                       {"P": 32, "fns": 8, "per_fn": 6, "rounds": 12,
                        "seed": 11}),
}


def run(quick: bool = False, repeat: int = 3, profile: bool = False,
        out_path: Optional[str] = OUT_PATH,
        backends: Sequence[str] = BACKENDS) -> Dict[str, Any]:
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    handler_profile = HandlerProfile() if profile else None

    def probe_machine(machine):
        if handler_profile is not None:
            machine.set_profiler(handler_profile)
        return ThroughputProbe(machine)

    results: Dict[str, Dict[str, Any]] = {b: {} for b in backends}
    for name, (fn, full, small) in SCENARIOS.items():
        params = small if quick else full
        for backend in backends:
            best = None
            for _ in range(repeat):
                probe = fn(probe_machine, machine_cls=ENGINES[backend],
                           **params)
                if best is None or probe.seconds < best["seconds"]:
                    best = probe.as_dict()
            best["params"] = dict(params)
            results[backend][name] = best
            print(f"{backend:<9} {name:<18} {best['seconds']:8.3f}s  "
                  f"{best['tasks_per_sec']:>12.0f} tasks/s  "
                  f"{best['rounds_per_sec']:>10.0f} rounds/s")

    doc: Dict[str, Any] = {
        "config": {"quick": quick, "repeat": repeat},
        "backends": {b: {"scenarios": results[b]} for b in backends},
    }
    if "object" in results and "columnar" in results:
        speedup = {}
        for name in SCENARIOS:
            obj = results["object"][name]["tasks_per_sec"]
            col = results["columnar"][name]["tasks_per_sec"]
            speedup[name] = col / obj if obj > 0 else 0.0
        doc["speedup"] = speedup
        print("\nengine speedup (columnar tasks/sec over the object "
              "reference):")
        for name, x in speedup.items():
            print(f"  {name:<18} {x:6.2f}x")

    if handler_profile is not None:
        doc["handler_profile"] = handler_profile.as_dict()
        print("\nhottest handlers:\n" + handler_profile.top())
    if out_path:
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=2)
        print(f"\nwrote {out_path}")
    return doc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrunk scenarios (CI smoke run)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="repeats per scenario; best is reported (default 3)")
    ap.add_argument("--profile", action="store_true",
                    help="per-handler wall-time attribution (slows the run; "
                         "times slot tasks one by one and each body call as "
                         "a whole, on the rounds the engine ships)")
    ap.add_argument("--backend", choices=list(BACKENDS), default=None,
                    help="measure only the reference oracle (object) or "
                         "only the engine (columnar); default: both")
    ap.add_argument("--out", default=OUT_PATH,
                    help="output JSON path (default BENCH_simwall.json)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1, got {args.repeat}")
    backends = BACKENDS if args.backend is None else (args.backend,)
    run(quick=args.quick, repeat=args.repeat, profile=args.profile,
        out_path=args.out, backends=backends)


if __name__ == "__main__":
    main()
