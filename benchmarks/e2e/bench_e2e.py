"""End-to-end benchmark with an outside-in per-layer trace.

One run = one workload (see ``workloads.py``) in one process: generate
the inputs from the seed, set the system up (timed, ``setup_s``), run an
untimed warm-up (the first 1/8 of every client program / batch list),
then the timed phase, then check every answer against the sequential
oracle.  With ``--trace 1`` the run records spans around the calls into
each layer (``spans.py``) and reports per-layer metrics instead.

Two ways to call it:

``python3 benchmarks/e2e/bench_e2e.py --workload W --seed N --seconds S --trace 0|1``
    One run.  The last line of stdout is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
    end-to-end metrics for ``--trace 0``, the per-layer metrics for
    ``--trace 1``).  This is the command ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/bench_e2e.py [--workload W] [--seed N] [--repeats 3] [--quick]``
    The suite: every workload in fresh child processes, one at a time,
    ``--repeats`` untraced runs (medians are reported) then one traced
    run; prints both tables and exits non-zero on any wrong answer.
    Without ``--seconds`` each run does a fixed amount of work, so the
    simulated-cost metrics and every count repeat exactly (``aa_check.py``
    relies on that).

Workloads use the shipped defaults (``PIMMachine(...)``,
``PIMSkipList(machine)``, ``ServerConfig(...)`` with no backend or
storage argument), so a change of default is measured.  Host times are
this sandbox's, not a device's -- fsync especially -- and the sandbox's
speed drifts by tens of percent from minute to minute, so they are
reported at the speed of a reference host: every 20 ms of a run the
clock stops for a burst of fixed interpreter work (``hostprobe.py``),
and each host time is divided by how much slower than nominal the bursts
of its phase ran.  The readings of the clock itself are kept beside them
(``wall_clock`` and ``host_slowdown`` in the suite's output).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro.recovery.manager as manager_module  # noqa: E402
from repro.core.skiplist import PIMSkipList  # noqa: E402
from repro.core.storage import STORAGE_ENV_VAR  # noqa: E402
from repro.recovery import (  # noqa: E402
    DegradedResult, RecoveryManager, checkpoint_structure)
from repro.recovery.durable import DurabilityPolicy, DurableStore  # noqa: E402
from repro.recovery.durable.wal import WalRecord, encode_record  # noqa: E402
from repro.recovery.manager import MUTATING_OPS  # noqa: E402
from repro.serve import Refusal, Server, ServerConfig  # noqa: E402
from repro.sim.config import BACKEND_ENV_VAR  # noqa: E402
from repro.sim.machine import PIMMachine  # noqa: E402
from repro.structures.pimtree import PIMTree  # noqa: E402
from repro.verify.oracle import SequentialOracle  # noqa: E402

from hostprobe import HostProbe  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, BatchInputs, ServeInputs, Workload, generate, resolve)

OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_SECONDS = 10       # BENCHMARK.json's run_seconds
SETUP_REPEATS = 5      # set-ups per run at least; setup_s is their median
SETUP_SECONDS = 1.0    # a set-up of milliseconds is repeated for this long
SETUP_REPEATS_MAX = 25
MACHINE_SEED = 0       # --seed varies the inputs, not the machine's hashing
WARMUP_SHARE = 8       # warm-up = first 1/8 of every program
REFERENCE_SHARE = 4    # lone traced run: untraced slice of 1/4 the phase
HOST_TIME_UNITS = ("s", "ms", "us")  # metrics divided by the host slowdown
ENV_OVERRIDES = (BACKEND_ENV_VAR, STORAGE_ENV_VAR)
FAILURES = (Refusal, DegradedResult)  # answers that are not answers


# ---------------------------------------------------------------------------
# the metrics (names are the contract: every later claim cites them)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    bound: Optional[float] = None  # end-to-end only
    exact: bool = False            # repeats bit-for-bit at fixed work + seed


END_TO_END: List[Metric] = [
    # "host": host time, at the reference host's speed (hostprobe.py).
    Metric("setup_s", "s", "lower",
           "host: build machine + structure (+ server + state dir)", 0.25),
    Metric("ops_per_s", "1/s", "higher",
           "host: requests (serve_*) or batch items (batch_*) per second", 0.25),
    Metric("lat_p50_ms", "ms", "lower",
           "host: submit->resolve per request / one apply_batch call", 0.25),
    Metric("lat_tail_ms", "ms", "lower",
           "host: mean of the slowest tenth of the same", 0.25),
    Metric("model_io_per_op", "model_units", "lower",
           "simulated: sum of metrics.io_time / ops", 0.10, exact=True),
    Metric("model_pim_time_per_op", "model_units", "lower",
           "simulated: sum of metrics.pim_time / ops", 0.20, exact=True),
    Metric("model_rounds_per_op", "rounds", "lower",
           "simulated: sum of metrics.rounds / ops", 0.10, exact=True),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss at the start of the timed phase, less the probe's heap",
           0.10),
]

#: Printed by the suite beside the metrics above; in ``BENCHMARK.json``
#: it is the result line's ``failed`` / ``attempted`` (a metric there
#: may never read 0, and this one must).
FAIL_RATIO = Metric("fail_ratio", "ratio", "lower",
                    "(refused + degraded + wrong answers) / attempted",
                    0.0, exact=True)


def _layer(name: str, unit: str, better: str, meaning: str,
           exact: bool = False) -> Metric:
    return Metric(name, unit, better, meaning, exact=exact)


def _count(name: str, meaning: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better, meaning, exact=True)


PER_LAYER: List[Metric] = [
    _layer("serve.server.self_s", "s", "lower",
           "submit + scheduler loop + demux + asyncio, by subtraction"),
    _count("serve.server.ticks", "scheduler ticks in the timed phase"),
    _count("serve.server.batches", "merged batches executed"),
    _count("serve.server.requests", "requests resolved", "higher"),
    _layer("serve.admission.admit_s", "s", "lower", "time in admit()"),
    _count("serve.admission.admit_n", "admit() calls"),
    _count("serve.admission.refused_n", "typed refusals, any reason"),
    _layer("serve.admission.queue_wait_ticks_mean", "ticks", "lower",
           "mean submit->resolve wait in ticks (TenantMetrics)", True),
    _layer("serve.coalesce.next_batch_s", "s", "lower",
           "time in next_batch()"),
    _layer("serve.coalesce.items_per_batch", "items", "higher",
           "mean payload items per merged batch", True),
    _layer("serve.coalesce.requests_per_batch", "requests", "higher",
           "mean requests per merged batch", True),
    _layer("serve.policy.execute_self_s", "s", "lower",
           "policy.execute() minus manager.run()"),
    _count("serve.policy.trips_n", "circuit-breaker trips"),
    _layer("recovery.manager.run_self_s", "s", "lower",
           "manager.run() minus structure, checkpoint and durable calls"),
    _count("recovery.manager.failovers_n", "standby failovers"),
    _layer("recovery.manager.restore_s", "s", "lower",
           "manager over the reopened state dir: restore + WAL replay"),
    _count("recovery.manager.replayed_n", "WAL records replayed on restart"),
    _layer("recovery.checkpoint.capture_s", "s", "lower",
           "time in checkpoint_structure() as the manager calls it"),
    _count("recovery.checkpoint.capture_n", "checkpoint captures"),
    _layer("recovery.checkpoint.items_per_capture", "items", "lower",
           "mean items per capture", True),
    _layer("recovery.durable.append_s", "s", "lower",
           "time in durable.append(), its fsync included"),
    _count("recovery.durable.append_n", "WAL appends"),
    _count("recovery.durable.fsync_n", "WAL fsyncs"),
    _layer("recovery.durable.wal_bytes_per_record", "bytes", "lower",
           "mean encoded WAL record size", True),
    _layer("recovery.durable.snapshot_s", "s", "lower",
           "time in durable.snapshot()"),
    _count("recovery.durable.snapshot_n", "snapshots published"),
    _layer("recovery.durable.snapshot_bytes", "bytes", "lower",
           "mean snapshot file size", True),
    _layer("recovery.durable.bytes_written_per_user_byte", "ratio", "lower",
           "(WAL + snapshot bytes) / compact-JSON bytes of acked writes",
           True),
    _layer("recovery.durable.open_s", "s", "lower",
           "DurableStore.open() on the reopened state dir"),
    _layer("structure.apply_batch_self_s", "s", "lower",
           "apply_batch() minus machine calls: plan/route/aggregate"),
    _count("structure.apply_batch_n", "apply_batch() calls"),
    _layer("structure.get_s", "s", "lower", "inclusive time of get batches"),
    _layer("structure.successor_s", "s", "lower",
           "inclusive time of successor batches"),
    _layer("structure.upsert_s", "s", "lower",
           "inclusive time of upsert batches"),
    _layer("structure.delete_s", "s", "lower",
           "inclusive time of delete batches"),
    _layer("structure.range_s", "s", "lower",
           "inclusive time of range batches"),
    _layer("structure.us_per_item", "us", "lower",
           "inclusive apply_batch time per payload item"),
    _layer("sim.machine.issue_s", "s", "lower",
           "time in send_all() + broadcast()"),
    _count("sim.machine.issue_n", "send_all() + broadcast() calls"),
    _layer("sim.machine.drain_s", "s", "lower",
           "time in drain(): dispatch + handler bodies"),
    _count("sim.machine.drain_n", "drain() calls"),
    _count("sim.machine.rounds", "simulated rounds executed"),
    _count("sim.machine.messages", "simulated messages delivered"),
    _layer("sim.machine.us_per_round", "us", "lower",
           "host issue + drain time per simulated round"),
    _layer("sim.machine.us_per_message", "us", "lower",
           "host issue + drain time per simulated message"),
    _layer("sim.machine.columnar_active", "flag", "higher",
           "1 when rounds run on the columnar engine", True),
    _count("sim.machine.fallback_n", "columnar->object fallback events"),
    _layer("model.io_time", "model_units", "lower", "simulated IO time", True),
    _layer("model.pim_time", "model_units", "lower",
           "simulated PIM time", True),
    _layer("model.rounds", "rounds", "lower", "simulated rounds", True),
    _layer("model.messages", "count", "lower", "simulated messages", True),
    _layer("model.cpu_work", "model_units", "lower",
           "simulated CPU work", True),
    _layer("model.cpu_depth", "model_units", "lower",
           "simulated CPU depth", True),
    _layer("model.pim_balance_ratio", "ratio", "lower",
           "max / mean PIM work per module (live machine)", True),
    _layer("model.sync_cost", "model_units", "lower",
           "simulated synchronisation cost", True),
    _layer("model.shared_mem_peak", "words", "lower",
           "peak CPU shared-memory words", True),
    _layer("runtime.gc.full_s", "s", "lower",
           "time inside full garbage collections, whichever span was open"),
    _layer("runtime.gc.full_n", "count", "lower", "full garbage collections"),
    _layer("trace.overhead_ratio", "ratio", "lower",
           "untraced ops per second / traced ops per second - 1"),
    _layer("trace.named_share", "ratio", "higher",
           "share of timed wall inside spans (not the remainder)"),
    _layer("bench.driver_s", "s", "lower",
           "batch_*: the benchmark's own loop, by subtraction"),
]

_MODEL_SUMS = ("io_time", "pim_time", "rounds", "messages", "cpu_work",
               "cpu_depth", "sync_cost")


def benchmark_spec() -> dict:
    """The contents of ``BENCHMARK.json``, derived from the tables."""
    return {
        "command": ["python3", "benchmarks/e2e/bench_e2e.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# phases: warm-up, timed, and (lone traced run) the untraced reference


class Phase:
    """One stretch of a run, ended by ``count`` operations (per client,
    or cycles for batch workloads) or by ``seconds``, whichever is set."""

    def __init__(self, probe: HostProbe, count: Optional[int] = None,
                 seconds: Optional[float] = None) -> None:
        self.probe = probe
        self.count = count
        self.seconds = seconds
        self.on_begin: Optional[Callable[[], None]] = None
        self.on_end: Optional[Callable[[], None]] = None
        self.start = self.end = 0.0
        self.probe_s = 0.0                 # seconds of it inside probe bursts
        self._since = 0                    # probe samples taken before it
        self.slowdown = 1.0                # host slowdown while it ran
        self.deadline = math.inf
        self.latencies: List[float] = []   # seconds per request / batch
        self.ops = 0                       # requests / batch items completed
        self._arrived = 0
        self._gate: Optional[asyncio.Event] = None

    def begin(self) -> None:
        if self.on_begin is not None:
            self.on_begin()
        self._since = len(self.probe.samples)
        self.probe.burst()
        self.probe_s = -self.probe.spent
        self.start = time.perf_counter()
        if self.seconds is not None:
            self.deadline = self.start + self.seconds

    def finish(self) -> None:
        self.end = time.perf_counter()
        self.probe_s += self.probe.spent
        self.slowdown = self.probe.slowdown(self._since)
        if self.on_end is not None:
            self.on_end()

    @property
    def wall(self) -> float:
        """Seconds the program had: the clock stops during probe bursts."""
        return self.end - self.start - self.probe_s

    @property
    def rate(self) -> float:
        """Operations per second at the reference host's speed."""
        return self.ops / self.wall * self.slowdown

    async def enter(self, parties: int, previous: Optional["Phase"]) -> None:
        """Barrier: the last of ``parties`` clients to arrive closes the
        previous phase and begins this one."""
        if self._gate is None:
            self._gate = asyncio.Event()
        self._arrived += 1
        if self._arrived == parties:
            if previous is not None:
                previous.finish()
            self.begin()
            self._gate.set()
        else:
            await self._gate.wait()


def plan_phases(probe: HostProbe, total: int, seconds: Optional[float],
                reference: bool) -> Tuple[Phase, Phase, Optional[Phase]]:
    """Warm-up, timed and optional reference phase for a program of
    ``total`` operations (fixed work) or ``seconds`` of them."""
    warm = max(1, total // WARMUP_SHARE)
    if seconds is None:
        timed = Phase(probe, count=total - warm)
        ref = Phase(probe, count=max(1, (total - warm) // REFERENCE_SHARE))
    else:
        timed = Phase(probe, seconds=seconds)
        ref = Phase(probe, seconds=seconds / REFERENCE_SHARE)
    return Phase(probe, count=warm), timed, ref if reference else None


def tail_mean(values: Sequence[float]) -> float:
    """Mean of the slowest tenth.  A closed loop's latencies come in
    blocks -- a stalled tick delays every client at once -- so a high
    percentile is an order statistic over a few dozen stalls and jumps
    when the stalled share of requests crosses it; this does not."""
    ordered = sorted(values)
    tail = ordered[len(ordered) - max(1, len(ordered) // 10):]
    return sum(tail) / len(tail)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Rig:
    """One built system under test."""

    live: Any
    machines: List[PIMMachine]
    server: Optional[Server] = None
    state_dir: Optional[str] = None

    def discard(self) -> None:
        if self.server is not None and self.server.durable is not None:
            self.server.durable.close()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


def build_rig(spec: Workload, inputs: Any, tmp_root: str) -> Rig:
    machines: List[PIMMachine] = []

    def standby() -> Any:
        machine = PIMMachine(num_modules=spec.modules, seed=MACHINE_SEED)
        machines.append(machine)
        return (PIMSkipList(machine) if spec.structure == "skiplist"
                else PIMTree(machine))

    live = standby()
    live.build(inputs.initial)
    rig = Rig(live, machines)
    if spec.kind == "serve":
        if spec.durable:
            rig.state_dir = tempfile.mkdtemp(prefix="state-", dir=tmp_root)
            # os_fsync=True is the ServerConfig default; stated because
            # this workload exists to measure it.
            config = ServerConfig(state_dir=rig.state_dir, os_fsync=True)
        else:
            config = ServerConfig()
        rig.server = Server(live, standby, config)
    return rig


def timed_setup(spec: Workload, inputs: Any, tmp_root: str,
                ) -> Tuple[Rig, float]:
    """Set up ``SETUP_REPEATS`` times (more often, up to
    ``SETUP_REPEATS_MAX``, while they add up to under ``SETUP_SECONDS``:
    the median of five 12 ms set-ups drifted 14 % between two sets of
    ten runs); keep the last rig, report the median time."""
    times: List[float] = []
    rig: Optional[Rig] = None
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_REPEATS_MAX):
        if rig is not None:
            rig.discard()
            rig = None
        gc.collect()
        start = time.perf_counter()
        rig = build_rig(spec, inputs, tmp_root)
        times.append(time.perf_counter() - start)
    assert rig is not None
    return rig, statistics.median(times)


# ---------------------------------------------------------------------------
# tracing: which calls become spans


def trace_structure(rec: Recorder, structure: Any) -> Any:
    rec.wrap(structure, "apply_batch",
             lambda op, payload: "structure." + op)
    machine = structure.machine
    rec.wrap(machine, "send_all", "sim.machine.issue")
    rec.wrap(machine, "broadcast", "sim.machine.issue")
    rec.wrap(machine, "drain", "sim.machine.drain")
    return structure


def trace_server(rec: Recorder, server: Server, sizes: Dict[str, int]) -> None:
    """Wrap the layer boundaries of a live server (and of every standby
    its rebuild factory hands out).  ``sizes`` accumulates the byte and
    item counts that are only visible at those boundaries."""
    rec.wrap(server.admission, "admit", "serve.admission.admit", keep=False)
    rec.wrap(server.coalescer, "next_batch", "serve.coalesce.next_batch")
    manager = server.manager
    rec.wrap(manager, "run", "recovery.manager.run")
    trace_structure(rec, manager.structure)
    rebuild = manager.rebuild
    rec.override(manager, "rebuild",
                 lambda: trace_structure(rec, rebuild()))

    execute = type(server.policy).execute

    def traced_execute(policy: Any, batch: Any, tick: int) -> Any:
        rec.tick = tick
        return rec.call("serve.policy.execute", execute, policy, batch, tick)
    rec.override(server.policy, "execute", traced_execute)

    capture = manager_module.checkpoint_structure

    def traced_capture(*args: Any, **kwargs: Any) -> Any:
        chk = rec.call("recovery.checkpoint.capture", capture,
                       *args, **kwargs)
        sizes["capture_items"] += chk.item_count()
        return chk
    rec.override(manager_module, "checkpoint_structure", traced_capture)

    if server.durable is not None:
        rec.wrap(server.durable, "append", "recovery.durable.append")
        snapshot = type(server.durable).snapshot

        def traced_snapshot(store: Any, *args: Any, **kwargs: Any) -> Any:
            path = rec.call("recovery.durable.snapshot", snapshot, store,
                            *args, **kwargs)
            sizes["snapshot_bytes"] += os.path.getsize(path)
            return path
        rec.override(server.durable, "snapshot", traced_snapshot)


# ---------------------------------------------------------------------------
# counters read from the public surface, diffed across the timed phase


def model_delta(machines: List[PIMMachine], before: Dict[int, Any],
                ) -> Dict[str, float]:
    """Simulated cost since ``before`` (snapshots by machine id), summed
    over every machine used; a machine created since counts in full."""
    deltas = [m.snapshot() - before[id(m)] if id(m) in before
              else m.snapshot() for m in machines]
    out: Dict[str, float] = {
        "model." + f: sum(getattr(d, f) for d in deltas) for f in _MODEL_SUMS}
    out["model.pim_balance_ratio"] = deltas[-1].pim_balance_ratio
    out["model.shared_mem_peak"] = max(d.shared_mem_peak for d in deltas)
    out["sim.machine.columnar_active"] = float(
        getattr(machines[-1], "columnar_active", False))
    out["sim.machine.fallback_n"] = sum(
        len(getattr(m, "fallback_events", ())) for m in machines)
    return out


def serve_counters(server: Server) -> Dict[str, float]:
    tenants = [s.metrics for s in server.admission.tenants.values()]
    out: Dict[str, float] = {
        "ticks": server.tick,
        "batches": server.batches_served,
        "journal": len(server.journal),
        "completed": sum(t.completed for t in tenants),
        "refused": sum(t.refusals for t in tenants),
        "queue_wait_ticks": sum(t.queue_wait_ticks for t in tenants),
        "trips": server.policy.stats["trips"],
        "failovers": server.manager.recoveries,
    }
    if server.durable is not None:
        stats = server.durable.stats()
        out.update(appends=stats["appends"], fsyncs=stats["fsyncs"],
                   snapshots=stats["snapshots_written"])
    return out


def diff(after: Dict[str, float], before: Dict[str, float],
         ) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


# ---------------------------------------------------------------------------
# the correctness gate


def check_serve(initial: Sequence, journal: Sequence,
                programs: Sequence[Sequence], outcomes: Sequence[Sequence],
                ) -> Tuple[int, SequentialOracle]:
    """Replay the journal through the sequential oracle and compare every
    client's answers (each the ``repr`` of what ``submit`` returned, or
    the refusal itself) in its program order.  Returns the number of
    failed requests (refused, degraded or wrong) and the oracle's final
    state."""
    oracle = SequentialOracle(initial)
    expect: Dict[str, list] = {}
    for entry in journal:
        answers = oracle.apply_batch(entry.op, list(entry.items))
        for _, tenant, lo, hi in entry.slices:
            expect.setdefault(tenant, []).append(
                (entry.op, repr(None if answers is None else answers[lo:hi])))
    failed = 0
    for cid, stream in enumerate(outcomes):
        slots = expect.get(client_name(cid), [])
        program = programs[cid]
        cursor = 0
        for step, outcome in enumerate(stream):
            if isinstance(outcome, FAILURES):
                failed += 1   # fault-free: a refusal is a failure too
                continue
            op = program[step % len(program)][0]
            if cursor >= len(slots) or slots[cursor] != (op, outcome):
                failed += 1
            cursor += 1
        failed += max(0, len(slots) - cursor)  # journaled, never answered
    return failed, oracle


def check_batches(initial: Sequence, executed: Sequence[Tuple[str, list]],
                  results: Sequence) -> int:
    """Compare every ``apply_batch`` result to the oracle's; returns the
    number of wrong items."""
    oracle = SequentialOracle(initial)
    failed = 0
    for (op, payload), got in zip(executed, results):
        want = oracle.apply_batch(op, payload)
        if want is None or got is None:
            failed += 0 if want is got else len(payload)
        else:
            failed += sum(1 for g, w in zip(got, want) if g != w)
            failed += abs(len(got) - len(want))
    return failed


def client_name(cid: int) -> str:
    return f"c{cid:04d}"


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int = 0, seconds: Optional[float] = None,
                 trace: bool = False, quick: bool = False,
                 reference: bool = True) -> Dict[str, Any]:
    """Run one workload once, in this process; returns the full record.

    A traced run ends with an untraced ``reference`` slice to measure
    its own overhead against; the suite turns that off because it has
    whole untraced runs to compare with.
    """
    spec = resolve(name, quick)
    # What the probe's heap adds to the resident set is taken out of
    # peak_rss_mb: everything allocated later sits on top of it.
    rss_kib = resident_kib()
    probe = HostProbe()
    rss_kib -= resident_kib()
    inputs = generate(spec, seed)
    tmp_root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    rec = Recorder() if trace else None
    runner = _run_serve if spec.kind == "serve" else _run_batch
    rig: Optional[Rig] = None
    # The inputs and the probe's heap are the benchmark's, not the
    # program's: out of the collector's way, or every full pass of the
    # timed phase walks them.
    gc.collect()
    gc.freeze()
    try:
        rig, setup_s = timed_setup(spec, inputs, tmp_root)
        if rec is not None:
            rec.watch_gc()
        run = runner(spec, inputs, rig, seconds, rec, trace and reference,
                     probe)
    finally:
        if rec is not None:
            rec.uninstall()
        if rig is not None:
            rig.discard()
        gc.unfreeze()
    timed: Phase = run["timed"]
    model = run["model"]
    # Host times as the clock read them ...
    wall_clock = {
        "ops_per_s": timed.ops / timed.wall,
        "lat_p50_ms": 1e3 * statistics.median(timed.latencies),
        "lat_tail_ms": 1e3 * tail_mean(timed.latencies),
        "timed_wall_s": timed.wall,
    }
    # ... and as reported: at the reference host's speed (hostprobe.py).
    slow = timed.slowdown
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": timed.rate,
        "lat_p50_ms": wall_clock["lat_p50_ms"] / slow,
        "lat_tail_ms": wall_clock["lat_tail_ms"] / slow,
        "model_io_per_op": model["model.io_time"] / timed.ops,
        "model_pim_time_per_op": model["model.pim_time"] / timed.ops,
        "model_rounds_per_op": model["model.rounds"] / timed.ops,
        "peak_rss_mb": (run["rss_kib"] + rss_kib) / 1024.0,
    }
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "quick": quick, "seconds": seconds,
        "attempted": timed.ops, "failed": run["failed"],
        "correct": run["failed"] == 0,
        "timed_wall_s": timed.wall / slow,
        "latency_samples": len(timed.latencies),
        "host_slowdown": slow,
        "wall_clock": wall_clock,
        "end_to_end": end_to_end, "per_layer": None,
        "env": environment(rig, tmp_root),
    }
    if rec is not None:
        record["per_layer"] = layer_metrics(spec, rec, run)
        rec.write_jsonl(
            os.path.join(OUT_DIR, f"trace_{name}.jsonl"), timed.start,
            header={"workload": name, "seed": seed,
                    "timed_wall_s": timed.wall, "host_slowdown": slow})
    return record


def resident_kib() -> int:
    """Resident set size of this process right now."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def environment(rig: Rig, tmp_root: str) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    struct = getattr(rig.live, "struct", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "backend": rig.live.machine.backend,
        "storage": getattr(struct, "storage_kind", "n/a"),
        "overrides": {v: os.environ[v] for v in ENV_OVERRIDES
                      if os.environ.get(v)},
        "tmp_filesystem": filesystem_of(tmp_root),
    }


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (fsync cost is its)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _timed_hooks(phase: Phase, rec: Optional[Recorder], rig: Rig,
                 run: Dict[str, Any],
                 probe: Callable[[], Dict[str, float]] = dict) -> None:
    """Make ``phase`` the measured one: collect garbage and drop the
    warm-up's spans before it, read the counters on both sides of it."""
    def on_begin() -> None:
        gc.collect()
        if rec is not None:
            rec.reset()
        # Memory is read here, after a fixed amount of work: at the end
        # of a time-bounded phase a faster program would have retained
        # more journal and look worse.
        run["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run["model_before"] = {id(m): m.snapshot() for m in rig.machines}
        run["before"] = probe()

    def on_end() -> None:
        run["model"] = model_delta(rig.machines, run["model_before"])
        run["counters"] = diff(probe(), run["before"])
        if rec is not None:
            rec.uninstall()  # whatever follows the timed phase is untraced
    phase.on_begin, phase.on_end = on_begin, on_end


def _run_serve(spec: Workload, inputs: ServeInputs, rig: Rig,
               seconds: Optional[float], rec: Optional[Recorder],
               reference: bool, probe: HostProbe) -> Dict[str, Any]:
    server = rig.server
    assert server is not None
    run: Dict[str, Any] = {"sizes": {"capture_items": 0, "snapshot_bytes": 0}}
    if rec is not None:
        trace_server(rec, server, run["sizes"])
    warm, timed, ref = plan_phases(probe, spec.requests, seconds, reference)
    _timed_hooks(timed, rec, rig, run, lambda: serve_counters(server))
    phases = [p for p in (warm, timed, ref) if p is not None]
    # Answers are kept for the gate as their ``repr`` (and batch results
    # as tuples): strings the collector does not track, so what its full
    # passes walk during the timed phase is the program's heap alone.
    outcomes: List[list] = [[] for _ in range(spec.clients)]
    clock = time.perf_counter
    submit = server.submit

    async def client(cid: int) -> None:
        tenant = client_name(cid)
        program = inputs.programs[cid]
        length = len(program)
        answers = outcomes[cid]
        pos = 0
        previous = None
        for phase in phases:
            await phase.enter(spec.clients, previous)
            previous = phase
            end = math.inf if phase.count is None else pos + phase.count
            deadline = phase.deadline
            latencies = phase.latencies
            while pos < end:
                start = clock()
                if start >= deadline:
                    break
                if start >= probe.due:
                    probe.burst()
                    start = clock()
                op, payload = program[pos % length]
                pos += 1
                # Bursts other clients run while this request is in
                # flight hold the event loop: not the program's time.
                spent = probe.spent
                answer = await submit(tenant, op, payload)
                latencies.append(clock() - start - (probe.spent - spent))
                answers.append(answer if isinstance(answer, FAILURES)
                               else repr(answer))

    async def drive() -> None:
        await server.start()
        try:
            await asyncio.gather(*[client(c) for c in range(spec.clients)])
            phases[-1].finish()
        finally:
            await server.stop()

    asyncio.run(drive())
    for phase in phases:
        phase.ops = len(phase.latencies)
    first = int(run["before"]["journal"])
    entries = server.journal[first:first + int(run["counters"]["journal"])]
    run.update(timed=timed, reference=ref,
               calls=len(entries),
               items=sum(len(e.items) for e in entries),
               requests=sum(len(e.slices) for e in entries))
    failed, oracle = check_serve(inputs.initial, server.journal,
                                 inputs.programs, outcomes)
    if spec.durable:
        failed += _check_restart(rig, server, oracle, run)
        lsn = 1 + sum(e.op in MUTATING_OPS for e in server.journal[:first])
        run["wal_bytes"], run["user_bytes"] = _write_volume(entries, lsn)
    run["failed"] = failed
    return run


def _check_restart(rig: Rig, server: Server, oracle: SequentialOracle,
                   run: Dict[str, Any]) -> int:
    """Reopen the state dir as a restarted server would, time it, and
    require the restored contents to equal the oracle's final state."""
    cfg = server.config
    start = time.perf_counter()
    store = DurableStore.open(
        rig.state_dir, DurabilityPolicy(snapshot_every=cfg.checkpoint_every,
                                        os_fsync=cfg.os_fsync))
    try:
        opened = time.perf_counter()
        manager = RecoveryManager(None, server.manager.rebuild,
                                  checkpoint_every=cfg.checkpoint_every,
                                  durable=store)
        run["restore_s"] = time.perf_counter() - opened
        run["open_s"] = opened - start
        run["replayed"] = len(store.report.records)
        restored = checkpoint_structure(manager.structure).payload
    finally:
        store.close()
    return 0 if list(restored) == sorted(oracle.data.items()) else 1


def _write_volume(entries: Sequence, first_lsn: int) -> Tuple[int, int]:
    """Bytes the WAL wrote for the timed phase's mutating batches, and
    the compact-JSON size of the payloads themselves."""
    wal = user = 0
    lsn = first_lsn
    for entry in entries:
        if entry.op not in MUTATING_OPS:
            continue
        payload = [list(p) if isinstance(p, tuple) else p
                   for p in entry.items]
        wal += len(encode_record(WalRecord(lsn, entry.op, payload)))
        user += len(json.dumps(payload, separators=(",", ":")))
        lsn += 1
    return wal, user


def _run_batch(spec: Workload, inputs: BatchInputs, rig: Rig,
               seconds: Optional[float], rec: Optional[Recorder],
               reference: bool, probe: HostProbe) -> Dict[str, Any]:
    structure = rig.live
    if inputs.batch_size != structure.min_search_batch:
        raise RuntimeError("generated batch size is not min_search_batch")
    run: Dict[str, Any] = {"sizes": {}}
    if rec is not None:
        trace_structure(rec, structure)
    period = len(spec.mix)
    cycles = len(inputs.batches) // period
    warm, timed, ref = plan_phases(probe, cycles, seconds, reference)
    _timed_hooks(timed, rec, rig, run)
    executed: List[Tuple[str, list]] = []
    results: List[Any] = []
    clock = time.perf_counter
    pos = 0
    for phase in (p for p in (warm, timed, ref) if p is not None):
        phase.begin()
        end = math.inf if phase.count is None else pos + phase.count
        while pos < end and clock() < phase.deadline:
            base = (pos % cycles) * period
            for op, payload in inputs.batches[base:base + period]:
                if rec is not None:
                    rec.tick = len(executed)
                if clock() >= probe.due:
                    probe.burst()
                start = clock()
                # Looked up per call: the traced run wraps it on the
                # instance and unwraps it when the timed phase ends.
                result = structure.apply_batch(op, payload)
                phase.latencies.append(clock() - start)
                executed.append((op, payload))
                results.append(None if result is None else tuple(result))
            pos += 1
        phase.finish()
        phase.ops = len(phase.latencies) * inputs.batch_size
    run.update(timed=timed, reference=ref,
               calls=len(timed.latencies), items=timed.ops, requests=0)
    run["failed"] = check_batches(inputs.initial, executed, results)
    return run


_STRUCTURE_OPS = ("get", "successor", "upsert", "delete", "range")


def layer_metrics(spec: Workload, rec: Recorder, run: Dict[str, Any],
                  ) -> Dict[str, float]:
    """The per-layer table of one traced run (every name in PER_LAYER)."""
    timed: Phase = run["timed"]
    wall = timed.wall
    if abs(rec.self_sum() - rec.root_s) > 1e-6 * wall:
        raise RuntimeError("span self times do not add up to their roots")
    remainder = wall - rec.root_s  # the one interval no span covers
    serve = spec.kind == "serve"
    count = run["counters"].get
    sizes = run["sizes"].get
    model = run["model"]
    t = rec.total

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    admit = t("serve.admission.admit")
    capture = t("recovery.checkpoint.capture")
    issue, drain = t("sim.machine.issue"), t("sim.machine.drain")
    machine_s = issue.inclusive + drain.inclusive
    ops = {op: t("structure." + op) for op in _STRUCTURE_OPS}
    written = run.get("wal_bytes", 0) + sizes("snapshot_bytes", 0)
    merged = run["calls"] if serve else 0  # batches the coalescer built
    ref: Optional[Phase] = run["reference"]
    out: Dict[str, float] = {
        "serve.server.self_s": remainder if serve else 0.0,
        "serve.server.ticks": count("ticks", 0),
        "serve.server.batches": count("batches", 0),
        "serve.server.requests": count("completed", 0),
        "serve.admission.admit_s": admit.inclusive,
        "serve.admission.admit_n": admit.n,
        "serve.admission.refused_n": count("refused", 0),
        "serve.admission.queue_wait_ticks_mean":
            per(count("queue_wait_ticks", 0), count("completed", 0)),
        "serve.coalesce.next_batch_s":
            t("serve.coalesce.next_batch").inclusive,
        "serve.coalesce.items_per_batch": per(run["items"], merged),
        "serve.coalesce.requests_per_batch": per(run["requests"], merged),
        "serve.policy.execute_self_s": t("serve.policy.execute").self_s,
        "serve.policy.trips_n": count("trips", 0),
        "recovery.manager.run_self_s": t("recovery.manager.run").self_s,
        "recovery.manager.failovers_n": count("failovers", 0),
        "recovery.manager.restore_s": run.get("restore_s", 0.0),
        "recovery.manager.replayed_n": run.get("replayed", 0),
        "recovery.checkpoint.capture_s": capture.inclusive,
        "recovery.checkpoint.capture_n": capture.n,
        "recovery.checkpoint.items_per_capture":
            per(sizes("capture_items", 0), capture.n),
        "recovery.durable.append_s": t("recovery.durable.append").inclusive,
        "recovery.durable.append_n": count("appends", 0),
        "recovery.durable.fsync_n": count("fsyncs", 0),
        "recovery.durable.wal_bytes_per_record":
            per(run.get("wal_bytes", 0), count("appends", 0)),
        "recovery.durable.snapshot_s":
            t("recovery.durable.snapshot").inclusive,
        "recovery.durable.snapshot_n": count("snapshots", 0),
        "recovery.durable.snapshot_bytes":
            per(sizes("snapshot_bytes", 0), count("snapshots", 0)),
        "recovery.durable.bytes_written_per_user_byte":
            per(written, run.get("user_bytes", 0)),
        "recovery.durable.open_s": run.get("open_s", 0.0),
        "structure.apply_batch_self_s": sum(o.self_s for o in ops.values()),
        "structure.apply_batch_n": sum(o.n for o in ops.values()),
        "structure.us_per_item": 1e6 * per(
            sum(o.inclusive for o in ops.values()), run["items"]),
        "sim.machine.issue_s": issue.inclusive,
        "sim.machine.issue_n": issue.n,
        "sim.machine.drain_s": drain.inclusive,
        "sim.machine.drain_n": drain.n,
        "sim.machine.rounds": model["model.rounds"],
        "sim.machine.messages": model["model.messages"],
        "sim.machine.us_per_round": 1e6 * per(machine_s,
                                              model["model.rounds"]),
        "sim.machine.us_per_message": 1e6 * per(machine_s,
                                                model["model.messages"]),
        "runtime.gc.full_s": rec.gc_full_s,
        "runtime.gc.full_n": rec.gc_full_n,
        "trace.overhead_ratio": 0.0 if ref is None else (
            ref.rate / timed.rate - 1.0),
        "trace.named_share": per(rec.root_s, wall),
        "bench.driver_s": 0.0 if serve else remainder,
    }
    for op, total in ops.items():
        out[f"structure.{op}_s"] = total.inclusive
    for m in PER_LAYER:
        if m.unit in HOST_TIME_UNITS:  # to the reference host's speed
            out[m.name] /= timed.slowdown
    out.update(model)
    return out


# ---------------------------------------------------------------------------
# the suite: child processes, medians, tables


def run_in_child(**kwargs: Any) -> Dict[str, Any]:
    """``run_workload`` in a fresh interpreter (spawn), one at a time."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        return pool.apply(run_workload, kwds=kwargs)


def overhead_ratio(untraced: Sequence[Dict[str, Any]],
                   traced: Dict[str, Any]) -> float:
    """Untraced ops per second (median run) over traced, minus one.  At
    fixed work this is traced wall / untraced median wall - 1."""
    def rate(r: Dict[str, Any]) -> float:
        return r["attempted"] / r["timed_wall_s"]
    return statistics.median(rate(r) for r in untraced) / rate(traced) - 1.0


def run_suite(names: Sequence[str], seed: int = 0, repeats: int = 3,
              seconds: Optional[float] = None, quick: bool = False,
              trace: bool = True, echo: Callable[[str], None] = print,
              ) -> Dict[str, Any]:
    """Every named workload: ``repeats`` untraced runs, then one traced."""
    doc: Dict[str, Any] = {
        "config": {"seed": seed, "repeats": repeats, "seconds": seconds,
                   "quick": quick},
        "workloads": {},
    }
    for name in names:
        common = dict(name=name, seed=seed, seconds=seconds, quick=quick)
        runs = []
        for i in range(repeats):
            runs.append(run_in_child(trace=False, **common))
            echo(f"  {name} run {i + 1}/{repeats}: "
                 f"{runs[-1]['end_to_end']['ops_per_s']:.0f} ops/s, "
                 f"{runs[-1]['failed']} failed")
        entry: Dict[str, Any] = {
            "env": runs[0]["env"],
            "latency_samples": runs[0]["latency_samples"],
            "end_to_end": {
                m.name: statistics.median(r["end_to_end"][m.name]
                                          for r in runs)
                for m in END_TO_END},
            "runs": [r["end_to_end"] for r in runs],
            # The clock's own readings, before division by the slowdown.
            "wall_clock": [dict(r["wall_clock"],
                                host_slowdown=r["host_slowdown"])
                           for r in runs],
            "per_layer": None,
        }
        if trace:
            traced = run_in_child(trace=True, reference=False, **common)
            traced["per_layer"]["trace.overhead_ratio"] = overhead_ratio(
                runs, traced)
            entry["per_layer"] = traced["per_layer"]
            echo(f"  {name} traced run: {traced['failed']} failed")
            runs.append(traced)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["succeeded"] = entry["attempted"] - entry["failed"]
        entry["end_to_end"][FAIL_RATIO.name] = (
            entry["failed"] / entry["attempted"])
        doc["workloads"][name] = entry
    doc["env"] = next(iter(doc["workloads"].values()))["env"]
    return doc


def format_tables(doc: Dict[str, Any]) -> str:
    names = list(doc["workloads"])
    width = max(len(n) for n in names) + 2
    lines = ["", "end-to-end (median of untraced runs)", ""]

    def table(metrics: Sequence[Metric], key: str) -> None:
        lines.append(f"{'metric':<46}{'unit':<13}"
                     + "".join(f"{n:>{width}}" for n in names))
        for m in metrics:
            cells = "".join(
                f"{doc['workloads'][n][key][m.name]:>{width}.6g}"
                for n in names)
            lines.append(f"{m.name:<46}{m.unit:<13}{cells}")

    table(END_TO_END + [FAIL_RATIO], "end_to_end")
    lines += ["", "attempted / succeeded / failed (all runs)"]
    for n in names:
        w = doc["workloads"][n]
        lines.append(f"  {n:<{width}} {w['attempted']} / {w['succeeded']} / "
                     f"{w['failed']}")
    if all(doc["workloads"][n]["per_layer"] for n in names):
        lines += ["", "per-layer (one traced run)", ""]
        table(PER_LAYER, "per_layer")
    env = doc["env"]
    lines += ["", "python {python}, numpy {numpy}, nproc {nproc}, backend "
              "{backend}, storage {storage}, temp dir on {tmp_filesystem}"
              .format(**env)]
    if env["overrides"]:
        lines.append(f"ENV OVERRIDES IN EFFECT: {env['overrides']}")
    return "\n".join(lines)


def result_line(record: Dict[str, Any]) -> str:
    """The one-run result in the form ``BENCHMARK.json``'s driver reads."""
    if record["trace"]:
        table, values = PER_LAYER, record["per_layer"]
    else:
        table, values = END_TO_END, record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table},
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: fixed work)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="one run in this process, result as one JSON line")
    ap.add_argument("--repeats", type=int, default=3,
                    help="suite: untraced runs per workload (median)")
    ap.add_argument("--quick", action="store_true",
                    help="seconds-scale sizes (tests, CI)")
    ap.add_argument("--no-trace", action="store_true",
                    help="suite: skip the traced run")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "bench_e2e.json"),
                    help="suite: where to write the results")
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json from the tables and exit")
    args = ap.parse_args(argv)
    overrides = [v for v in ENV_OVERRIDES if os.environ.get(v)]

    if args.write_spec:
        if overrides:
            ap.error(f"unset {overrides}: BENCHMARK.json describes the "
                     "shipped defaults")
        with open(BENCHMARK_JSON, "w") as f:
            json.dump(benchmark_spec(), f, indent=2)
            f.write("\n")
        return 0

    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.quick)
        print(result_line(record))
        return 0 if record["correct"] else 1

    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    names = [args.workload] if args.workload else list(WORKLOADS)
    doc = run_suite(names, args.seed, args.repeats, args.seconds,
                    args.quick, not args.no_trace)
    print(format_tables(doc))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
    print(f"\nwrote {args.out}")
    failed = sum(w["failed"] for w in doc["workloads"].values())
    if failed:
        print(f"FAILED: {failed} wrong, refused or degraded answer(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
