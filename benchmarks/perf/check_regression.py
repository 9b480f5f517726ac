"""The repo's regression gates: one table, one loop, one invocation.

Every gate is a row of ``GATES``: a name, a measurement, a comparator
and a threshold that is a constant or a value of a committed
``BENCH_*.json`` (a ``Base``).  ``run`` measures each row, prints one
line per row and collects the rows that fail.  To add a gate, add a
row.  What gates well is what the paper's model makes exact and what
one process can measure against itself:

- **exact counts** (rows marked ``EXACT``): rounds, per-module message
  load, replayed WAL records, the share of tasks run inside batch
  handlers, the boundary searches / roots / messages / rounds of one
  fixed batch of ranges, the CPU-side charges and RNG position after
  one fixed session, the messages of one fixed Upsert batch and how
  many of them are path replies the route drops or write rows, the
  rounds / IO / messages of one tick group on each structure and the
  read messages of the PIM-tree's sent as rows, the
  rounds of the search at the widths the serve path sends and one key
  past ``P log P``, and the chaos layer's books after one fixed session
  under the ``mixed`` fault schedule.
  Deterministic functions of the committed parameters (or of the
  seeds in :class:`Bench`), equal on every host, so they cannot flake;
  ``tests/test_perf_gates.py`` runs them in tier-1.
- **in-process ratios**: the engine (``PIMMachine``, label
  ``columnar``) over its per-task reference oracle
  (``ReferencePIMMachine``, label ``object``) on one scenario, and
  worst-case over best-case restart.  Both sides run on this host in
  this minute, so the host's speed cancels.  The floors sit at about
  half the recorded ratios: they gate that the fast path exists, not a
  runner's luck.
  The serve row is the same kind: 300 scheduler ticks of admission
  and coalescing with 4096 idle tenants known to the controller, over
  the same ticks with none.  So are the CPU-side rows: the vector
  placement hash over the scalar loop on one batch, a batch's
  CPU side (``apply_batch`` wall minus ``drain`` minus ``send_all``)
  over its own ``drain``, and one stage of RemoteWrites issued as rows
  over the same stage issued as columns.
- two deliberately loose **cross-host bounds** on sub-second durable
  cells (0.25x the committed WAL append rate, 4x the committed RTO):
  they catch "the write path grew an O(n) scan", not scheduler jitter.

``info`` rows are printed and never fail: wall seconds against
``BENCH_simwall.json`` (a baseline's seconds belong to the box that
recorded them).  Wall-time and serving-throughput claims are
parent/change pairs on ``benchmarks/e2e``; the serving SLO and zero
fault-free refusals are certified by ``repro verify soak``.  Run this
before anything rewrites a ``BENCH_*.json`` in the working tree; exit
status 1 if a row fails::

    PYTHONPATH=src python benchmarks/perf/check_regression.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import statistics
import sys
import time
from operator import eq, ge, gt, le
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)  # the sibling bench_* modules, when imported by path

from bench_durable import bench_restart, bench_wal_append  # noqa: E402
from bench_pimtree import (ADVERSARY, CONTESTANTS,  # noqa: E402
                           make_workloads, measure_cell)
from bench_wallclock import ENGINES, SCENARIOS  # noqa: E402
from repro.balls.hashing import KeyLevelHash  # noqa: E402
from repro.core import ops_upsert  # noqa: E402
from repro.core.ops_search import walk_columns  # noqa: E402
from repro.core.skiplist import PIMSkipList  # noqa: E402
from repro.ops import Columns, run_batch  # noqa: E402
from repro.recovery.checkpoint import (Checkpoint,  # noqa: E402
                                       restore_structure)
from repro.serve import AdmissionController, Coalescer, Request  # noqa: E402
from repro.sim.chaos import build_schedule  # noqa: E402
from repro.sim.machine import PIMMachine  # noqa: E402
from repro.sim.profiling import HandlerProfile, ThroughputProbe  # noqa: E402
from repro.structures.lsm import PIMLSMStore  # noqa: E402
from repro.structures.pimtree import PIMTree  # noqa: E402
from repro.workloads import build_items, zipf_batch  # noqa: E402

COMPARE = {">=": ge, "<=": le, "==": eq, ">": gt}


class Base(NamedTuple):
    """``times`` x the value at dotted ``path`` of the committed
    ``BENCH_<file>.json`` (a list is indexed by an integer part)."""
    file: str
    path: str
    times: float = 1.0


class Gate(NamedTuple):
    name: str
    measure: Callable[["Bench"], Any]
    cmp: str          # a key of COMPARE, or "info": printed, never fails
    threshold: Any    # a constant, a Base, or None on an info row
    exact: bool = False   # a count of the deterministic model: host-free


def load_baseline(path: str) -> dict:
    """Read a committed ``BENCH_*.json``; refuse a ``--quick`` one."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("config", {}).get("quick"):
        raise ValueError(f"{path} is a --quick run; the gates need the "
                         "full-parameter baseline")
    return doc


def memo(fn):
    """Measure once per (method, arguments): several rows share a cell."""
    @functools.wraps(fn)
    def cached(self, *args):
        key = (fn.__name__,) + args
        if key not in self._cells:
            self._cells[key] = fn(self, *args)
        return self._cells[key]
    return cached


def _width_batches() -> dict:
    """The four fixed batches of the ``search widths:`` rows, over the
    key space of a 16 384-key structure built with stride 2."""
    rng = random.Random(7)
    top = 2 * 16384
    return {
        "successor13": ("successor",
                        [rng.randrange(top) for _ in range(13)]),
        "successor385": ("successor",
                         [rng.randrange(top) for _ in range(385)]),
        "range26": ("range",
                    [(lo, lo + 1 + rng.randrange(8))
                     for lo in rng.sample(range(0, top, 16), 26)]),
        "upsert64": ("upsert",
                     [(2 * i + 1, i)
                      for i in rng.sample(range(16384), 64)]),
    }


#: The PIM-tree's read functions, on a tree of the default name.
_PIMTREE_READS = frozenset(f"pimtree:{f}" for f in (
    "nd_step", "sh_step", "lf_get", "lf_succ", "lf_scan"))


def _read_traffic(machine: PIMMachine, fns: frozenset,
                  run: Callable[[], Any]) -> Tuple[int, int]:
    """``(rows, replies)`` while ``run()`` runs: how many messages of
    ``fns`` reach ``machine.send_all`` as rows, and how many ``Reply``
    objects ``machine.drain`` returns."""
    send_all, drain = machine.send_all, machine.drain
    seen = [0, 0]

    def counting_send_all(messages):
        messages = list(messages)
        seen[0] += sum(m[1] in fns for m in messages)
        send_all(messages)

    def counting_drain(*args, **kwargs):
        replies = drain(*args, **kwargs)
        seen[1] += len(replies)
        return replies

    machine.send_all, machine.drain = counting_send_all, counting_drain
    try:
        run()
    finally:
        del machine.send_all, machine.drain
    return seen[0], seen[1]


class Bench:
    """The measurements the rows read, taken lazily with the committed
    baselines' own parameters; timed cells are best of ``repeat``."""

    def __init__(self, repeat: int = 3) -> None:
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        self.repeat = repeat
        self._cells: Dict[tuple, Any] = {}

    @memo
    def baseline(self, file: str) -> dict:
        return load_baseline(os.path.join(HERE, f"BENCH_{file}.json"))

    def value(self, ref: Base) -> Any:
        v = self.baseline(ref.file)
        for part in ref.path.split("."):
            v = v[int(part)] if isinstance(v, list) else v[part]
        return v if ref.times == 1.0 else v * ref.times

    @memo
    def probes(self, name: str, traced: bool = False) -> Dict[str, dict]:
        """Fastest probe of a ``bench_wallclock`` scenario on each side
        of ``ENGINES``, plus the share of its tasks that ran in chunks.
        The sides run alternately, one probe each per repeat, so a ratio
        of the two compares runs made under the same host load.
        ``traced`` probes the engine alone, built with
        ``trace_accesses=True``."""
        best: Dict[str, dict] = {}
        sides = ("columnar",) if traced else tuple(ENGINES)
        for _ in range(self.repeat):
            for backend in sides:
                params = self.value(Base(
                    "simwall",
                    f"backends.{backend}.scenarios.{name}.params"))
                machine_cls = ENGINES[backend]
                if traced:
                    machine_cls = functools.partial(machine_cls,
                                                    trace_accesses=True)
                probe = SCENARIOS[name][0](ThroughputProbe,
                                           machine_cls=machine_cls, **params)
                if (backend not in best
                        or probe.seconds < best[backend]["seconds"]):
                    best[backend] = probe.as_dict()
                    best[backend]["chunked_share"] = (
                        probe.machine.tasks_chunked
                        / probe.machine.tasks_executed)
        return best

    def scenario(self, name: str, backend: str,
                 traced: bool = False) -> dict:
        """One side's cell of :meth:`probes`."""
        return self.probes(name, traced)[backend]

    def speedup(self, name: str) -> float:
        cells = self.probes(name)
        return (cells["columnar"]["tasks_per_sec"]
                / cells["object"]["tasks_per_sec"])

    @memo
    def adversary(self, contestant: str) -> dict:
        """``bench_pimtree``'s same-successor cell for one structure."""
        cfg = self.baseline("pimtree")["config"]
        items = build_items(cfg["n"], stride=1000)
        batch = make_workloads([k for k, _ in items], cfg["batch"],
                               cfg["seed"])[ADVERSARY]
        return measure_cell(CONTESTANTS[contestant], items, batch,
                            P=cfg["P"], seed=cfg["seed"])

    @memo
    def range_batch(self) -> dict:
        """One batch of 12 pairwise-disjoint ranges, each 2-9 wide in a
        key space of 4096 (``serve_mixed``'s widths), on a 16-module,
        2048-key skip list: tasks per function -- a boundary search is
        one ``search_entry`` -- the batch's messages and rounds, and the
        share of its tasks run in batch handlers.
        Counted under the per-handler profiler, which times the rounds
        the engine runs unprofiled and counts the tasks of each
        batch-handler call."""
        machine = PIMMachine(num_modules=16, seed=7)
        sl = PIMSkipList(machine)
        sl.build(build_items(2048, stride=2))
        rng = random.Random(7)
        ops = [(lo, lo + 1 + rng.randrange(8))
               for lo in sorted(rng.sample(range(0, 4096, 16), 12))]
        profile = HandlerProfile()
        machine.set_profiler(profile)
        before = machine.snapshot()
        tasks, chunked = machine.tasks_executed, machine.tasks_chunked
        sl.batch_range(ops)
        delta = machine.delta_since(before)
        calls = {fn.split(":")[1]: n for fn, n in profile.calls.items()}
        return dict(calls, messages=delta.messages, rounds=delta.rounds,
                    chunked_share=((machine.tasks_chunked - chunked)
                                   / (machine.tasks_executed - tasks)))

    @memo
    def pimtree_read_share(self) -> float:
        """Share of tasks run inside body calls over chunks over eight
        rounds of uniform gets, Zipf gets, successors and short ranges
        on a 16-module, 4096-key PIM-tree."""
        machine = PIMMachine(num_modules=16, seed=7)
        tree = PIMTree(machine)
        items = build_items(4096, stride=2)
        tree.build(items)
        keys = [k for k, _ in items]
        rng = random.Random(7)
        tasks, chunked = machine.tasks_executed, machine.tasks_chunked
        for i in range(8):
            tree.apply_batch("get", [rng.randrange(8192) for _ in range(64)])
            tree.apply_batch("get", zipf_batch(64, keys, alpha=1.2, seed=i))
            tree.apply_batch("successor",
                             [rng.randrange(8192) for _ in range(32)])
            tree.apply_batch("range", [(lo, lo + 1 + rng.randrange(8))
                                       for lo in rng.sample(range(8192), 8)])
        if not machine.columnar_active:
            raise AssertionError("the engine stopped routing to chunks")
        return ((machine.tasks_chunked - chunked)
                / (machine.tasks_executed - tasks))

    @memo
    def pimtree_write_share(self) -> float:
        """Share of tasks run inside body calls over chunks over eight
        rounds of upserts (leaf writes, pulls of the oversize leaves,
        their splits' stores) and deletes on a 16-module, 4096-key
        PIM-tree, then its integrity dump."""
        machine = PIMMachine(num_modules=16, seed=7)
        tree = PIMTree(machine)
        tree.build(build_items(4096, stride=2))
        rng = random.Random(7)
        tasks, chunked = machine.tasks_executed, machine.tasks_chunked
        for _ in range(8):
            tree.apply_batch("upsert", [(2 * rng.randrange(4096) + 1, 0)
                                        for _ in range(256)])
            tree.apply_batch("delete", [rng.randrange(8192)
                                        for _ in range(64)])
        tree.check_integrity()
        if not machine.columnar_active:
            raise AssertionError("the engine stopped routing to chunks")
        return ((machine.tasks_chunked - chunked)
                / (machine.tasks_executed - tasks))

    @memo
    def placement_speedup(self) -> float:
        """``KeyLevelHash.module_of_many`` over the scalar ``module_of``
        loop it replaces, on one 2 304-key batch of plain ints."""
        h = KeyLevelHash(64, seed=7)
        rng = random.Random(7)
        keys = [rng.randrange(1 << 31) for _ in range(2304)]
        module_of = h.module_of
        sides = {"scalar": lambda: [module_of(k) for k in keys],
                 "vector": lambda: h.module_of_many(keys)}
        best = dict.fromkeys(sides, float("inf"))
        for _ in range(3 * self.repeat):
            for side, place in sides.items():
                start = time.perf_counter()
                place()
                best[side] = min(best[side], time.perf_counter() - start)
        return best["scalar"] / best["vector"]

    def cpu_side_over_drain(self, op: str) -> float:
        """One op's cell of :meth:`cpu_side_ratios`."""
        return self.cpu_side_ratios()[op]

    @memo
    def cpu_side_ratios(self) -> Dict[str, float]:
        """The host's CPU side of one fixed ``min_search_batch`` (2 304
        keys) of each op on a 64-module, 16 384-key skip list (one per
        op), over its round engine: ``apply_batch`` wall minus the time
        inside ``machine.drain`` and ``machine.send_all``, over the
        time inside ``drain``.  A ``Columns`` stage element's
        ``send_cols`` is not subtracted: its issue time counts as CPU
        side.  Median of ``3 * repeat`` runs of each batch after one
        warm-up; the four ops run alternately, one batch each per
        repeat, so every ratio is read across the same stretch of host
        load.  Every run leaves the structure as it was: reads do, an
        Upsert of fresh keys is followed by a Delete of them and a
        Delete is preceded by their Upsert, both untimed."""
        runs = {}
        for op in ("get", "successor", "upsert", "delete"):
            machine = PIMMachine(num_modules=64, seed=7)
            sl = PIMSkipList(machine)
            sl.build(build_items(16384, stride=2))
            rng = random.Random(7)
            keys = [rng.randrange(2 * 16384)
                    for _ in range(sl.min_search_batch)]
            fresh = [2 * i + 1 for i in rng.sample(range(16384), len(keys))]
            batch, before, after = {
                "get": (keys, None, None),
                "successor": (keys, None, None),
                "upsert": ([(k, 0) for k in fresh], None, ("delete", fresh)),
                "delete": (fresh, ("upsert", [(k, 0) for k in fresh]),
                           None),
            }[op]
            inside = {"drain": 0.0, "send_all": 0.0}
            for name in inside:
                setattr(machine, name, _timed(getattr(machine, name),
                                              inside, name))
            runs[op] = (sl, batch, before, after, inside, [])
        for _ in range(1 + 3 * self.repeat):
            for op, (sl, batch, before, after, inside, ratios) in \
                    runs.items():
                if before:
                    sl.apply_batch(*before)
                inside["drain"] = inside["send_all"] = 0.0
                start = time.perf_counter()
                sl.apply_batch(op, batch)
                wall = time.perf_counter() - start
                ratios.append((wall - inside["drain"] - inside["send_all"])
                              / inside["drain"])
                if after:
                    sl.apply_batch(*after)
        return {op: statistics.median(run[-1][1:])
                for op, run in runs.items()}

    @memo
    def replies_drained(self, op: str) -> int:
        """The ``Reply`` objects the drains of one fixed 2 304-key
        ``op`` batch return, on a 64-module, 16 384-key skip list (the
        ``cpu_side_over_drain`` fixture)."""
        machine = PIMMachine(num_modules=64, seed=7)
        sl = PIMSkipList(machine)
        sl.build(build_items(16384, stride=2))
        rng = random.Random(7)
        keys = [rng.randrange(2 * 16384) for _ in range(sl.min_search_batch)]
        drain = machine.drain
        seen = [0]

        def counting_drain(*args, **kwargs):
            replies = drain(*args, **kwargs)
            seen[0] += len(replies)
            return replies

        machine.drain = counting_drain
        sl.apply_batch(op, keys)
        return seen[0]

    @memo
    def cpu_side_session(self) -> tuple:
        """What the CPU side is charged, and where it leaves the
        machine's RNG, after one fixed Get + Successor + Upsert + Delete
        session on a 16-module, 2 048-key skip list: ``(cpu_work,
        cpu_depth, shared_mem_peak, next draw)``."""
        machine = PIMMachine(num_modules=16, seed=7)
        sl = PIMSkipList(machine)
        sl.build(build_items(2048, stride=2))
        rng = random.Random(7)
        reads = [rng.randrange(4200) for _ in range(256)]
        fresh = [2 * i + 1 for i in rng.sample(range(2048), 96)]
        sl.apply_batch("get", reads)
        sl.apply_batch("successor", reads)
        sl.apply_batch("upsert", [(k, -k) for k in fresh] + [(2, 0), (2, 1)])
        sl.apply_batch("delete", fresh[::2] + [4, 4, 5000])
        m = machine.metrics
        return (m.cpu_work, m.cpu_depth, m.shared_mem_peak,
                machine.rng.random())

    @memo
    def chaos_session(self) -> dict:
        """One fixed Get + Successor + Upsert + Delete + Get session on
        an 8-module, 512-key skip list under the ``mixed`` fault
        schedule (drop, dup, delay, corrupt and a three-round stall):
        the chaos layer's ``books`` ``(rounds, idle_rounds,
        stalled_slots, transmissions, retransmissions)`` and the
        ``chunked_share`` of the tasks run, both counted from the
        install."""
        machine = PIMMachine(num_modules=8, seed=11)
        sl = PIMSkipList(machine)
        sl.build(build_items(512, stride=4))
        state = machine.install_fault_plan(
            build_schedule("mixed", seed=3, num_modules=8))
        tasks, chunked = machine.tasks_executed, machine.tasks_chunked
        rng = random.Random(11)
        keys = [rng.randrange(2100) for _ in range(48)]
        sl.apply_batch("get", keys)
        sl.apply_batch("successor", keys)
        sl.apply_batch("upsert", [(2 * k + 1, k) for k in keys])
        sl.apply_batch("delete", keys[:16])
        sl.apply_batch("get", keys)
        s = state.stats
        return dict(
            books=(machine.metrics.rounds - state.base_round, s.idle_rounds,
                   s.stalled_slots, s.transmissions, s.retransmissions),
            chunked_share=((machine.tasks_chunked - chunked)
                           / (machine.tasks_executed - tasks)))

    @memo
    def search_widths(self) -> dict:
        """``(rounds, io_time)`` of four fixed batches, one after the
        other, on a 64-module, 16 384-key skip list (``serve_mixed``'s
        structure): the widths ``repro serve`` hands the search per tick
        -- 13 Successor keys, 26 ranges of 2-9 keys, an Upsert of 64
        fresh keys, all at most ``P log P`` = 384 wide -- and one
        Successor batch of 385, one key past it."""
        machine = PIMMachine(num_modules=64, seed=7)
        sl = PIMSkipList(machine)
        sl.build(build_items(16384, stride=2))
        cells = {}
        for name, (op, payload) in _width_batches().items():
            before = machine.snapshot()
            sl.apply_batch(op, payload)
            delta = machine.delta_since(before)
            cells[name] = (delta.rounds, delta.io_time)
        return cells

    @memo
    def tick_groups(self) -> dict:
        """``(rounds, io_time, messages)`` of one ``apply_group`` call
        and of the same batches through ``apply_batch`` one after the
        other, each on a fresh 64-module, 16 384-key structure: the
        64-key Upsert and its 13 Successor riders of
        :meth:`search_widths` on the skip list (a ``serve_durable_write``
        write tick), the same with the first 13 ranges of ``range26``
        riding too (a ``serve_mixed`` write tick), and 218 Gets, 13
        Successor keys and 13 ranges on the PIM-tree (a
        ``serve_read_pimtree`` tick's mix), and that tick's mix led by
        the first 13 pairs of the 64-key Upsert (its write tick).
        ``(name, "read rows")`` counts the group's messages of the
        PIM-tree's five read functions that reached ``send_all`` as rows
        (none on the skip list), ``(name, "replies")`` the ``Reply``
        objects its drains returned."""
        batches = _width_batches()
        rng = random.Random(7)
        reads = [("get", [rng.randrange(2 * 16384) for _ in range(218)]),
                 batches["successor13"],
                 ("range", batches["range26"][1][:13])]
        groups = {
            "skiplist": (PIMSkipList, [batches["upsert64"],
                                       batches["successor13"]]),
            "skiplist+range": (PIMSkipList, [
                batches["upsert64"], batches["successor13"],
                ("range", batches["range26"][1][:13])]),
            "pimtree": (PIMTree, reads),
            "pimtree+upsert": (PIMTree, [
                ("upsert", batches["upsert64"][1][:13])] + reads),
        }
        cells = {}
        for name, (cls, group) in groups.items():
            for how in ("group", "apart"):
                machine = PIMMachine(num_modules=64, seed=7)
                structure = cls(machine)
                structure.build(build_items(16384, stride=2))
                before = machine.snapshot()
                if how == "group":
                    (cells[name, "read rows"],
                     cells[name, "replies"]) = _read_traffic(
                        machine, _PIMTREE_READS,
                        lambda: structure.apply_group(group))
                else:
                    for op, payload in group:
                        structure.apply_batch(op, payload)
                delta = machine.delta_since(before)
                cells[name, how] = (delta.rounds, delta.io_time,
                                    delta.messages)
        return cells

    @memo
    def upsert_batch(self) -> dict:
        """One fixed Upsert of 800 fresh keys (``min_search_batch`` at
        P = 32) into a 32-module, 8 192-key skip list -- one
        ``batch_write_churn`` batch.  Counts the batch's messages, the
        ``("path", ...)`` replies of its recording search that sit above
        what the route keeps of their op (a pivot -- every ``log P``-th
        sorted position and the last -- keeps its whole lower-part path,
        any other op the levels up to its tower's height), and the
        ``write_ptr`` messages that reached ``send_all`` as rows."""
        machine = PIMMachine(num_modules=32, seed=7)
        sl = PIMSkipList(machine)
        sl.build(build_items(8192, stride=2))
        rng = random.Random(7)
        fresh = [2 * i + 1
                 for i in rng.sample(range(8192), sl.min_search_batch)]
        fn_write = sl.struct.fn_write_ptr
        seen = {"write_rows": 0, "above": 0}
        send_all, drain, search = (machine.send_all, machine.drain,
                                   ops_upsert.batch_search)

        def counting_send_all(messages):
            messages = list(messages)
            seen["write_rows"] += sum(m[1] == fn_write for m in messages)
            send_all(messages)

        def counting_search(struct, keys, record_all, record_levels):
            h_cap = struct.h_low - 1
            order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
            seg_len = struct.log_p  # 800 keys = P log^2 P: the paper's spacing
            pivots = set(range(0, len(keys), seg_len)) | {len(keys) - 1}
            keeps = [h_cap if pos in pivots
                     else min(record_levels[i], h_cap)
                     for pos, i in enumerate(order)]

            def counting_drain(*args, **kwargs):
                replies = drain(*args, **kwargs)
                _done, (opids, _nodes, levels, _rights) = walk_columns(
                    replies)
                seen["above"] += sum(level > keeps[opid]
                                     for opid, level in zip(opids, levels))
                return replies

            machine.drain = counting_drain
            try:
                return search(struct, keys, record_all=record_all,
                              record_levels=record_levels)
            finally:
                machine.drain = drain

        machine.send_all = counting_send_all
        ops_upsert.batch_search = counting_search
        try:
            before = machine.snapshot()
            stats = sl.batch_upsert([(k, -k) for k in fresh])
            messages = machine.delta_since(before).messages
        finally:
            ops_upsert.batch_search = search
        if stats.inserted != len(fresh) or not machine.columnar_active:
            raise AssertionError((stats, machine.columnar_active))
        return dict(seen, messages=messages)

    @memo
    def write_stage_speedup(self) -> float:
        """One route stage of 6 000 RemoteWrites to owned leaves of a
        32-module, 8 192-key skip list (each rewrites the pointer's
        value, so the stage repeats), issued and drained as rows and as
        one ``Columns`` element, alternately: rows wall / columns wall,
        best of ``3 * repeat`` each."""
        machine = PIMMachine(num_modules=32, seed=7)
        sl = PIMSkipList(machine)
        sl.build(build_items(8192, stride=2))
        s = sl.struct
        nodes = list(s.iter_level(0))[:6000]
        fields = ["right"] * len(nodes)
        values = [n.right for n in nodes]
        owners = [n.owner for n in nodes]
        fn = s.fn_write_ptr

        def route(stage):
            yield stage

        forms = {
            "rows": [(o, fn, (n, f, v), None)
                     for o, n, f, v in zip(owners, nodes, fields, values)],
            "columns": [Columns(fn, owners, (nodes, fields, values))],
        }
        best = dict.fromkeys(forms, float("inf"))
        for _ in range(3 * self.repeat):
            for form, stage in forms.items():
                before = machine.snapshot()
                start = time.perf_counter()
                run_batch(machine, "gate:write_stage", route(stage))
                best[form] = min(best[form], time.perf_counter() - start)
                # A write is one message and replies nothing.
                if machine.delta_since(before).messages != len(nodes):
                    raise AssertionError(f"{form}: a write is missing")
        return best["rows"] / best["columns"]

    @memo
    def restore(self, kind: str, p: int, n: int) -> tuple:
        """``(rounds, io_time / (n/P), pim_time / (n/P))`` of restoring
        a checkpoint of ``n`` sorted items into an empty ``kind`` (skip
        list or LSM store) on a fresh ``p``-module machine."""
        machine = PIMMachine(num_modules=p, seed=7)
        target = {"skiplist": PIMSkipList, "lsm": PIMLSMStore}[kind](machine)
        restore_structure(Checkpoint(kind, kind, build_items(n, stride=2)),
                          target)
        m = machine.metrics
        return m.rounds, m.io_time * p / n, m.pim_time * p / n

    def restore_growth(self, kind: str, p: int, field: int) -> float:
        """A restore's per-``n/P`` IO (``field`` 1) or PIM time (2) at
        65 536 items over its value at 4 096."""
        return (self.restore(kind, p, 65536)[field]
                / self.restore(kind, p, 4096)[field])

    @memo
    def wal_append(self) -> dict:
        base = self.baseline("durable")["wal_append"]
        return min((bench_wal_append(base["records"],
                                     base["pairs_per_record"], os_fsync=False)
                    for _ in range(self.repeat)), key=lambda r: r["seconds"])

    @memo
    def restart(self, cell: str) -> dict:
        """Re-measure the committed restart cell at ``cell``."""
        base = self.value(Base("durable", cell))
        return bench_restart(base["mutations"], base["checkpoint_every"],
                             self.repeat)

    @memo
    def serve_ticks(self, idle: int) -> float:
        """Seconds for 300 scheduler ticks of ``admit`` + ``next_batch``
        + ``pending`` -- 8 tenants submit one ``get`` each per tick --
        on a controller that also knows ``idle`` tenants that were
        created and left empty."""
        best = float("inf")
        for _ in range(self.repeat):
            admission, coalescer = AdmissionController(), Coalescer()
            for i in range(idle):
                admission.tenant(f"idle{i:04d}")
            start = time.perf_counter()
            for tick in range(1, 301):
                for busy in "abcdefgh":
                    admission.admit(Request(busy, "get", [tick]), tick)
                [batch], _ = coalescer.next_batch(admission, tick)
                if len(batch.slices) != 8 or admission.pending:
                    raise AssertionError("a tick left requests queued")
            best = min(best, time.perf_counter() - start)
        return best


def _timed(call: Callable, inside: Dict[str, float],
           name: str) -> Callable:
    """``call``, adding the seconds spent inside it to ``inside[name]``."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            inside[name] += time.perf_counter() - start
    return wrapper


EXACT = True
LOG, AFTER, BEFORE = ("rto_log_length.-1", "rto_replay_debt.after_snapshot",
                      "rto_replay_debt.before_snapshot")
WALL = "backends.{}.scenarios.macro_successor.seconds"

GATES: List[Gate] = [
    # -- engine over reference oracle, tasks/sec (recorded: 1.3x, 1.2x,
    # 5x).  write_churn's ratio is mostly structure work both sides
    # share, so its floor only says "not slower than the oracle"; the
    # chunked share below is what gates that path's existence.
    # fanout_broadcast is one batch-handler call and one plain
    # accounting pass over P = 256 modules against 256 context
    # dispatches: 4.9-5.1x in one process (16x while a numpy twin of the
    # round's books existed for it alone, DESIGN.md section 11).
    Gate("speedup macro_successor",
         lambda b: b.speedup("macro_successor"), ">=", 1.05),
    Gate("speedup write_churn",
         lambda b: b.speedup("write_churn"), ">=", 1.02),
    Gate("speedup fanout_broadcast",
         lambda b: b.speedup("fanout_broadcast"), ">=", 2.5),
    # Every module function is a batch body, so every task of the write
    # path runs chunked: anything below 1.0 means a task went to a slot.
    Gate("chunked share write_churn",
         lambda b: b.scenario("write_churn", "columnar")["chunked_share"],
         "==", 1.0, EXACT),
    # Access tracing chunks like a plain machine: every batch body
    # reports its touches through ``bct.touch``, so a traced machine
    # sends no task to a slot that the plain one runs in a chunk.
    Gate("chunked share write_churn, trace_accesses / plain",
         lambda b: (b.scenario("write_churn", "columnar",
                               True)["chunked_share"]
                    / b.scenario("write_churn", "columnar")["chunked_share"]),
         "==", 1.0, EXACT),
    # -- the CPU side of a batch (PR 20): charged by formula, executed as
    # arrays.  The vector placement hash over the scalar loop it
    # replaced, 2 304 plain ints (recorded 12x on the development host;
    # the floor is half of it).
    Gate("vector placement / scalar loop, n = 2304",
         lambda b: b.placement_speedup(), ">=", 6.0),
    # apply_batch wall minus drain minus send_all, over drain, one fixed
    # 2 304-key batch at P = 64, the four ops run alternately (a
    # ``Columns`` element's send_cols counts as CPU side).  Recorded
    # 0.28 (Get) and 0.43 (Successor); with a Python frame or two per
    # key in the route's CPU side they read 0.72-0.75 and 0.58-0.60
    # here.  Above the ceiling, a per-key spelling is back on the
    # route.  A faster drain raises a ratio: with the walk and the
    # point bodies in columns the four rows read 0.24-0.26 / 0.42-0.45
    # / 0.54-0.58 / 0.50-0.53 over five full-table runs (0.27-0.30 /
    # 0.40-0.41 / 0.49-0.52 / 0.49-0.51 before, each op's runs back to
    # back).
    Gate("CPU side / drain, 2304-key Get",
         lambda b: b.cpu_side_over_drain("get"), "<=", 0.45),
    Gate("CPU side / drain, 2304-key Successor",
         lambda b: b.cpu_side_over_drain("successor"), "<=", 0.50),
    # The write routes' CPU side as columns (Delete's splice, Algorithm
    # 1, the tower build): an Upsert of 2 304 fresh keys read 0.51 and
    # the Delete of the same keys 0.48 (2-core VM, Python 3.11), where
    # the per-node dict build and per-write tuple rows read 0.58-0.63
    # and 0.87-0.95.  Each ceiling is its reading times the Successor
    # row's margin (0.50 over 0.43).  Most of the Upsert's CPU side is
    # its search's, which the columns did not touch.
    Gate("CPU side / drain, 2304-key Upsert of fresh keys",
         lambda b: b.cpu_side_over_drain("upsert"), "<=", 0.59),
    Gate("CPU side / drain, 2304-key Delete of the same keys",
         lambda b: b.cpu_side_over_drain("delete"), "<=", 0.56),
    # The charges and the RNG stream are PR 19's, to the last bit: how
    # the host executes the CPU side is free, what the model is billed
    # and which modules the searches start on are not.  The continuous
    # pivot spacing (DESIGN.md §17) moved the first two, 11 966.3 and
    # 298.68 before it: the Upsert's 96 new keys space their pivots 11
    # apart instead of log P = 4, in 78 rounds instead of 93.
    Gate("CPU-side session: cpu_work, cpu_depth, shared_mem_peak, rng",
         lambda b: b.cpu_side_session(), "==",
         (12016.312800138461, 285.89029833108435, 1275,
          0.8849328792636154), EXACT),
    # The chaos layer's accounting, the same while a fault plan's rounds
    # ran the per-task loop as since the plan filters chunks: the rounds
    # under the plan, the idle ones it charged (delays, the stall, retry
    # backoff), the destinations' rounds the stall held and the
    # envelopes transmitted and retransmitted.
    Gate("chaos session, mixed schedule: (rounds, idle_rounds, "
         "stalled_slots, transmissions, retransmissions)",
         lambda b: b.chaos_session()["books"], "==",
         (162, 24, 3, 799, 56), EXACT),
    # Every task run under the plan runs in a body call: the plan filters
    # the staged chunks and the engine's one executor runs the rest (0
    # while a plan's rounds ran the per-task loop).
    Gate("chunked share chaos session, mixed schedule",
         lambda b: b.chaos_session()["chunked_share"], "==", 1.0, EXACT),
    # -- the write path (PR 21).  A batch's RemoteWrites cross the ops
    # boundary as columns: none reaches ``send_all`` as a row (6 066 did),
    # and a 6 000-write stage is issued and drained 1.75-1.9x faster than
    # its rows (half of that would pass a column path slower than rows,
    # so the floor is 1.3).  The recording search streams back only the
    # levels its op keeps: 3 876 of this batch's 7 990 path replies sat
    # above them and were dropped by the CPU-side fold after the model
    # had charged them -- the batch was 49 474 messages, not 45 598.  No
    # write-path task replies (DESIGN.md §19): 45 598 -> 34 083.
    Gate("upsert batch: write_ptr rows through send_all",
         lambda b: b.upsert_batch()["write_rows"], "==", 0, EXACT),
    Gate("upsert batch: path replies above their op's limit",
         lambda b: b.upsert_batch()["above"], "==", 0, EXACT),
    Gate("upsert batch: messages",
         lambda b: b.upsert_batch()["messages"], "==", 34083, EXACT),
    Gate("write stage rows / columns, 6000 writes",
         lambda b: b.write_stage_speedup(), ">=", 1.3),
    # -- the search's pivot spacing (PR 22).  A batch of at most
    # P log P = 384 keys places its pivots log^2 P apart and runs fewer
    # divide-and-conquer phases: the three widths the serve path sends
    # read 42 / 94 / 97 rounds at the paper's spacing.  The 64 new keys
    # of the Upsert have three pivots, and phase 0 walks all three from
    # the root: one recording stage fewer, 47 -> 36 rounds.  385 keys
    # are still log^2 P apart (ceil(P log^3 P / 385) = 36), with the
    # extremes alone in phase 0, where they were on the paper's spacing
    # in 138 rounds and 816 IO.
    Gate("search widths: 13-key Successor, rounds",
         lambda b: b.search_widths()["successor13"][0], "==", 29, EXACT),
    Gate("search widths: 26-range batch, rounds",
         lambda b: b.search_widths()["range26"][0], "==", 59, EXACT),
    Gate("search widths: 64-key Upsert, rounds",
         lambda b: b.search_widths()["upsert64"][0], "==", 36, EXACT),
    Gate("search widths: 385-key Successor, (rounds, io_time)",
         lambda b: b.search_widths()["successor385"], "==", (92, 636.0),
         EXACT),
    # -- batches that share a tick.  The skip list's write group: the 13
    # Successor keys ride the 64-key Upsert's recording search (77 keys
    # search in three stages, 64 in two, 13 alone in two) and are
    # answered as after the write: 47 rounds; apart, 65 = 36 + 29, the
    # two `search widths:` rows above, same batches.
    # With the first 13 ranges of `range26` riding too, their 13 piece
    # boundaries join the same search (90 keys, still three stages) and
    # their count and fetch passes run before the write links anything:
    # 73 rounds = 47 + 26 for the passes; apart, 123 = 65 + 58, the
    # ranges' own boundary search and passes after the write.
    Gate("write group + 13 ranges: skiplist, (rounds, io, messages)",
         lambda b: b.tick_groups()["skiplist+range", "group"],
         "==", (73, 377.0, 4004), EXACT),
    Gate("write group + 13 ranges: skiplist apart, (rounds, io, messages)",
         lambda b: b.tick_groups()["skiplist+range", "apart"],
         "==", (123, 496.0, 4023), EXACT),
    # On the PIM-tree the three read classes descend once and share a
    # leaf stage per hop.
    Gate("write group: skiplist Upsert + Successor, (rounds, io, messages)",
         lambda b: b.tick_groups()["skiplist", "group"],
         "==", (47, 258.0, 2978), EXACT),
    Gate("write group: skiplist Upsert + Successor apart, "
         "(rounds, io, messages)",
         lambda b: b.tick_groups()["skiplist", "apart"],
         "==", (65, 292.0, 2994), EXACT),
    Gate("read group: pimtree 218 Get + 13 Successor + 13 ranges, "
         "(rounds, io, messages)",
         lambda b: b.tick_groups()["pimtree", "group"],
         "==", (4, 72.0, 1077), EXACT),
    Gate("read group: pimtree apart, (rounds, io, messages)",
         lambda b: b.tick_groups()["pimtree", "apart"],
         "==", (10, 105.0, 1127), EXACT),
    # The PIM-tree's write group: 13 fresh keys descend with the reads'
    # queries and their leaf writes share the reads' first leaf round;
    # the 13 leaves they overfill split after the reads' second hop:
    # 6 rounds = 2 descent + 2 leaf hops + pull + store.  Apart, the
    # Upsert pays its own descent and write: 15 = 5 + 10.
    Gate("write group: pimtree 13 Upserts + the read group, "
         "(rounds, io, messages)",
         lambda b: b.tick_groups()["pimtree+upsert", "group"],
         "==", (6, 141.0, 1862), EXACT),
    Gate("write group: pimtree apart, (rounds, io, messages)",
         lambda b: b.tick_groups()["pimtree+upsert", "apart"],
         "==", (15, 166.0, 1957), EXACT),
    # The tree's reads leave a route as one ``Columns`` element per
    # function and stage; the driver sends an element as rows below
    # COLUMNS_CROSSOVER messages only: the 13 ranges' scans and the
    # Successor keys' probes, 32 of the group's 461 read messages (all
    # 461 were rows while every message was its own tuple).
    Gate("pimtree read group: read rows through send_all",
         lambda b: b.tick_groups()["pimtree", "read rows"], "==", 32,
         EXACT),
    # Each read kernel call answers in one column reply, not one reply
    # per message: the group's drains return 13 replies, its pulls'
    # rows included (469 while every message replied on its own).
    Gate("pimtree read group: replies drained",
         lambda b: b.tick_groups()["pimtree", "replies"], "==", 13,
         EXACT),
    # The skip list's walk answers in a "done" and a "path" column reply
    # at most per body call, and its point bodies in one reply per call:
    # a 2 304-key Successor batch at P = 64 drains 281 replies (6 843
    # while every answer was its own), a Get batch 1 (2 230: one per
    # distinct key).
    Gate("skiplist 2304-key Successor: replies drained",
         lambda b: b.replies_drained("successor"), "==", 281, EXACT),
    Gate("skiplist 2304-key Get: replies drained",
         lambda b: b.replies_drained("get"), "==", 1, EXACT),
    # -- batched tree range (core/ops_range.py): the cut-point sweep
    # pays one boundary search, one root and one go per covered piece,
    # so n pairwise-disjoint ops cost n of each (3n under the old
    # point / gap / point sweep: 36, and 1355 messages in 72 rounds).
    # The equalities move only when the range path's model cost does:
    # 731 messages in 52 rounds until PR 22, whose 12 pieces (<= P log P
    # = 64) space their pivots log^2 P apart.
    Gate("range batch: boundary searches == ops",
         lambda b: b.range_batch()["search_entry"],
         "==", 12, EXACT),
    Gate("range batch: rng_root tasks == ops",
         lambda b: b.range_batch()["rng_root"], "==", 12, EXACT),
    Gate("range batch: messages",
         lambda b: b.range_batch()["messages"], "==", 727, EXACT),
    Gate("range batch: rounds",
         lambda b: b.range_batch()["rounds"], "==", 39, EXACT),
    # Every PIM-tree function is a batch body, the pulls included:
    # anything below 1.0 means a task went to a slot.
    Gate("chunked share pimtree reads",
         lambda b: b.pimtree_read_share(), "==", 1.0, EXACT),
    # The writes too: leaf writes and deletes, the pulls and stores of
    # the splits, the integrity dump.
    Gate("chunked share pimtree writes",
         lambda b: b.pimtree_write_share(), "==", 1.0, EXACT),
    # The search and all six rng_* traversal functions run in batch
    # handlers (0.34 while the traversal ran in slots): anything below
    # 1.0 means one of them went back to slots.
    Gate("chunked share range batch",
         lambda b: b.range_batch()["chunked_share"], "==", 1.0, EXACT),
    # -- the skew adversary (bench_pimtree.py; load = max messages
    # delivered to one module): the tree's shallow pull-collapsed descent
    # vs the skip list's Theta(log n) lockstep walk.  An equality that
    # fails means the model changed: regenerate BENCH_pimtree.json if
    # that was intended.
    Gate("pimtree rounds", lambda b: b.adversary("pimtree")["rounds"],
         "==", Base("pimtree", "gates.pimtree_rounds"), EXACT),
    Gate("pimtree load", lambda b: b.adversary("pimtree")["max_module_load"],
         "==", Base("pimtree", "gates.pimtree_load"), EXACT),
    Gate("skiplist rounds", lambda b: b.adversary("skiplist")["rounds"],
         "==", Base("pimtree", "gates.skiplist_rounds"), EXACT),
    Gate("skiplist load", lambda b: b.adversary("skiplist")["max_module_load"],
         "==", Base("pimtree", "gates.skiplist_load"), EXACT),
    Gate("pimtree rounds within ceiling",
         lambda b: b.adversary("pimtree")["rounds"],
         "<=", Base("pimtree", "gates.rounds_ceiling"), EXACT),
    # At or under the ceiling, the adversary no longer separates the two.
    Gate("skiplist rounds above ceiling",
         lambda b: b.adversary("skiplist")["rounds"],
         ">", Base("pimtree", "gates.rounds_ceiling"), EXACT),
    Gate("load ratio pimtree/skiplist",
         lambda b: (b.adversary("pimtree")["max_module_load"]
                    / b.adversary("skiplist")["max_module_load"]),
         "<=", Base("pimtree", "gates.load_ratio_ceiling"), EXACT),
    # -- the serve loop: a tick costs what the tenants with queued work
    # cost (32x before PR 18, when every tick walked every tenant ever
    # seen).  Above the bound, a tick is scanning tenants with nothing
    # queued.
    Gate("serve tick cost, 4096 idle tenants / none",
         lambda b: b.serve_ticks(4096) / b.serve_ticks(0), "<=", 2.0),
    # -- restore is a bulk load: a checkpoint of n sorted items
    # re-enters an empty skip list in two rounds (lower nodes as columns
    # and the upper part by broadcast, then each module's one-pass table
    # load and next-leaf sweep) and an empty LSM store in one (its run's
    # blocks).  Rounds equal across n, and IO and PIM time per n/P flat
    # from 4 096 to 65 536 items: through batch_upsert the skip list paid
    # 7 rounds and PIM 310 574 -> 4 691 520 at P = 8 from 4 096 to 16 384
    # items (13x for 4x), the LSM 19-21 rounds.
    *[row for kind, rounds in (("skiplist", 2), ("lsm", 1))
      for p in (8, 64)
      for row in (
          Gate(f"restore {kind}, P = {p}: rounds at n = 4096, 65536",
               lambda b, kind=kind, p=p: (b.restore(kind, p, 4096)[0],
                                          b.restore(kind, p, 65536)[0]),
               "==", (rounds, rounds), EXACT),
          Gate(f"restore {kind}, P = {p}: IO/(n/P), 65536 / 4096",
               lambda b, kind=kind, p=p: b.restore_growth(kind, p, 1),
               "<=", 1.25, EXACT),
          Gate(f"restore {kind}, P = {p}: PIM/(n/P), 65536 / 4096",
               lambda b, kind=kind, p=p: b.restore_growth(kind, p, 2),
               "<=", 1.25, EXACT))],
    # -- durability (bench_durable.py), modeled fsync.  A fast restart to
    # the wrong state is a correctness bug, not a perf win; a replayed-
    # record count that moved means the checkpoint cadence changed
    # (re-emit BENCH_durable.json if intended).
    Gate("durable wal_append records/s",
         lambda b: b.wal_append()["records_per_sec"],
         ">=", Base("durable", "wal_append.records_per_sec", 0.25)),
    Gate("durable rto longest log", lambda b: b.restart(LOG)["rto_seconds"],
         "<=", Base("durable", LOG + ".rto_seconds", 4.0)),
    Gate("durable restart exact: longest log",
         lambda b: b.restart(LOG)["ok"], "==", True, EXACT),
    Gate("durable restart exact: after snapshot",
         lambda b: b.restart(AFTER)["ok"], "==", True, EXACT),
    Gate("durable restart exact: before snapshot",
         lambda b: b.restart(BEFORE)["ok"], "==", True, EXACT),
    Gate("durable replayed records: after snapshot",
         lambda b: b.restart(AFTER)["replayed_records"],
         "==", Base("durable", AFTER + ".replayed_records"), EXACT),
    Gate("durable replayed records: before snapshot",
         lambda b: b.restart(BEFORE)["replayed_records"],
         "==", Base("durable", BEFORE + ".replayed_records"), EXACT),
    # The amortized checkpoint rule: a restart replays at most the
    # checkpoint's own items plus one batch.
    Gate("durable replay debt: items beyond checkpoint",
         lambda b: (b.restart(BEFORE)["replayed_items"]
                    - b.restart(BEFORE)["checkpoint_items"]),
         "<=", Base("durable", "rto_replay_debt.batch_items"), EXACT),
    # Restore + a full window of replay over restore only, a constant
    # because the window is bounded by the checkpoint's size; an
    # unbounded log shows up as a ratio that grows with the run.  A
    # restore is a two-round bulk load and the window 255 batched
    # Upserts, so the ratio is 8.4-13.8x at the committed 2 048-item
    # checkpoint (11.7x at 1 024 items, 12.9x at 4 096: flat in the
    # run's length); it was 2-3.2x while a restore was itself one
    # batch_upsert of the checkpoint.  The ceiling is about twice the
    # highest reading.
    Gate("durable rto worst/best",
         lambda b: (b.restart(BEFORE)["rto_seconds"]
                    / b.restart(AFTER)["rto_seconds"]), "<=", 30.0),
    # -- printed, never failed.
    Gate("wall macro_successor [object], s",
         lambda b: b.scenario("macro_successor", "object")["seconds"],
         "info", Base("simwall", WALL.format("object"))),
    Gate("wall macro_successor [columnar], s",
         lambda b: b.scenario("macro_successor", "columnar")["seconds"],
         "info", Base("simwall", WALL.format("columnar"))),
]


def _show(v: Any) -> str:
    return f"{v:,.6g}" if isinstance(v, float) else str(v)


def run(bench: Bench, gates: Sequence[Gate] = GATES) -> List[str]:
    """Measure every row, print one line per row, return the failed lines."""
    failed = []
    for g in gates:
        got = g.measure(bench)
        ref = g.threshold
        want = bench.value(ref) if isinstance(ref, Base) else ref
        ok = g.cmp == "info" or COMPARE[g.cmp](got, want)
        status = "info" if g.cmp == "info" else "ok" if ok else "FAIL"
        line = (f"{status:<4} {g.name:<45} {_show(got):>9} "
                f"{g.cmp:<4} {'' if want is None else _show(want)}")
        if isinstance(ref, Base):
            line += (f"  ({'' if ref.times == 1.0 else f'{ref.times:g} x '}"
                     f"BENCH_{ref.file}.json {ref.path})")
        print(line)
        if not ok:
            failed.append(line)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per timed cell; the fastest counts (default 3)")
    failed = run(Bench(ap.parse_args().repeat))
    for line in failed:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if not failed:
        print(f"ok: all {len(GATES)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
