"""The benchmark's workloads and their input generators.

Each workload puts most of its wall time in a different layer (the
``why`` of each says which, and is copied into ``BENCHMARK.json``).
Inputs -- the stored items, every client's request program, every batch
payload -- are a pure function of ``(workload, seed, quick)`` and are
generated before any timing starts; the program under test only ever
sees the generated inputs.

Stored keys are spread evenly over the key space ``[0, K)`` that
requests draw from.  ``K`` is ``2n`` (the even numbers are stored) unless
the mix both inserts and deletes uniformly; then ``K = n (u + d) / u``
for upsert weight ``u`` and delete weight ``d``, the size at which
inserts of absent keys and deletes of present ones balance, so the
stored set stays near ``n`` however long a time-bounded run lasts.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["WORKLOADS", "BatchInputs", "ServeInputs", "Workload",
           "generate", "resolve"]

Request = Tuple[str, list]


@dataclass(frozen=True)
class Workload:
    """One named workload.  ``mix`` is ``((request kind, weight), ...)``
    for serve workloads and the op cycle for batch workloads."""

    name: str
    kind: str                 # "serve" (closed loop of clients) | "batch"
    structure: str            # "skiplist" | "pimtree"
    modules: int
    stored: int
    mix: Tuple[Any, ...]
    why: str
    clients: int = 0          # serve: closed-loop clients, one tenant each
    requests: int = 0         # serve: program length per client
    cycles: int = 0           # batch: repetitions of the op cycle
    keys: str = "uniform"     # "uniform" over [0, K) | "zipf" over stored
    durable: bool = False     # state_dir + real fsync + timed restart
    quick: Dict[str, int] = field(default_factory=dict)


_QUICK_SERVE = {"modules": 16, "stored": 1024, "clients": 32, "requests": 64}
_QUICK_BATCH = {"modules": 8, "stored": 1024, "cycles": 8}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="serve_mixed", kind="serve", structure="skiplist",
        modules=64, stored=16384, clients=256, requests=384,
        mix=(("get", 40), ("upsert", 25), ("delete", 10), ("range", 10),
             ("successor", 5), ("multiget", 10)),
        quick=_QUICK_SERVE,
        why="What `repro serve` does today: narrow coalesced batches, so "
            "per-round engine cost, in-memory checkpoints and the serve "
            "layers all matter; guards against wins that need wide batches"),
    Workload(
        name="serve_durable_write", kind="serve", structure="skiplist",
        modules=64, stored=16384, clients=256, requests=256,
        mix=(("upsert", 55), ("delete", 20), ("get", 20), ("successor", 5)),
        durable=True, quick=_QUICK_SERVE,
        why="Only workload with WAL append, fsync, snapshot publish and "
            "checkpoint capture on the critical path, plus a timed restart; "
            "group-commit and checkpoint-cadence work shows here only"),
    Workload(
        name="serve_read_pimtree", kind="serve", structure="pimtree",
        modules=64, stored=16384, clients=256, requests=1024,
        mix=(("get", 85), ("successor", 5), ("range", 5), ("upsert", 5)),
        keys="zipf", quick=_QUICK_SERVE,
        why="Cheap structure, read-heavy, Zipf(0.99): serve layers and the "
            "event loop dominate, so serve-layer work shows here; the only "
            "PIM-tree and only skewed workload"),
    Workload(
        name="batch_read_wide", kind="batch", structure="skiplist",
        modules=64, stored=16384, cycles=64, mix=("successor", "get"),
        quick=_QUICK_BATCH,
        why="Serve bypassed: wide min_search_batch reads straight into "
            "apply_batch, so the round engine and the structure walk are "
            "all of wall; engine/storage work must show here"),
    Workload(
        name="batch_write_churn", kind="batch", structure="skiplist",
        modules=32, stored=8192, cycles=80,
        mix=("upsert", "get", "delete"), quick=_QUICK_BATCH,
        why="Same engine and structure layers as batch_read_wide, used for "
            "writes: upsert/delete of fresh keys on the node graph; a read "
            "gain that taxes the write path shows here"),
]}


def resolve(name: str, quick: bool = False) -> Workload:
    """The workload named ``name``, at ``--quick`` size if asked."""
    spec = WORKLOADS[name]
    return dataclasses.replace(spec, **spec.quick) if quick else spec


@dataclass
class ServeInputs:
    initial: List[Tuple[int, int]]
    programs: List[List[Request]]   # one request program per client


@dataclass
class BatchInputs:
    initial: List[Tuple[int, int]]
    batches: List[Request]          # whole cycles of the workload's ops
    batch_size: int


def min_search_batch(modules: int) -> int:
    """The paper's ``P log^2 P`` minimum (``PIMSkipList.min_search_batch``,
    needed here before any structure exists)."""
    log_p = max(1, int(round(math.log2(modules)))) if modules > 1 else 1
    return modules * log_p ** 2


def generate(spec: Workload, seed: int):
    """All inputs of one run: a pure function of ``(spec, seed)``."""
    rng = random.Random(f"{spec.name}:{seed}")
    space = key_space(spec)
    stored = [i * space // spec.stored for i in range(spec.stored)]
    initial = [(k, 3 * k) for k in stored]
    if spec.kind == "serve":
        draw_key = _key_drawer(spec, rng, space, stored)
        kinds = [k for k, _ in spec.mix]
        cum = list(itertools.accumulate(w for _, w in spec.mix))
        programs = [
            [_request(kind, draw_key, rng, space)
             for kind in rng.choices(kinds, cum_weights=cum, k=spec.requests)]
            for _ in range(spec.clients)]
        return ServeInputs(initial, programs)
    size = min_search_batch(spec.modules)
    batches: List[Request] = []
    for _ in range(spec.cycles):
        if "upsert" in spec.mix:
            # Fresh (odd) keys: inserted, read back, deleted again, so
            # every cycle starts from the same stored set.
            fresh = [2 * i + 1 for i in rng.sample(range(spec.stored), size)]
            payloads = {"upsert": [(k, rng.randrange(10_000)) for k in fresh],
                        "get": fresh, "delete": fresh}
            batches.extend((op, list(payloads[op])) for op in spec.mix)
        else:
            batches.extend(
                (op, [rng.randrange(space) for _ in range(size)])
                for op in spec.mix)
    return BatchInputs(initial, batches, size)


def key_space(spec: Workload) -> int:
    weights = dict(spec.mix) if spec.kind == "serve" else {}
    upsert, delete = weights.get("upsert", 0), weights.get("delete", 0)
    if spec.keys == "uniform" and upsert and delete:
        return spec.stored * (upsert + delete) // upsert
    return 2 * spec.stored


def _key_drawer(spec: Workload, rng: random.Random, space: int,
                stored: List[int]):
    if spec.keys == "uniform":
        return lambda: rng.randrange(space)
    # Zipf(0.99) over the stored keys, hot ranks scattered over the key
    # space so skew is not also locality.
    ranked = list(stored)
    rng.shuffle(ranked)
    cum = list(itertools.accumulate(
        1.0 / (rank + 1) ** 0.99 for rank in range(spec.stored)))
    return lambda: rng.choices(ranked, cum_weights=cum)[0]


def _request(kind: str, draw_key, rng: random.Random, space: int) -> Request:
    key = draw_key()
    if kind == "upsert":
        return "upsert", [(key, rng.randrange(10_000))]
    if kind == "range":
        return "range", [(key, min(space - 1, key + 1 + rng.randrange(8)))]
    if kind == "multiget":
        return "get", [key] + [draw_key() for _ in range(1 + rng.randrange(3))]
    return kind, [key]
