"""Mixed-operation session generation and replay.

A *session* is a reproducible sequence of batches (each of one operation
type, as the model requires) drawn from a configurable mix -- the
workload shape of a long-lived ordered store: mostly reads, steady
ingestion, periodic range analytics, occasional retention deletes.

``generate_session`` produces a plain data description (so sessions can
be saved, inspected, or replayed against *different* structures for
comparison); ``replay_session`` runs one against anything exposing the
batch API and returns per-batch metric deltas.

Sessions never touch the machine's message API: every batch dispatches
to a structure method, and every structure method is a route driven by
:func:`repro.ops.run_batch` -- the replay loop below is pure dispatch +
metric snapshots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.machine import PIMMachine
from repro.sim.metrics import MetricsDelta

DEFAULT_MIX = {
    "get": 0.40,
    "successor": 0.20,
    "upsert": 0.20,
    "delete": 0.10,
    "range": 0.10,
}


@dataclass
class SessionBatch:
    """One batch: an operation type plus its payload."""

    op: str
    payload: Any


@dataclass
class Session:
    """A reproducible batch sequence plus the key universe it assumes."""

    batches: List[SessionBatch]
    initial_keys: List[int]
    seed: int

    def __len__(self) -> int:
        return len(self.batches)

    def op_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for b in self.batches:
            out[b.op] = out.get(b.op, 0) + 1
        return out


def generate_session(initial_keys: Sequence[int], num_batches: int,
                     batch_size: int, seed: int = 0,
                     mix: Optional[Dict[str, float]] = None,
                     key_space: Optional[int] = None) -> Session:
    """Draw a session against a live key universe.

    The generator tracks which keys exist (inserts add, deletes remove),
    so Get batches mostly hit, Deletes target live keys, and Upserts mix
    updates with fresh inserts -- a coherent workload rather than noise.
    """
    mix = dict(DEFAULT_MIX if mix is None else mix)
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("mix must have positive total weight")
    ops = list(mix)
    weights = [mix[o] / total for o in ops]
    rng = random.Random(seed)
    live = sorted(initial_keys)
    live_set = set(live)
    space = key_space if key_space is not None else (
        (max(live) if live else 0) + 10 * batch_size * num_batches + 10
    )
    batches: List[SessionBatch] = []
    fresh_counter = space  # fresh keys drawn above the space

    for _ in range(num_batches):
        op = rng.choices(ops, weights)[0]
        if op == "get":
            payload = [rng.choice(live) if live and rng.random() < 0.8
                       else rng.randrange(space)
                       for _ in range(batch_size)]
        elif op == "successor":
            payload = [rng.randrange(space) for _ in range(batch_size)]
        elif op == "upsert":
            payload = []
            for _ in range(batch_size):
                if live and rng.random() < 0.5:
                    payload.append((rng.choice(live), rng.randrange(1000)))
                else:
                    fresh_counter += 1 + rng.randrange(3)
                    payload.append((fresh_counter, rng.randrange(1000)))
                    live.append(fresh_counter)
                    live_set.add(fresh_counter)
        elif op == "delete":
            k = min(batch_size, len(live))
            payload = rng.sample(live, k) if k else []
            for key in payload:
                live_set.discard(key)
            live = [x for x in live if x in live_set]
        elif op == "range":
            payload = []
            for _ in range(max(1, batch_size // 8)):
                a = rng.randrange(space)
                payload.append((a, a + rng.randrange(1, space // 10 + 2)))
        else:
            raise ValueError(f"unknown op {op!r} in mix")
        batches.append(SessionBatch(op=op, payload=payload))
    return Session(batches=batches, initial_keys=sorted(initial_keys),
                   seed=seed)


def replay_session(machine: PIMMachine, structure: Any, session: Session,
                   ) -> List[Tuple[str, MetricsDelta]]:
    """Run a session against ``structure``; returns (op, delta) per batch.

    ``structure`` must expose ``batch_get/batch_successor/batch_upsert/
    batch_delete`` and ``batch_range``; the skip list, and the baselines
    (with their range signature differences papered over), qualify.
    """
    out: List[Tuple[str, MetricsDelta]] = []
    for batch in session.batches:
        before = machine.snapshot()
        if batch.op == "get":
            structure.batch_get(batch.payload)
        elif batch.op == "successor":
            structure.batch_successor(batch.payload)
        elif batch.op == "upsert":
            structure.batch_upsert(batch.payload)
        elif batch.op == "delete":
            structure.batch_delete(batch.payload)
        elif batch.op == "range":
            structure.batch_range(batch.payload)
        else:  # pragma: no cover - generator guards this
            raise ValueError(f"unknown op {batch.op!r}")
        out.append((batch.op, machine.delta_since(before)))
    return out


def summarize_replay(deltas: Sequence[Tuple[str, MetricsDelta]],
                     ) -> Dict[str, Dict[str, float]]:
    """Per-op totals of io/pim/rounds over a replay."""
    out: Dict[str, Dict[str, float]] = {}
    for op, d in deltas:
        agg = out.setdefault(op, {"batches": 0, "io_time": 0.0,
                                  "pim_time": 0.0, "rounds": 0.0})
        agg["batches"] += 1
        agg["io_time"] += d.io_time
        agg["pim_time"] += d.pim_time
        agg["rounds"] += d.rounds
    return out
