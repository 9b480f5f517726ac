"""A batch-parallel FIFO queue on the PIM model.

Design: every enqueued item gets a global sequence number from a CPU-side
tail counter; the item is stored on the module chosen by hashing its
sequence number.  Dequeues read off a CPU-side head counter.  Because
consecutive sequence numbers hash to uniformly random modules, *any*
batch of ``B = Omega(P log P)`` enqueues or dequeues touches every module
``O(B/P)`` times whp (Lemma 2.1) -- there is no hot tail module, the
classic scalability failure of centralized queues.

Costs per batch of ``B``: ``O(B/P)`` whp IO time, ``O(B/P)`` whp PIM
time, O(1) rounds, O(B) CPU work, O(log B) CPU depth.  FIFO semantics
are exact (the sequence counter orders items globally; batches are the
unit of concurrency, as everywhere in the model).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.balls.hashing import KeyLevelHash
from repro.ops import run_batch
from repro.sim.machine import PIMMachine


class PIMQueue:
    """Batch-parallel FIFO queue with hash-placed slots."""

    def __init__(self, machine: PIMMachine, name: str = "fifo") -> None:
        self.machine = machine
        self.name = name
        self.head = 0  # next sequence number to dequeue
        self.tail = 0  # next sequence number to assign
        self.hash = KeyLevelHash(
            machine.num_modules,
            seed=machine.spawn_rng(0xF1F0).getrandbits(32),
        )
        for module in machine.modules:
            module.state.setdefault(name, {})
        if f"{name}:store" not in machine._handlers:
            machine.register(f"{name}:store", self._store_body)
            machine.register(f"{name}:take", self._take_body)

    def _store_body(self, bct, chunks) -> None:
        modules = bct.machine.modules
        for mid, (seq, value), _tag, _size in bct.rows(chunks):
            module = modules[mid]
            bct.work[mid] += 1
            module.state[self.name][seq] = value
            module.alloc_words(2)

    def _take_body(self, bct, chunks) -> None:
        modules = bct.machine.modules
        for mid, (seq,), tag, _size in bct.rows(chunks):
            module = modules[mid]
            bct.work[mid] += 1
            slots = module.state[self.name]
            if seq not in slots:
                raise KeyError(f"queue slot {seq} missing (counter bug)")
            value = slots.pop(seq)
            module.free_words(2)
            bct.reply(mid, ("item", seq, value), tag)

    def _owner(self, seq: int) -> int:
        return self.hash.module_of(("fifo", seq))

    def __len__(self) -> int:
        return self.tail - self.head

    def enqueue_batch(self, values: Sequence[Any]) -> None:
        """Append ``values`` in order (one balanced round)."""
        run_batch(self.machine, f"{self.name}:enqueue",
                  _enqueue_route(self, values))

    def dequeue_batch(self, count: int) -> List[Any]:
        """Remove and return up to ``count`` oldest items, in order."""
        return run_batch(self.machine, f"{self.name}:dequeue",
                         _dequeue_route(self, count))


def _enqueue_route(q: PIMQueue, values: Sequence[Any]):
    base = q.tail
    q.tail += len(values)
    q.machine.cpu.charge(len(values), max(1.0, math.log2(len(values) + 1)))
    fn_store = f"{q.name}:store"
    yield ((q._owner(base + i), fn_store, (base + i, value), None)
           for i, value in enumerate(values))


def _dequeue_route(q: PIMQueue, count: int):
    count = min(count, len(q))
    if count == 0:
        return []
    base = q.head
    q.head += count
    q.machine.cpu.charge(count, max(1.0, math.log2(count + 1)))
    fn_take = f"{q.name}:take"
    replies = yield ((q._owner(base + i), fn_take, (base + i,), None)
                     for i in range(count))
    out: List[Optional[Any]] = [None] * count
    for r in replies:
        _, seq, value = r.payload
        out[seq - base] = value
    return out
