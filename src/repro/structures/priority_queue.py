"""A batch-parallel priority queue composed on the PIM skip list.

The paper's structure supports ordered batch operations; a priority
queue is the classic client.  Batched inserts are Upserts (Thm 4.4
costs).  ``extract_min_batch(B)`` uses the skip list's *local leaf
lists* (the same dashed pointers §5.1's broadcast ranges ride on):

1. every module walks the first ``q`` leaves of its local leaf list and
   returns their keys (one fat reply of ``q`` words) -- ``q`` starts at
   ``Theta(B/P + log P)``, because Lemma 2.1 puts ``O(B/P)`` of the
   global ``B`` smallest keys on each module whp;
2. the CPU merges the ``P`` sorted prefixes and takes the ``B``
   smallest; a module's contribution is *safe* if it was exhausted or
   its largest returned key is at least the current ``B``-th candidate
   -- unsafe modules (a whp-rare event) get their quota doubled and are
   re-asked;
3. one batched Delete removes the extracted keys.

Costs per extraction: ``O(B/P + log P)`` whp IO time, ``O(B/P + log n)``
whp PIM time, O(1) rounds expected, plus the Delete's Thm 4.5 costs --
PIM-balanced even when every priority falls in a narrow band (the
classic concurrent-heap hot-spot, defused by the hashed placement).

Duplicate priorities are supported by keying on ``(priority, tiebreak)``
with a CPU-side tiebreak counter.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.core.skiplist import PIMSkipList
from repro.ops import run_batch
from repro.sim.machine import PIMMachine


class PIMPriorityQueue:
    """Min-priority queue with batched insert/extract."""

    def __init__(self, machine: PIMMachine, name: str = "pimpq") -> None:
        self.machine = machine
        self.name = name
        self.sl = PIMSkipList(machine, name=name)
        self._tiebreak = 0
        machine.register(f"{name}:local_prefix", self._prefix_body)

    def _prefix_body(self, bct, chunks) -> None:
        """Each module's smallest ``quota`` local keys, and whether its
        leaf list ran out first."""
        struct = self.sl.struct
        for mid, (quota,), tag, _size in bct.rows(chunks):
            keys = []
            leaf = struct.mlocal(mid).first_leaf
            while leaf is not None and len(keys) < quota:
                keys.append(leaf.key)
                leaf = leaf.local_right
            bct.work[mid] += len(keys)
            bct.reply(mid, ("prefix", mid, keys, leaf is None), tag,
                      max(1, len(keys)))

    # -- public API -----------------------------------------------------

    def __len__(self) -> int:
        return self.sl.size

    def insert_batch(self, items: List[Tuple[Any, Any]]) -> None:
        """Insert ``(priority, value)`` pairs (duplicates allowed)."""
        batch = []
        for priority, value in items:
            batch.append(((priority, self._tiebreak), value))
            self._tiebreak += 1
        self.machine.cpu.charge(len(items),
                                max(1.0, math.log2(len(items) + 1)))
        self.sl.batch_upsert(batch)

    def peek_min(self) -> Optional[Tuple[Any, Any]]:
        """The smallest (priority, value) without removing it."""
        keys = self._smallest_keys(1)
        if not keys:
            return None
        value = self.sl.batch_get(keys)[0]
        return (keys[0][0], value)

    def extract_min_batch(self, count: int) -> List[Tuple[Any, Any]]:
        """Remove and return the ``count`` smallest (priority, value)
        pairs, ascending by priority (FIFO among equal priorities)."""
        count = min(count, len(self))
        if count <= 0:
            return []
        keys = self._smallest_keys(count)
        values = self.sl.batch_get(keys)
        self.sl.batch_delete(keys)
        return [(k[0], v) for k, v in zip(keys, values)]

    # -- internals -----------------------------------------------------

    def _smallest_keys(self, count: int) -> List[Any]:
        """The ``count`` globally smallest keys, via safe prefix fetches."""
        return run_batch(self.machine, f"{self.name}:smallest_keys",
                         _smallest_keys_route(self, count))

    def clear(self) -> None:
        """Remove everything (batched)."""
        while len(self):
            self.extract_min_batch(len(self))


def _smallest_keys_route(pq: PIMPriorityQueue, count: int):
    """Quota-doubling safe-prefix fetch; one stage per re-ask round."""
    machine = pq.machine
    p = machine.num_modules
    log_p = max(1, int(round(math.log2(p)))) if p > 1 else 1
    quotas: Dict[int, int] = {
        mid: min(count, 2 * ((count + p - 1) // p) + 4 * log_p)
        for mid in range(p)
    }
    fn_prefix = f"{pq.name}:local_prefix"
    supplied: Dict[int, Tuple[List[Any], bool]] = {}
    while True:
        ask = [mid for mid in range(p) if mid not in supplied]
        replies = yield [(mid, fn_prefix, (quotas[mid],), None)
                         for mid in ask]
        for r in replies:
            _, mid, keys, exhausted = r.payload
            supplied[mid] = (keys, exhausted)
        merged: List[Any] = []
        for keys, _ in supplied.values():
            merged.extend(keys)
        merged.sort()
        with machine.cpu.region(len(merged)):
            machine.cpu.charge(
                len(merged) * max(1.0, math.log2(len(merged) + 1)),
                max(1.0, math.log2(len(merged) + 1)),
            )
        take = merged[:count]
        if not take:
            return []
        bound = take[-1]
        unsafe = [
            mid for mid, (keys, exhausted) in supplied.items()
            if not exhausted and keys and keys[-1] < bound
            and len(keys) >= quotas[mid]
        ]
        if not unsafe:
            return take
        # whp-rare: a module may still hide keys below the bound.
        for mid in unsafe:
            quotas[mid] *= 2
            del supplied[mid]
