"""Hash-partitioned ordered map baseline (Ziegler et al. [34]'s coarse
partitioning by hash).

Every key hashes to one module, which keeps a sequential skip list over
its (scattered) keys.  Point operations are perfectly balanced even under
adversarial skew -- the same property our structure gets for its lower
part -- but *order* is destroyed: a Successor query cannot be routed, so
it must broadcast to all ``P`` modules and min-combine the local answers;
likewise every range scan touches all modules no matter how small the
range.  This is §3.1's "coarse-grain partitioning by hash has low range
query performance because range queries must be broadcasted."
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.balls.hashing import KeyLevelHash
from repro.baselines.local_skiplist import (LocalSkipList, module_rows,
                                            point_bodies)
from repro.core.skiplist import BatchDispatch
from repro.cpuside.semisort import dedup_last, group_positions
from repro.ops import Broadcast, run_batch
from repro.sim.machine import PIMMachine


class HashPartitionedMap(BatchDispatch):
    """Coarse partitioning by key hash with per-module skip lists."""

    def __init__(self, machine: PIMMachine, name: str = "hashpart") -> None:
        self.machine = machine
        self.name = name
        self.num_modules = machine.num_modules
        self.hash = KeyLevelHash(machine.num_modules,
                                 seed=machine.spawn_rng(0x4A5).getrandbits(32))
        self.num_keys = 0
        for mid in range(machine.num_modules):
            module = machine.modules[mid]
            module.state[name] = LocalSkipList(
                rng=machine.spawn_rng(0x9B0 + mid), charge=module.charge,
            )
        for fn, body in self._bodies().items():
            machine.register(f"{name}:{fn}", body)

    def _bodies(self) -> Dict[str, Any]:
        """One body per function: each task pays one unit, and its local
        skip list charges its hops through ``module.charge``."""
        name = self.name
        bodies = point_bodies(name)

        def lsucc(bct, chunks):
            for mid, (key, opid), tag, local in module_rows(bct, chunks,
                                                            name):
                bct.reply(mid, ("succ", opid, local.successor(key)), tag)

        def range_(bct, chunks):
            for mid, (lkey, rkey, opid), tag, local in module_rows(
                    bct, chunks, name):
                vals = local.range_scan(lkey, rkey)
                bct.reply(mid, ("range", opid, vals), tag,
                          max(1, len(vals)))

        bodies.update(lsucc=lsucc, range=range_)
        return bodies

    def owner(self, key: Hashable) -> int:
        return self.hash.module_of(key)

    def build(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        for k, v in items:
            mid = self.owner(k)
            self.machine.modules[mid].state[self.name].upsert(k, v)
            self.machine.modules[mid].alloc_words(4)
            self.num_keys += 1

    # -- batched operations -------------------------------------------------

    def batch_get(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        return run_batch(self.machine, f"{self.name}:batch_get",
                         _get_route(self, keys))

    def batch_upsert(self, pairs: Sequence[Tuple[Hashable, Any]]) -> int:
        return run_batch(self.machine, f"{self.name}:batch_upsert",
                         _upsert_route(self, pairs))

    def batch_delete(self, keys: Sequence[Hashable]) -> int:
        return run_batch(self.machine, f"{self.name}:batch_delete",
                         _delete_route(self, keys))

    def batch_successor(self, keys: Sequence[Hashable],
                        ) -> List[Optional[Tuple[Hashable, Any]]]:
        """Every query broadcasts: P messages out + P local searches + P
        answers back, then a CPU min-combine.  IO ~ B (not B/P)."""
        return run_batch(self.machine, f"{self.name}:batch_successor",
                         _successor_route(self, keys))

    def batch_range(self, ops: Sequence[Tuple[Hashable, Hashable]],
                    ) -> List[List[Tuple[Hashable, Any]]]:
        """Every range op broadcasts to all modules; the CPU merge-sorts
        the scattered partial results."""
        return run_batch(self.machine, f"{self.name}:batch_range",
                         _range_route(self, ops))


def _get_route(hp: HashPartitionedMap, keys: Sequence[Hashable]):
    groups = group_positions(hp.machine.cpu, keys)
    fn_get = f"{hp.name}:get"
    replies = yield ((hp.owner(key), fn_get, (key,), None)
                     for key in groups)
    results: List[Optional[Any]] = [None] * len(keys)
    for r in replies:
        key, value = r.payload
        for i in groups[key]:
            results[i] = value
    return results


def _upsert_route(hp: HashPartitionedMap,
                  pairs: Sequence[Tuple[Hashable, Any]]):
    wanted = dedup_last(hp.machine.cpu, pairs)
    fn_upsert = f"{hp.name}:upsert"
    replies = yield ((hp.owner(key), fn_upsert, (key, value), None)
                     for key, value in wanted.items())
    created = sum(1 for r in replies if r.payload[1])
    hp.num_keys += created
    return created


def _delete_route(hp: HashPartitionedMap, keys: Sequence[Hashable]):
    groups = group_positions(hp.machine.cpu, keys)
    fn_delete = f"{hp.name}:delete"
    replies = yield ((hp.owner(key), fn_delete, (key,), None)
                     for key in groups)
    removed = sum(1 for r in replies if r.payload[1])
    hp.num_keys -= removed
    return removed


def _successor_route(hp: HashPartitionedMap, keys: Sequence[Hashable]):
    fn_lsucc = f"{hp.name}:lsucc"
    replies = yield (Broadcast(fn_lsucc, (key, i))
                     for i, key in enumerate(keys))
    best: List[Optional[Tuple[Hashable, Any]]] = [None] * len(keys)
    for r in replies:
        _, opid, res = r.payload
        if res is not None and (best[opid] is None
                                or res[0] < best[opid][0]):
            best[opid] = res
    hp.machine.cpu.charge(
        len(keys) * hp.num_modules,
        max(1.0, math.log2(hp.num_modules + 1)),
    )
    return best


def _range_route(hp: HashPartitionedMap,
                 ops: Sequence[Tuple[Hashable, Hashable]]):
    cpu = hp.machine.cpu
    fn_range = f"{hp.name}:range"
    replies = yield (Broadcast(fn_range, (l, r, i))
                     for i, (l, r) in enumerate(ops))
    parts: Dict[int, List[Tuple[Hashable, Any]]] = {}
    for rep in replies:
        _, opid, vals = rep.payload
        parts.setdefault(opid, []).extend(vals)
    out: List[List[Tuple[Hashable, Any]]] = []
    for i in range(len(ops)):
        vals = sorted(parts.get(i, []))
        cpu.charge(
            (len(vals) + 1) * max(1.0, math.log2(len(vals) + 2)),
            max(1.0, math.log2(len(vals) + 2)),
        )
        out.append(vals)
    return out
