"""Range-partitioned skip list baseline (Choe et al. [11], Liu et al. [19]).

Keys are split into ``P`` contiguous ranges by splitters chosen at build
time; each PIM module keeps an ordinary sequential skip list over its
range.  Routing is a CPU-side binary search over the splitters, so point
and ordered operations each cost one message and ``O(log n_local)`` local
work -- *if* the batch spreads across ranges.

This is exactly the design §2.2 critiques: "it would serialize (i.e., no
parallelism) ... whenever all keys fall within the range hosted by a
single PIM-module."  The ``bench_baselines`` benchmark reproduces that
serialization with a single-range adversarial batch (h-relation ~ B
instead of ~ B/P), and its strength on uniform workloads and range scans.

No dynamic repartitioning is implemented; the cited systems offer data
migration heuristics but the paper's point -- an adversary beats any
fixed range assignment -- stands regardless.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.local_skiplist import (LocalSkipList, module_rows,
                                            point_bodies)
from repro.core.skiplist import BatchDispatch
from repro.cpuside.semisort import dedup_last, group_positions
from repro.ops import run_batch
from repro.sim.machine import PIMMachine


class RangePartitionedSkipList(BatchDispatch):
    """Coarse range partitioning: module ``i`` owns keys in
    ``[splitters[i-1], splitters[i])``."""

    def __init__(self, machine: PIMMachine, name: str = "rangepart") -> None:
        self.machine = machine
        self.name = name
        self.num_modules = machine.num_modules
        self.splitters: List[Hashable] = []
        self.num_keys = 0
        for mid in range(self.num_modules):
            module = machine.modules[mid]
            module.state[name] = LocalSkipList(
                rng=machine.spawn_rng(0x2A9E + mid), charge=module.charge,
            )
        for fn, body in self._bodies().items():
            machine.register(f"{name}:{fn}", body)

    # -- batch bodies -------------------------------------------------------

    def _bodies(self) -> Dict[str, Any]:
        """One body per function: each task pays one unit, and its local
        skip list charges its hops through ``module.charge``."""
        name = self.name
        fn_succ = f"{name}:succ"
        bodies = point_bodies(name)

        def succ(bct, chunks):
            last = bct.num_modules - 1
            out = []
            for mid, (key, opid), tag, local in module_rows(bct, chunks,
                                                            name):
                res = local.successor(key)
                if res is None and mid < last:
                    # The successor lives in a later range; forward
                    # rightward.
                    out.append((mid + 1, (key, opid), None, 1))
                    bct.sent[mid] += 1
                else:
                    bct.reply(mid, ("succ", opid, res), tag)
            bct.stage_rows(fn_succ, out)

        def range_(bct, chunks):
            for mid, (lkey, rkey, opid), tag, local in module_rows(
                    bct, chunks, name):
                vals = local.range_scan(lkey, rkey)
                bct.reply(mid, ("range", opid, mid, vals), tag,
                          max(1, len(vals)))

        bodies.update(succ=succ, range=range_)
        return bodies

    # -- routing ---------------------------------------------------------------

    def route(self, key: Hashable) -> int:
        """Module owning ``key``'s range (CPU binary search, charged)."""
        self.machine.cpu.charge(max(1.0, math.log2(self.num_modules)), 1.0)
        return bisect.bisect_right(self.splitters, key)

    # -- construction ------------------------------------------------------------

    def build(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        """Initialize from sorted unique (key, value) pairs, choosing
        equal-count splitters (the best case for the baseline)."""
        items = list(items)
        p = self.num_modules
        per = max(1, math.ceil(len(items) / p))
        self.splitters = [
            items[i * per][0] for i in range(1, p) if i * per < len(items)
        ]
        for i, (k, v) in enumerate(items):
            mid = min(i // per, p - 1)
            self.machine.modules[mid].state[self.name].upsert(k, v)
            self.machine.modules[mid].alloc_words(4)
        self.num_keys = len(items)

    # -- batch operations -----------------------------------------------------------

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
        return run_batch(self.machine, f"{self.name}:batch_successor",
                         _successor_route(self, keys))

    def batch_range(self, ops: Sequence[Tuple[Hashable, Hashable]],
                    ) -> List[List[Tuple[Hashable, Any]]]:
        """Range scans; each op contacts only the modules its range spans
        (the baseline's strong suit)."""
        return run_batch(self.machine, f"{self.name}:batch_range",
                         _scan_route(self, ops))


def _get_route(rp: RangePartitionedSkipList, keys: Sequence[Hashable]):
    groups = group_positions(rp.machine.cpu, keys)
    fn_get = f"{rp.name}:get"
    replies = yield ((rp.route(key), fn_get, (key,), None)
                     for key in groups)
    results: List[Optional[Any]] = [None] * len(keys)
    for r in replies:
        key, value = r.payload
        for i in groups[key]:
            results[i] = value
    return results


def _upsert_route(rp: RangePartitionedSkipList,
                  pairs: Sequence[Tuple[Hashable, Any]]):
    wanted = dedup_last(rp.machine.cpu, pairs)
    fn_upsert = f"{rp.name}:upsert"
    replies = yield ((rp.route(key), fn_upsert, (key, value), None)
                     for key, value in wanted.items())
    created = sum(1 for r in replies if r.payload[1])
    rp.num_keys += created
    return created


def _delete_route(rp: RangePartitionedSkipList, keys: Sequence[Hashable]):
    groups = group_positions(rp.machine.cpu, keys)
    fn_delete = f"{rp.name}:delete"
    replies = yield ((rp.route(key), fn_delete, (key,), None)
                     for key in groups)
    removed = sum(1 for r in replies if r.payload[1])
    rp.num_keys -= removed
    return removed


def _successor_route(rp: RangePartitionedSkipList,
                     keys: Sequence[Hashable]):
    fn_succ = f"{rp.name}:succ"
    replies = yield ((rp.route(key), fn_succ, (key, i), None)
                     for i, key in enumerate(keys))
    results: List[Optional[Tuple[Hashable, Any]]] = [None] * len(keys)
    for r in replies:
        _, opid, res = r.payload
        results[opid] = res
    return results


def _scan_route(rp: RangePartitionedSkipList,
                ops: Sequence[Tuple[Hashable, Hashable]]):
    fn_range = f"{rp.name}:range"

    def messages():
        for i, (l, r) in enumerate(ops):
            lo, hi = rp.route(l), rp.route(r)
            for mid in range(lo, hi + 1):
                yield (mid, fn_range, (l, r, i), None)

    replies = yield messages()
    parts: Dict[int, List[Tuple[int, List]]] = {}
    for rep in replies:
        _, opid, mid, vals = rep.payload
        parts.setdefault(opid, []).append((mid, vals))
    out: List[List[Tuple[Hashable, Any]]] = []
    for i in range(len(ops)):
        chunks = sorted(parts.get(i, []))
        merged: List[Tuple[Hashable, Any]] = []
        for _, vals in chunks:
            merged.extend(vals)
        rp.machine.cpu.charge(len(merged) + 1,
                              max(1.0, math.log2(len(merged) + 2)))
        out.append(merged)
    return out
