"""An LSM-style ordered store on the PIM model ("PIM-LSM").

A log-structured merge design composed from this repository's parts --
and a foil for the paper's skip list:

- **delta**: recent updates live in a :class:`PIMSkipList` (all its
  PIM-balance guarantees apply to the write path);
- **run**: the bulk of the data is one static sorted run, chopped into
  blocks of ``block_size`` keys; blocks are placed on modules by a
  seeded hash (Lemma 2.1 balance for the *storage*), and the fence keys
  (each block's first key) are replicated on every module -- the same
  replicate-the-top idea as the skip list's upper part, so routing a
  query costs a local binary search plus **one** message;
- **compaction**: when the delta outgrows ``flush_threshold``, its
  contents (including tombstones) merge with the run through
  :func:`repro.algorithms.sorting.pim_sample_sort`-style machinery --
  here a CPU-coordinated merge of already-sorted block stream + sorted
  delta, rewritten into fresh hashed blocks.

Why it is a foil: the run's *blocks* are range partitions.  Point Gets
stay balanced (dedup + hashed blocks), but an adversarial batch of
distinct Successor keys that all land in one block funnels into that
block's module -- the serialization the paper's pivot machinery was
invented to avoid.  ``bench_lsm.py`` measures exactly that gap.

Semantics: an ordered map (upsert/delete/get/successor/range), with
deletes as tombstones until the next compaction.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.balls.hashing import KeyLevelHash
from repro.core.skiplist import BatchDispatch, PIMSkipList
from repro.cpuside.semisort import group_positions
from repro.ops import run_batch
from repro.sim.machine import PIMMachine

TOMBSTONE = ("__lsm_tombstone__",)


class PIMLSMStore(BatchDispatch):
    """Delta skip list + static hashed-block run, with compaction."""

    def __init__(self, machine: PIMMachine, name: str = "lsm",
                 block_size: int = 64,
                 flush_threshold: Optional[int] = None) -> None:
        self.machine = machine
        self.name = name
        self.block_size = max(4, block_size)
        p = machine.num_modules
        log_p = max(1, int(round(math.log2(p)))) if p > 1 else 1
        self.flush_threshold = (flush_threshold if flush_threshold
                                is not None else 4 * p * log_p * log_p)
        self.delta = PIMSkipList(machine, name=f"{name}:delta")
        self.hash = KeyLevelHash(p, seed=machine.spawn_rng(0x15A).getrandbits(32))
        self.generation = 0
        self.fences: List[Hashable] = []   # replicated: first key per block
        self.block_owner: List[int] = []
        self.run_size = 0
        for module in machine.modules:
            module.state.setdefault(name, {})
        if f"{name}:blk_get" not in machine._handlers:
            for fn, body in self._bodies().items():
                machine.register(f"{name}:blk_{fn}", body)

    # ------------------------------------------------------------------
    # batch bodies (block storage)
    # ------------------------------------------------------------------

    def _bodies(self) -> Dict[str, Any]:
        name = self.name

        def rows(bct, chunks):
            """``(mid, args, tag, module, blocks)`` per row."""
            modules = bct.machine.modules
            for mid, args, tag, _size in bct.rows(chunks):
                module = modules[mid]
                yield mid, args, tag, module, module.state[name]

        def store(bct, chunks):
            for mid, (bid, block), _tag, module, blocks in rows(bct, chunks):
                bct.work[mid] += len(block) + 1
                blocks[bid] = block
                module.alloc_words(2 * len(block))

        def drop(bct, chunks):
            for mid, (bid,), _tag, module, blocks in rows(bct, chunks):
                bct.work[mid] += 1
                block = blocks.pop(bid, None)
                if block is not None:
                    module.free_words(2 * len(block))

        def get(bct, chunks):
            for mid, (bid, key), tag, _module, blocks in rows(bct, chunks):
                block = blocks[bid]
                bct.work[mid] += max(1, int(math.log2(len(block) + 1)))
                i = bisect.bisect_left(block, (key,))
                hit = i < len(block) and block[i][0] == key
                bct.reply(mid, ("blk", key, block[i][1] if hit else None,
                                hit), tag)

        def succ(bct, chunks):
            tracing = bct.tracing
            for mid, (bid, key, opid), tag, _module, blocks in \
                    rows(bct, chunks):
                block = blocks[bid]
                bct.work[mid] += max(1, int(math.log2(len(block) + 1)))
                if tracing:
                    bct.touch(mid, (name, "blk", bid))
                i = bisect.bisect_left(block, (key,))
                found = block[i] if i < len(block) else None
                bct.reply(mid, ("bsucc", opid, found), tag)

        def scan(bct, chunks):
            for mid, (bid, lo, hi, opid), tag, _module, blocks in \
                    rows(bct, chunks):
                block = blocks[bid]
                i = bisect.bisect_left(block, (lo,))
                out = []
                while i < len(block) and block[i][0] <= hi:
                    out.append(block[i])
                    i += 1
                bct.work[mid] += len(out) + max(
                    1, int(math.log2(len(block) + 1)))
                bct.reply(mid, ("bscan", opid, bid, out), tag,
                          max(1, len(out)))

        def dump(bct, chunks):
            for mid, (bid,), tag, _module, blocks in rows(bct, chunks):
                block = blocks[bid]
                bct.work[mid] += len(block) + 1
                bct.reply(mid, ("bdump", bid, block), tag,
                          max(1, len(block)))

        return {"store": store, "drop": drop, "get": get, "succ": succ,
                "scan": scan, "dump": dump}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _block_of(self, key: Hashable) -> Optional[int]:
        """The run block that could contain ``key`` (fence routing is a
        local/CPU binary search over the replicated fences)."""
        if not self.fences:
            return None
        self.machine.cpu.charge(max(1.0, math.log2(len(self.fences) + 1)),
                                1.0)
        i = bisect.bisect_right(self.fences, key) - 1
        return max(0, i)

    @property
    def size_estimate(self) -> int:
        """Run size + delta size (tombstones make this an upper bound)."""
        return self.run_size + self.delta.size

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def build(self, items: Sequence[Tuple[Hashable, Any]]) -> None:
        """Load sorted unique ``(key, value)`` pairs into the empty store
        as its run: compaction's block-store stage over the items, one
        round.  Raises ``ValueError`` on a non-empty store or keys that
        are not strictly increasing."""
        items = list(items)
        if self.size_estimate or self.block_owner:
            raise ValueError("build requires an empty store")
        for (k1, _), (k2, _) in zip(items, items[1:]):
            if not k1 < k2:
                raise ValueError("build requires sorted unique keys")
        run_batch(self.machine, f"{self.name}:build",
                  _store_run(self, items))

    def batch_upsert(self, pairs: Sequence[Tuple[Hashable, Any]]) -> None:
        """Upsert into the delta (flushing when it outgrows the threshold)."""
        self.delta.batch_upsert(list(pairs))
        self._maybe_flush()

    def batch_delete(self, keys: Sequence[Hashable]) -> None:
        """Tombstone the keys (physical removal happens at compaction)."""
        self.delta.batch_upsert([(k, TOMBSTONE) for k in set(keys)])
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self.delta.size > self.flush_threshold:
            self.compact()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def batch_get(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        """Point lookups: delta first (shadowing), then one fence-routed
        block probe per miss."""
        return run_batch(self.machine, f"{self.name}:batch_get",
                         _get_route(self, keys))

    def batch_successor(self, keys: Sequence[Hashable],
                        ) -> List[Optional[Tuple[Hashable, Any]]]:
        """Min of the delta's successor and the run's successor.

        The run side routes each query to one block (possibly spilling
        to the next block when the first holds nothing at/after the
        key) -- a range-partitioned access pattern with the imbalance
        that entails under adversarial batches.
        """
        return run_batch(self.machine, f"{self.name}:batch_successor",
                         _successor_route(self, keys))

    def _delta_successor_skipping_tombstones(self, keys):
        """Delta successors, stepping over tombstoned entries."""
        res = self.delta.batch_successor(list(keys))
        out = []
        for key, cand in zip(keys, res):
            probe = key
            while cand is not None and cand[1] == TOMBSTONE:
                probe = cand[0]
                nxt = self.delta.batch_successor([self._just_above(probe)])
                cand = nxt[0]
            out.append(cand)
        return out

    def _resolve_shadowed(self, keys, merged):
        """A run successor may be tombstoned or shadowed in the delta."""
        out = []
        for key, cand in zip(keys, merged):
            while cand is not None:
                dv = self.delta.batch_get([cand[0]])[0]
                if dv == TOMBSTONE:
                    nxt = self.batch_successor_one_past(cand[0])
                    cand = nxt
                    continue
                if dv is not None:
                    cand = (cand[0], dv)
                break
            out.append(cand)
        return out

    def batch_successor_one_past(self, key: Hashable,
                                 ) -> Optional[Tuple[Hashable, Any]]:
        """Successor strictly after ``key`` (tombstone-skipping helper)."""
        return self.batch_successor([self._just_above(key)])[0]

    @staticmethod
    def _just_above(key: Hashable):
        from repro.core.probes import just_above
        return just_above(key)

    def batch_range(self, ops: Sequence[Tuple[Hashable, Hashable]],
                    ) -> List[List[Tuple[Hashable, Any]]]:
        """Merge delta ranges with block scans, dropping tombstones."""
        return run_batch(self.machine, f"{self.name}:batch_range",
                         _range_route(self, ops))

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """Merge delta into the run; rewrite hashed blocks; clear delta."""
        run_batch(self.machine, f"{self.name}:compact", _compact_route(self))

    def _min_key_probe(self):
        # smallest key present in the delta
        first = self.delta.successor(self._neg_probe())
        return first[0] if first else 0

    def _max_key_probe(self):
        last = self.delta.predecessor(self._pos_probe())
        return last[0] if last else 0

    @staticmethod
    def _neg_probe():
        from repro.core.probes import BELOW_ALL
        return BELOW_ALL

    @staticmethod
    def _pos_probe():
        from repro.core.probes import ABOVE_ALL
        return ABOVE_ALL


def _get_route(lsm: PIMLSMStore, keys: Sequence[Hashable]):
    cpu = lsm.machine.cpu
    groups = group_positions(cpu, keys)
    out: List[Optional[Any]] = [None] * len(keys)
    delta_vals = lsm.delta.batch_get(list(groups))
    delta_hit: Dict[Hashable, Any] = {}
    misses: List[Hashable] = []
    for key, dv in zip(groups, delta_vals):
        if dv is not None:
            delta_hit[key] = None if dv == TOMBSTONE else dv
        else:
            misses.append(key)
    msgs = []
    fn_get = f"{lsm.name}:blk_get"
    for key in misses:
        bid = lsm._block_of(key)
        if bid is None:
            delta_hit[key] = None
            continue
        msgs.append((lsm.block_owner[bid], fn_get, (bid, key), None))
    replies = yield msgs
    for r in replies:
        _, key, value, hit = r.payload
        delta_hit[key] = value if hit else None
    for key, idxs in groups.items():
        for i in idxs:
            out[i] = delta_hit.get(key)
    cpu.charge(len(keys), max(1.0, math.log2(len(keys) + 1)))
    return out


def _successor_route(lsm: PIMLSMStore, keys: Sequence[Hashable]):
    cpu = lsm.machine.cpu
    n = len(keys)
    delta_succ = lsm._delta_successor_skipping_tombstones(keys)
    run_succ: List[Optional[Tuple[Hashable, Any]]] = [None] * n
    pending: Dict[int, int] = {}
    fn_succ = f"{lsm.name}:blk_succ"
    msgs = []
    for i, key in enumerate(keys):
        bid = lsm._block_of(key)
        if bid is None:
            continue
        msgs.append((lsm.block_owner[bid], fn_succ, (bid, key, i),
                     None))
        pending[i] = bid
    replies = yield msgs
    # spill rounds: a block holding nothing at/after the key forwards
    # the probe to its right neighbour, one extra stage per hop
    while pending:
        spills = []
        for r in replies:
            _, opid, found = r.payload
            bid = pending.pop(opid)
            if found is not None:
                run_succ[opid] = found
            elif bid + 1 < len(lsm.block_owner):
                spills.append((lsm.block_owner[bid + 1], fn_succ,
                               (bid + 1, keys[opid], opid), None))
                pending[opid] = bid + 1
        if pending:
            replies = yield spills
    out: List[Optional[Tuple[Hashable, Any]]] = []
    for i, key in enumerate(keys):
        cands = [c for c in (delta_succ[i], run_succ[i])
                 if c is not None]
        if not cands:
            out.append(None)
            continue
        best = min(cands, key=lambda kv: kv[0])
        out.append(best)
    cpu.charge(2 * n, max(1.0, math.log2(n + 1)))
    return lsm._resolve_shadowed(keys, out)


def _range_route(lsm: PIMLSMStore, ops: Sequence[Tuple[Hashable, Hashable]]):
    cpu = lsm.machine.cpu
    delta_res = lsm.delta.batch_range(list(ops))
    run_parts: Dict[int, Dict[int, List]] = {}
    fn_scan = f"{lsm.name}:blk_scan"
    msgs = []
    for i, (lo, hi) in enumerate(ops):
        b0 = lsm._block_of(lo)
        if b0 is None:
            continue
        b1 = lsm._block_of(hi)
        for bid in range(b0, (b1 if b1 is not None else b0) + 1):
            msgs.append((lsm.block_owner[bid], fn_scan,
                         (bid, lo, hi, i), None))
    replies = yield msgs
    for r in replies:
        _, opid, bid, items = r.payload
        run_parts.setdefault(opid, {})[bid] = items
    out: List[List[Tuple[Hashable, Any]]] = []
    work = 0
    for i, (lo, hi) in enumerate(ops):
        run_items: List[Tuple[Hashable, Any]] = []
        for bid in sorted(run_parts.get(i, {})):
            run_items.extend(run_parts[i][bid])
        delta_items = delta_res[i].values
        delta_map = dict(delta_items)
        merged: List[Tuple[Hashable, Any]] = []
        for k, v in run_items:
            if k in delta_map:
                continue  # shadowed (update or tombstone)
            merged.append((k, v))
        merged.extend((k, v) for k, v in delta_items
                      if v != TOMBSTONE)
        merged.sort(key=lambda kv: kv[0])
        work += len(merged) + 1
        out.append(merged)
    cpu.charge(
        work * max(1.0, math.log2(work + 1)),
        max(1.0, math.log2(work + 1)),
    )
    return out


def _store_run(lsm: PIMLSMStore, items: List[Tuple[Hashable, Any]]):
    """One stage: sorted ``items`` become the run, as fresh blocks of
    ``block_size`` keys hashed onto modules under a new generation."""
    lsm.generation += 1
    lsm.fences = []
    lsm.block_owner = []
    store_msgs = []
    fn_store = f"{lsm.name}:blk_store"
    for start in range(0, len(items), lsm.block_size):
        block = items[start:start + lsm.block_size]
        bid = len(lsm.fences)
        owner = lsm.hash.module_of((lsm.generation, bid))
        lsm.fences.append(block[0][0])
        lsm.block_owner.append(owner)
        store_msgs.append((owner, fn_store, (bid, block), None,
                           max(1, len(block))))
    yield store_msgs
    lsm.run_size = len(items)


def _compact_route(lsm: PIMLSMStore):
    cpu = lsm.machine.cpu
    # 1. stream the old blocks back (balanced: each block one reply)
    old_blocks: Dict[int, List] = {}
    replies = yield ((owner, f"{lsm.name}:blk_dump", (bid,), None)
                     for bid, owner in enumerate(lsm.block_owner))
    for r in replies:
        _, bid, block = r.payload
        old_blocks[bid] = block
    run_items: List[Tuple[Hashable, Any]] = []
    for bid in sorted(old_blocks):
        run_items.extend(old_blocks[bid])
    # 2. delta contents, sorted, via a full-range read
    delta_items = []
    if lsm.delta.size:
        res = lsm.delta.range_broadcast(
            lsm._min_key_probe(), lsm._max_key_probe())
        delta_items = res.values
    # 3. CPU merge with shadowing + tombstone elimination
    merged: List[Tuple[Hashable, Any]] = []
    di = dict(delta_items)
    for k, v in run_items:
        if k not in di:
            merged.append((k, v))
    merged.extend((k, v) for k, v in delta_items if v != TOMBSTONE)
    merged.sort(key=lambda kv: kv[0])
    n = len(merged)
    cpu.charge(n * max(1.0, math.log2(n + 1)),
                       max(1.0, math.log2(n + 1)))
    # 4. rewrite fresh blocks under a new generation
    yield ((owner, f"{lsm.name}:blk_drop", (bid,), None)
           for bid, owner in enumerate(lsm.block_owner))
    yield from _store_run(lsm, merged)
    # 5. clear the delta
    if lsm.delta.size:
        remaining = [k for k, _ in delta_items]
        lsm.delta.batch_delete(remaining)
