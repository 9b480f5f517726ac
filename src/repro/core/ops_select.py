"""Order statistics on the PIM skip list: rank and selection.

The paper's structure carries no subtree counts, but the PIM model
offers two good routes to order statistics anyway:

- ``rank(key)`` -- the number of stored keys strictly below ``key`` --
  is one broadcast *count* range (§5.1): O(1) IO time, O(1) rounds,
  O(n/P + log n) whp PIM time.
- ``select(i)`` -- the i-th smallest key (0-indexed) -- runs the classic
  distributed weighted-median selection over the modules' local leaf
  lists: each module snapshots its sorted local keys once (O(n/P) PIM
  work), then O(log n) whp rounds of constant-size probes narrow
  per-module windows around the target.  Every round:

  1. each module reports its window's size and median (one message);
  2. the CPU picks the weighted median of the medians as pivot
     (discards >= 1/4 of the remaining candidates, so O(log n) rounds);
  3. each module reports the pivot's rank within its window;
  4. the CPU keeps the side containing the target.

  When few candidates remain they are gathered and indexed directly.
  Total: O(P log n) messages => O(log n) whp IO time, O(log n) rounds.

The CPU holds the per-module window bounds (2P words << M), so modules
stay stateless between probes beyond their one snapshot.
"""

from __future__ import annotations

import bisect
import math
from typing import Hashable, List, Optional, Tuple

from repro.core.probes import just_above
from repro.core.structure import SkipListStructure
from repro.ops import Broadcast, run_batch


def make_handlers(sl: SkipListStructure) -> None:
    """Register the five ``sel_*`` bodies: each module's snapshot of its
    sorted local keys, keyed by op id, and the probes over it."""
    name = sl.name

    def rows(bct, chunks):
        """``(mid, args, tag, module, snapshots)`` per row."""
        modules = bct.machine.modules
        for mid, args, tag, _size in bct.rows(chunks):
            module = modules[mid]
            yield (mid, args, tag, module,
                   module.state.setdefault(name + ":sel", {}))

    def begin(bct, chunks):
        for mid, (opid,), tag, module, snaps in rows(bct, chunks):
            keys: List[Hashable] = []
            leaf = sl.mlocal(mid).first_leaf
            while leaf is not None:
                keys.append(leaf.key)
                leaf = leaf.local_right
            bct.work[mid] += len(keys) + 1
            module.alloc_words(len(keys))
            snaps[opid] = keys
            bct.reply(mid, ("sel_size", mid, len(keys)), tag)

    def probe(bct, chunks):
        for mid, (opid, lo, hi), tag, _module, snaps in rows(bct, chunks):
            keys = snaps[opid]
            bct.work[mid] += max(1, int(math.log2(len(keys) + 2)))
            window = keys[lo:hi]
            med = window[len(window) // 2] if window else None
            bct.reply(mid, ("sel_probe", mid, hi - lo, med), tag)

    def rank_of(bct, chunks):
        for mid, (opid, lo, hi, pivot), tag, _m, snaps in rows(bct, chunks):
            keys = snaps[opid]
            bct.work[mid] += max(1, int(math.log2(len(keys) + 2)))
            r = bisect.bisect_left(keys, pivot, lo, hi) - lo
            bct.reply(mid, ("sel_rank", mid, r), tag)

    def gather(bct, chunks):
        for mid, (opid, lo, hi), tag, _module, snaps in rows(bct, chunks):
            window = snaps[opid][lo:hi]
            bct.work[mid] += len(window) + 1
            bct.reply(mid, ("sel_gather", mid, window), tag,
                      max(1, len(window)))

    def end(bct, chunks):
        for mid, (opid,), _tag, module, snaps in rows(bct, chunks):
            keys = snaps.pop(opid, [])
            bct.work[mid] += 1
            module.free_words(len(keys))

    for fn, body in (("begin", begin), ("probe", probe), ("rank", rank_of),
                     ("gather", gather), ("end", end)):
        sl.machine.register(f"{name}:sel_{fn}", body)


def rank(sl: SkipListStructure, key: Hashable) -> int:
    """The number of stored keys strictly below ``key``."""
    from repro.core import ops_range
    from repro.core.probes import BELOW_ALL

    res = ops_range.range_broadcast(sl, BELOW_ALL, key, func="count",
                                    inclusive=(False, False))
    return res.count


def _select_route(sl, index, gather_threshold):
    cpu = sl.machine.cpu
    p = sl.num_modules
    if not (0 <= index < sl.num_keys):
        raise IndexError(
            f"index {index} out of range 0..{sl.num_keys - 1}")
    threshold = (gather_threshold
                 if gather_threshold is not None else 4 * p)
    opid = getattr(sl, "_sel_seq", 0)
    sl._sel_seq = opid + 1
    name = sl.name

    # snapshot phase
    replies = yield [Broadcast(f"{name}:sel_begin", (opid,))]
    sizes = [0] * p
    for r in replies:
        _, mid, size = r.payload
        sizes[mid] = size
    lo = [0] * p
    hi = list(sizes)
    cpu.alloc(2 * p)
    try:
        answer = yield from _narrow(sl, opid, lo, hi, index, threshold)
    finally:
        cpu.free(2 * p)
    # release the per-module snapshots (success-path cleanup stage)
    yield [Broadcast(f"{name}:sel_end", (opid,))]
    return answer


def _narrow(sl, opid, lo, hi, target, threshold):
    cpu = sl.machine.cpu
    p = sl.num_modules
    name = sl.name
    while True:
        remaining = sum(h - l for l, h in zip(lo, hi))
        if remaining <= threshold:
            break
        meds: List[Tuple[Hashable, int]] = []
        replies = yield [(mid, f"{name}:sel_probe",
                          (opid, lo[mid], hi[mid]), None)
                         for mid in range(p)]
        for r in replies:
            _, mid, size, med = r.payload
            if med is not None:
                meds.append((med, size))
        cpu.charge(p, max(1.0, math.log2(p + 1)))
        # 2. weighted median of medians
        meds.sort()
        half = sum(w for _, w in meds) / 2
        acc = 0
        pivot = meds[-1][0]
        for med, w in meds:
            acc += w
            if acc >= half:
                pivot = med
                break
        # 3. pivot's rank within every window
        replies = yield [(mid, f"{name}:sel_rank",
                          (opid, lo[mid], hi[mid], pivot), None)
                         for mid in range(p)]
        below = [0] * p
        for r in replies:
            _, mid, cnt = r.payload
            below[mid] = cnt
        cpu.charge(p, max(1.0, math.log2(p + 1)))
        total_below = sum(below)
        # 4. keep the side containing the target
        if target < total_below:
            for mid in range(p):
                hi[mid] = lo[mid] + below[mid]
        else:
            target -= total_below
            for mid in range(p):
                lo[mid] = lo[mid] + below[mid]
        if total_below == 0:
            # pivot is the global minimum of the remaining windows;
            # it is the answer iff target == 0
            if target == 0:
                return pivot
            # otherwise discard it explicitly to guarantee progress
            replies = yield [(mid, f"{name}:sel_rank",
                              (opid, lo[mid], hi[mid],
                               just_above(pivot)), None)
                             for mid in range(p)]
            skip = [0] * p
            for r in replies:
                _, mid, cnt = r.payload
                skip[mid] = cnt
            dropped = sum(skip)
            target -= dropped
            for mid in range(p):
                lo[mid] += skip[mid]

    # gather the few remaining candidates
    replies = yield [(mid, f"{name}:sel_gather",
                      (opid, lo[mid], hi[mid]), None)
                     for mid in range(p)]
    candidates: List[Hashable] = []
    for r in replies:
        _, mid, window = r.payload
        candidates.extend(window)
    with cpu.region(len(candidates)):
        candidates.sort()
        cpu.charge(
            len(candidates) * max(1.0, math.log2(len(candidates) + 1)),
            max(1.0, math.log2(len(candidates) + 1)),
        )
    return candidates[target]


def select(sl: SkipListStructure, index: int,
           gather_threshold: Optional[int] = None) -> Hashable:
    """The key of 0-indexed ``index`` in sorted order.

    Raises IndexError when out of range.  See the module docstring for
    the algorithm and its costs.
    """
    return run_batch(sl.machine, f"{sl.name}:select",
                     _select_route(sl, index, gather_threshold))
