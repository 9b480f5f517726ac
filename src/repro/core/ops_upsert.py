"""Batched Upsert (paper §4.3): Update falling back to batched Insert.

An Upsert first attempts an Update through the hash shortcut; keys not
found become a batched Insert.  The insert pipeline (following the paper's
single-operation steps 1-6 plus the batch pointer construction):

1. Deduplicate and sort the missing keys; draw each tower's height from
   the geometric coin (CPU side -- the adversary never sees the coins).
2. Create the tower nodes with their vertical (up/down) pointers, the
   leaf's up-chain record, and the has-upper flag (step 5 of the paper).
3. Deliver lower-part nodes to their hash-designated modules (one message
   per node); leaves are inserted into the module's local leaf list and
   hash table, repairing the module's next-leaf pointers.
4. Run the batched Predecessor (the two-stage pivot search of §4.2) with
   path recording trimmed to the last ``l_i`` nodes per operation,
   obtaining each insert's per-level predecessor *in the old structure*.
5. Grow the sentinel tower if needed, then install upper-part nodes by
   broadcast: every module charges its replica's storage, links the node
   into its (shared, idempotently-mutated) upper level by a local
   descent, and computes the new upper leaf's next-leaf pointer for
   itself.
6. Run Algorithm 1 to construct the lower levels' horizontal pointers:
   within each level, runs of new nodes that share an old (pred, succ)
   segment are chained to each other and the run ends are linked to pred
   and succ -- every pointer is RemoteWritten exactly once.

Bounds (Theorem 4.4): same as Successor -- ``O(log^3 P)`` IO time,
``O(log^2 P log n)`` PIM time, ``O(P log^3 P)`` expected CPU work,
``O(log^2 P)`` CPU depth, ``Theta(P log^2 P)`` shared memory, whp.

Each numbered phase above is one stage of a single route
(:mod:`repro.ops`); phase 4 nests the batched-search op as a plain call
(the machine is quiescent between stages).

**Riders.**  A Successor and a Range batch served in the same tick
(``repro serve``'s write group) ride phase 4.  Successor keys join the
search at record level -1, and a Range batch's subrange boundary keys
(its cut, :func:`~repro.core.ops_range._cut_pieces`) at ``h_low - 1``,
each when :func:`~repro.core.ops_successor.rides` says they cost the
search at most one stage, fewer than their own search would pay, and
keep it within ``P log P`` keys; otherwise they run as their own
batches after the write.  The riding
ranges' traversals -- count pass, fetch pass -- run right after phase
4, on the old structure, before phase 5 grows the sentinel or links an
upper node: phase 3 touched only local leaf lists and tables, and the
traversal walks ``right`` / ``down`` pointers, which phase 6 has not
yet written.  A rider is answered as if it ran after the write,
because an Upsert only adds keys and overwrites values, and phase 1
has already overwritten them: a Successor gets the old structure's
successor (``pred`` / ``pred_right``), replaced by the batch's
smallest inserted key at or above it when that key is smaller; a
Range gets its old items merged with the batch's inserted pairs inside
it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import merge
from itertools import chain
from operator import itemgetter
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.core.node import NEG_INF, Node
from repro.core.ops_point import update_handlers
from repro.core.ops_range import (RangeResult, _cut_pieces, charge_cut,
                                  traverse)
from repro.core.ops_successor import batch_search, rides
from repro.core.ops_write import write_stage
from repro.core.structure import SkipListStructure
from repro.cpuside.semisort import dedup_last
from repro.cpuside.sort import parallel_sort
from repro.ops import Broadcast, Columns, run_batch
from repro.sim.cpu import WorkDepth


@dataclass
class UpsertStats:
    """What a batched Upsert did, and its riders' answers: Successor
    answers aligned with the rider keys, Range results with the rider
    ranges; ``None`` for riders that did not ride."""

    updated: int
    inserted: int
    successors: Optional[List[Optional[Tuple[Hashable, Any]]]] = None
    ranges: Optional[List[RangeResult]] = None


def make_handlers(sl: SkipListStructure) -> None:
    name = sl.name

    # Row bodies: what one task does on ``module``, charging through
    # ``charge``, a ``bct.work`` adder.  ``memo`` is scratch shared by
    # the rows of one handler call (one round; the structure's upper
    # part does not change within it).

    def insert_lower(module, node, charge, memo):
        sl.account_lower_alloc(node)
        charge(1)
        if node.level == 0:
            sl.local_insert_leaf(module.mid, node, charge)

    def upper_prepare(module, node, charge, memo):
        # Round 1 of upper installation: charge this module's replica
        # storage and -- for new upper leaves -- compute this module's
        # next-leaf pointer *against the old upper part* (nothing is
        # linked yet, so the descent sees a consistent structure).
        # Every replica does its own work here (its own storage, its
        # own next-leaf slot), so a broadcast runs once per module; the
        # descent toward the new leaf's key is the same on each of
        # them, so it is walked once per node and billed to every one.
        sl.account_upper_alloc_on(module.mid, node)
        charge(1)
        if node.level == sl.h_low:
            landing = memo.get(node.nid)
            if landing is None:
                landing = memo[node.nid] = sl.upper_descend_steps(node.key)
            sl.compute_next_leaf(module.mid, node, landing, charge)

    def node_batch(body, touches):
        """The chunk loop of a one-node task with nothing to return;
        ``touches`` says whether the task accesses its node.  Charges go
        to ``bct.work``: under a broadcast every module runs the body,
        and the engine reads ``module.charge`` back only for row and
        slot receivers (the leaf table's own probes, on a delivery
        row)."""
        def batch(bct, chunks):
            modules = bct.machine.modules
            work = bct.work
            tracing = touches and bct.tracing
            mid = 0
            memo: dict = {}

            def charge(w):  # reads ``mid`` when called: the row's module
                work[mid] += w

            for ch in chunks:
                for mid, (node,), _tag, _size in bct.rows_of(ch):
                    body(modules[mid], node, charge, memo)
                    if tracing:
                        bct.touch(mid, node.nid)
        return batch

    def batch_upper_link(bct, chunks):
        # Round 2: idempotent horizontal linking of the shared replica.
        # The first executor pays the descent, the others one unit
        # each: rows run in slot order, so the first is the oracle's.
        work = bct.work
        mid = 0

        def charge(w):  # reads ``mid`` when called: the row's module
            work[mid] += w

        for mid, (node,), _tag, _size in bct.rows_in_slot_order(chunks):
            sl.link_upper_node(node, charge)

    machine = sl.machine
    machine.register(f"{name}:ups_try_update", update_handlers(sl))
    machine.register(f"{name}:ups_insert_lower",
                     node_batch(insert_lower, True))
    machine.register(f"{name}:ups_upper_prepare",
                     node_batch(upper_prepare, False))
    machine.register(f"{name}:ups_upper_link", batch_upper_link)


def _build_towers(sl: SkipListStructure,
                  items: Sequence[Tuple[Hashable, Any]],
                  heights: Sequence[int],
                  ) -> Tuple[List[List[Node]], List[Sequence[int]],
                             List[Node], List[Node]]:
    """Create each item's tower -- nodes with vertical pointers and leaf
    metadata -- one level of the batch at a time.

    Returns ``(levels, reach, lower, upper)``: ``levels[lvl]`` holds the
    level-``lvl`` nodes of the towers that reach that lower level, in
    key order, and ``reach[lvl]`` those towers' positions; ``lower`` /
    ``upper`` hold every lower- / upper-part node tower by tower, level
    by level within a tower (the order phases C and E send them in).
    """
    h_low = sl.h_low
    owners = sl.lower_owners([k for k, _ in items], heights)
    below = [Node(key, 0, owner, value)
             for (key, value), owner in zip(items, owners[0])]
    levels = [below]
    reach: List[Sequence[int]] = [range(len(below))]
    towers = [[leaf] for leaf in below]  # each tower's lower nodes
    for lvl in range(1, len(owners)):  # every level some tower reaches
        idx = [j for j in reach[-1] if heights[j] >= lvl]
        nodes = [Node(items[j][0], lvl, owner)
                 for j, owner in zip(idx, owners[lvl])]
        for j, node in zip(idx, nodes):
            tower = towers[j]
            b = tower[-1]
            b.up = node
            node.down = b
            tower.append(node)
        levels.append(nodes)
        reach.append(idx)
    upper: List[Node] = []
    for leaf, tower, height in zip(below, towers, heights):
        leaf.up_chain = tower[1:]
        leaf.has_upper = height >= h_low
        if height >= h_low:
            b = tower[-1]
            for lvl in range(h_low, height + 1):
                node = sl.make_upper_node(leaf.key, lvl)
                b.up = node
                node.down = b
                upper.append(node)
                b = node
    return levels, reach, list(chain.from_iterable(towers)), upper


def _upsert_route(sl, pairs, riders, ranges):
    cpu = sl.machine.cpu
    n = len(pairs)
    if n == 0:
        return UpsertStats(updated=0, inserted=0)

    shared_words = 2 * n
    cpu.alloc(shared_words)
    try:
        # -- phase A: deduplicate, try Update via the hash shortcut --
        wanted = dedup_last(cpu, pairs)
        cpu.charge(len(wanted), max(1.0, math.log2(len(wanted) + 1)))
        replies = yield [sl.shortcut_stage(
            f"{sl.name}:ups_try_update", list(wanted),
            list(wanted.values()))]
        found = {key for r in replies
                 for key, hit in zip(r.payload[1], r.payload[2]) if hit}
        missing = [(k, v) for k, v in wanted.items() if k not in found]
        updated = len(wanted) - len(missing)
        if not missing:
            return UpsertStats(updated=updated, inserted=0)

        # -- phase B: sort, draw heights, build towers ----------------
        missing = parallel_sort(cpu, missing, key=itemgetter(0))
        heights = sl.draw_heights(len(missing))
        tiers, reach, lower, upper_nodes = _build_towers(sl, missing,
                                                         heights)
        tower_words = len(lower) + len(upper_nodes)
        cpu.alloc(tower_words)
        shared_words += tower_words
        cpu.charge_wd(WorkDepth(tower_words,
                                max(1.0, math.log2(len(missing) + 1)) + 8))

        # -- phase C: deliver lower-part nodes -----------------------
        yield [Columns(f"{sl.name}:ups_insert_lower",
                       [node.owner for node in lower], (lower,))]

        # -- phase D: batched Predecessor on the old structure -------
        # Riders join at record level -1 (Successor keys) and h_low - 1
        # (a Range batch's piece boundaries), each when it rides.
        keys = [k for k, _ in missing]
        levels = list(heights)
        riding = bool(riders) and rides(sl, len(keys), len(riders))
        if riding:
            keys += riders
            levels += [-1] * len(riders)
        pieces, spans = _cut_pieces(ranges) if ranges else ([], [])
        if pieces and rides(sl, len(keys), len(pieces)):
            charge_cut(cpu, len(ranges))
            keys += [lq for lq, _ in pieces]
            levels += [sl.h_low - 1] * len(pieces)
        else:
            pieces = []
        outcomes = batch_search(sl, keys, record_all=True,
                                record_levels=levels)
        ranged = None
        if pieces:
            # The riding ranges' passes, on the old structure.
            ranged = yield from traverse(sl, pieces, spans,
                                         outcomes[-len(pieces):], "read",
                                         None)

        # -- phase E: sentinel growth + upper-part installation ------
        max_h = max(heights)
        if max_h + 1 > sl.top_level:
            added = (max_h + 1) - sl.top_level
            yield [Broadcast(f"{sl.name}:grow", (max_h, added))]
        if upper_nodes:
            fn_prepare = f"{sl.name}:ups_upper_prepare"
            yield [Broadcast(fn_prepare, (node,))
                   for node in upper_nodes]
            fn_link = f"{sl.name}:ups_upper_link"
            yield [Broadcast(fn_link, (node,))
                   for node in upper_nodes]

        # -- phase F: Algorithm 1 (lower horizontal pointers) --------
        yield _algorithm1(sl, tiers, reach, outcomes)

        mine = len(missing)
        sl.num_keys += mine
        return UpsertStats(
            updated=updated, inserted=mine,
            successors=_after_the_write(
                cpu, riders, outcomes[mine:mine + len(riders)], missing)
            if riding else None,
            ranges=_ranges_after_the_write(cpu, ranges, ranged, missing)
            if pieces else None)
    finally:
        cpu.free(shared_words)


def _after_the_write(cpu, keys: Sequence[Hashable], outcomes: Sequence[Any],
                     inserted: Sequence[Tuple[Hashable, Any]],
                     ) -> List[Optional[Tuple[Hashable, Any]]]:
    """The riders' Successor answers after the write, from their search
    on the old structure and the batch's sorted ``inserted`` pairs: the
    old answer, or the smallest inserted key at or above the rider's
    when that is smaller (one bisect per rider, charged here).  Called
    once the write's last stage has run, so it reads the values the
    write left."""
    new_keys = [k for k, _ in inserted]
    steps = max(1.0, math.log2(len(new_keys) + 1))
    cpu.charge(len(keys) * steps, steps)
    cpu.charge(len(keys), 8)
    out: List[Optional[Tuple[Hashable, Any]]] = []
    for key, outcome in zip(keys, outcomes):
        node, right = outcome.pred, outcome.pred_right
        if node.key == key and node.key is not NEG_INF:
            out.append((node.key, node.value))
            continue
        j = bisect_left(new_keys, key)
        if j < len(new_keys) and (right is None or new_keys[j] < right.key):
            out.append(inserted[j])
        else:
            out.append(None if right is None else (right.key, right.value))
    return out


def _ranges_after_the_write(cpu, ops: Sequence[Tuple[Hashable, Hashable]],
                            results: Sequence[RangeResult],
                            inserted: Sequence[Tuple[Hashable, Any]],
                            ) -> List[RangeResult]:
    """The Range riders' results after the write, from their traversal
    of the old structure and the batch's sorted ``inserted`` pairs:
    each op's old items merged with the inserted pairs inside it, found
    by two bisects (the old items hold no inserted key).  Charged here:
    the bisects, one unit per merged item, and the inserted pairs'
    words while they are merged."""
    new_keys = [k for k, _ in inserted]
    steps = max(1.0, math.log2(len(new_keys) + 1))
    spans = [(bisect_left(new_keys, lo), bisect_right(new_keys, hi))
             for lo, hi in ops]
    added = sum(hi - lo for lo, hi in spans)
    merged = added + sum(len(r.values) for r in results)
    cpu.charge(2 * len(ops) * steps + merged,
               steps + max(1.0, math.log2(merged + 1)))
    cpu.alloc(added)
    out = [RangeResult(count=r.count + hi - lo,
                       values=list(merge(r.values, inserted[lo:hi],
                                         key=itemgetter(0)))
                       if hi > lo else r.values)
           for r, (lo, hi) in zip(results, spans)]
    cpu.free(added)
    return out


def batch_upsert(sl: SkipListStructure,
                 pairs: Sequence[Tuple[Hashable, Any]],
                 riders: Sequence[Hashable] = (),
                 ranges: Sequence[Tuple[Hashable, Hashable]] = (),
                 ) -> UpsertStats:
    """Execute a batch of Upsert operations.

    Duplicate keys in the batch collapse to the last occurrence.
    ``riders`` (Successor keys) and ``ranges`` (inclusive ``(lo, hi)``
    read ranges, ``lo <= hi``) that ride the batch's search come back
    answered as after the write in ``stats.successors`` /
    ``stats.ranges`` (see the module docstring); those that do not
    ride -- or all of them, when the batch inserts nothing -- come back
    ``None``, for the caller to run after the write.
    """
    return run_batch(sl.machine, f"{sl.name}:batch_upsert",
                     _upsert_route(sl, pairs, list(riders), list(ranges)))


def _algorithm1(sl: SkipListStructure, levels: List[List[Node]],
                reach: List[Sequence[int]], outcomes) -> list:
    """Build the RemoteWrites of the paper's Algorithm 1 as one route
    stage.

    ``levels[i]`` holds the new level-``i`` nodes in key order, of the
    towers at positions ``reach[i]``; ``outcomes[j].by_level[i]`` holds
    the old structure's (pred, pred.right) at level ``i`` for tower
    ``j``.  For each lower level, runs of new nodes sharing an old
    segment are chained together; the run ends attach to the old
    pred/succ.  Every pointer is written exactly once: write ``i`` is
    ``nodes[i].fields[i] = values[i]``, node by node within a level:
    its right pointer, the left pointer of its right neighbor, and --
    for the first node of a run -- the pred's right pointer and its own
    left pointer.
    """
    cpu = sl.machine.cpu
    by_level = [o.by_level for o in outcomes]
    nodes: List[Node] = []
    fields: List[str] = []
    values: List[Optional[Node]] = []
    total = 0
    for lvl, (curs, idx) in enumerate(zip(levels, reach)):
        segs = [by_level[j][lvl] for j in idx]
        preds = [pred for pred, _ in segs]
        succs = [succ for _, succ in segs]
        # a run continues while the next node shares this one's succ,
        # and starts where the pred changes (_END matches neither)
        for cur, pred, succ, nxt, nsucc, ppred in zip(
                curs, preds, succs, curs[1:] + [None],
                succs[1:] + [_END], [_END] + preds):
            right = nxt if nsucc is succ else succ
            if right is None:
                nodes.append(cur)
                fields.append("right")
                values.append(None)
            else:
                nodes += (cur, right)
                fields += _RIGHT_LEFT
                values += (right, cur)
            if ppred is not pred:
                nodes += (pred, cur)
                fields += _RIGHT_LEFT
                values += (cur, pred)
        total += len(curs)
    cpu.charge_wd(WorkDepth(2 * total + 1, max(1.0, math.log2(total + 2)) + 8))
    return write_stage(sl, nodes, fields, values)


_END = object()
"""Neither a pred nor a succ: what the first node's previous pred and
the last node's next succ read as."""

_RIGHT_LEFT = ("right", "left")
