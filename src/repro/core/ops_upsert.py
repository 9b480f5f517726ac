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

**Successor riders.**  A Successor batch served in the same tick
(``repro serve``'s write group) rides phase 4: its keys join the search
at record level -1 when :func:`~repro.core.ops_successor.rides` says
they cost it at most the stage their own search would pay, and
otherwise run as their own ``batch_successor`` after the write.  A
rider is answered as if it ran after the write: the old structure's
successor (``pred`` / ``pred_right``), replaced by the batch's smallest
inserted key at or above it when that key is smaller.  That is the
answer after the write because an Upsert only adds keys and overwrites
values, and phase 4 walks only ``right`` / ``down`` pointers, which
phase 6 has not yet written.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.node import NEG_INF, Node
from repro.core.ops_point import update_handlers
from repro.core.ops_successor import batch_search, batch_successor, rides
from repro.core.ops_write import write_stage
from repro.core.structure import SkipListStructure
from repro.cpuside.semisort import dedup_last
from repro.cpuside.sort import parallel_sort
from repro.ops import Broadcast, run_batch
from repro.sim.cpu import WorkDepth


@dataclass
class UpsertStats:
    """What a batched Upsert did, and its riders' Successor answers
    (aligned with the rider keys; ``None`` until answered)."""

    updated: int
    inserted: int
    successors: Optional[List[Optional[Tuple[Hashable, Any]]]] = None


def make_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    name = sl.name

    # Row bodies: what one task does on ``module``, charging through
    # ``charge`` -- ``ctx.charge`` under the scalar loop, a ``bct.work``
    # adder in a chunk loop.  ``memo`` is scratch shared by the rows of
    # one handler call (one round; the structure's upper part does not
    # change within it).

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

    def h_insert_lower(ctx, node, tag=None):
        insert_lower(ctx.module, node, ctx.charge, {})
        ctx.touch(node.nid)

    def h_upper_prepare(ctx, node, tag=None):
        upper_prepare(ctx.module, node, ctx.charge, {})

    def node_batch(body):
        """The chunk loop of a one-node task with nothing to return.
        Charges go to ``bct.work``: under a broadcast every module runs
        the body, and the engine reads ``module.charge`` back only for
        row and slot receivers (the leaf table's own probes, on a
        delivery row)."""
        def batch(bct, chunks):
            modules = bct.machine.modules
            work = bct.work
            mid = 0
            memo: dict = {}

            def charge(w):  # reads ``mid`` when called: the row's module
                work[mid] += w

            for ch in chunks:
                for mid, (node,), _tag, _size in bct.rows_of(ch):
                    body(modules[mid], node, charge, memo)
        return batch

    def h_upper_link(ctx, node, tag=None):
        # Round 2: idempotent horizontal linking of the shared replica.
        # Scalar only: the first executor pays the descent, the others
        # one unit each.
        sl.link_upper_node(node, ctx.charge)

    h_try_update, batch_try_update = update_handlers(sl)
    machine = sl.machine
    machine.register_batch(f"{name}:ups_try_update", batch_try_update)
    machine.register_batch(f"{name}:ups_insert_lower",
                           node_batch(insert_lower))
    machine.register_batch(f"{name}:ups_upper_prepare",
                           node_batch(upper_prepare))

    return {
        f"{name}:ups_try_update": h_try_update,
        f"{name}:ups_insert_lower": h_insert_lower,
        f"{name}:ups_upper_prepare": h_upper_prepare,
        f"{name}:ups_upper_link": h_upper_link,
    }


@dataclass
class _Tower:
    key: Hashable
    height: int
    nodes: List[Node]  # levels 0..height


def _build_towers(sl: SkipListStructure,
                  items: Sequence[Tuple[Hashable, Any]],
                  heights: Sequence[int]) -> List[_Tower]:
    """Create each item's tower: nodes with vertical pointers and leaf
    metadata, the lower-part nodes placed one level of the batch at a
    time."""
    h_low = sl.h_low
    owners = sl.lower_owners([k for k, _ in items], heights)
    towers: List[_Tower] = []
    for (key, value), height in zip(items, heights):
        nodes: List[Node] = []
        below: Optional[Node] = None
        for lvl in range(height + 1):
            if lvl >= h_low:
                node = sl.make_upper_node(key, lvl)
            else:
                node = Node(key, lvl, next(owners[lvl]),
                            value if lvl == 0 else None)
            if below is not None:
                below.up = node
                node.down = below
            nodes.append(node)
            below = node
        leaf = nodes[0]
        leaf.up_chain = nodes[1:h_low]
        leaf.has_upper = height >= h_low
        towers.append(_Tower(key=key, height=height, nodes=nodes))
    return towers


def _upsert_route(sl, pairs, riders):
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
        replies = yield sl.shortcut_stage(
            f"{sl.name}:ups_try_update", list(wanted), wanted.items())
        found = {r.payload[0] for r in replies if r.payload[1]}
        missing = [(k, v) for k, v in wanted.items() if k not in found]
        updated = len(wanted) - len(missing)
        if not missing:
            return UpsertStats(updated=updated, inserted=0)

        # -- phase B: sort, draw heights, build towers ----------------
        missing = parallel_sort(cpu, missing, key=itemgetter(0))
        heights = [sl.draw_height() for _ in missing]
        towers = _build_towers(sl, missing, heights)
        tower_words = sum(t.height + 1 for t in towers)
        cpu.alloc(tower_words)
        shared_words += tower_words
        cpu.charge_wd(WorkDepth(tower_words,
                                max(1.0, math.log2(len(towers) + 1)) + 8))

        # -- phase C: deliver lower-part nodes -----------------------
        fn_insert_lower = f"{sl.name}:ups_insert_lower"
        yield (
            (node.owner, fn_insert_lower, (node,), None)
            for t in towers for node in t.nodes
            if not sl.is_upper_level(node.level))

        # -- phase D: batched Predecessor on the old structure -------
        keys = [k for k, _ in missing]
        riding = bool(riders) and rides(sl, len(keys), len(riders))
        joined = riders if riding else []
        outcomes = batch_search(sl, keys + joined, record_all=True,
                                record_levels=heights + [-1] * len(joined))

        # -- phase E: sentinel growth + upper-part installation ------
        max_h = max(heights)
        if max_h + 1 > sl.top_level:
            added = (max_h + 1) - sl.top_level
            yield [Broadcast(f"{sl.name}:grow", (max_h, added))]
        upper_nodes = [
            node for t in towers for node in t.nodes
            if sl.is_upper_level(node.level)
        ]
        if upper_nodes:
            fn_prepare = f"{sl.name}:ups_upper_prepare"
            yield [Broadcast(fn_prepare, (node,))
                   for node in upper_nodes]
            fn_link = f"{sl.name}:ups_upper_link"
            yield [Broadcast(fn_link, (node,))
                   for node in upper_nodes]

        # -- phase F: Algorithm 1 (lower horizontal pointers) --------
        yield _algorithm1(sl, towers, outcomes)

        sl.num_keys += len(missing)
        return UpsertStats(
            updated=updated, inserted=len(missing),
            successors=_after_the_write(cpu, riders, outcomes[len(keys):],
                                        missing) if riding else None)
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


def batch_upsert(sl: SkipListStructure,
                 pairs: Sequence[Tuple[Hashable, Any]],
                 riders: Sequence[Hashable] = ()) -> UpsertStats:
    """Execute a batch of Upsert operations.

    Duplicate keys in the batch collapse to the last occurrence.  With
    ``riders`` (Successor keys) the stats carry their answers after the
    write: from the batch's own search when they ride it, else from a
    Successor batch run after it (see the module docstring).
    """
    stats = run_batch(sl.machine, f"{sl.name}:batch_upsert",
                      _upsert_route(sl, pairs, list(riders)))
    if riders and stats.successors is None:
        stats.successors = batch_successor(sl, riders)
    return stats


def _algorithm1(sl: SkipListStructure, towers: List[_Tower],
                outcomes) -> list:
    """Build the RemoteWrites of the paper's Algorithm 1 as one route
    stage.

    ``towers`` are key-sorted; ``outcomes[j].by_level[i]`` holds the old
    structure's (pred, pred.right) at level ``i`` for tower ``j``.  For
    each lower level, runs of new nodes sharing an old segment are chained
    together; the run ends attach to the old pred/succ.  Every pointer is
    written exactly once: write ``i`` is ``nodes[i].fields[i] =
    values[i]``.
    """
    cpu = sl.machine.cpu
    nodes: List[Node] = []
    fields: List[str] = []
    values: List[Optional[Node]] = []
    total = 0
    for lvl in range(sl.h_low):
        row: List[Tuple[Node, Node, Optional[Node]]] = []
        for t, outcome in zip(towers, outcomes):
            if t.height < lvl:
                continue
            pred, succ = outcome.by_level[lvl]
            row.append((t.nodes[lvl], pred, succ))
        m = len(row)
        for j, (cur, pred, succ) in enumerate(row):
            right_end = (j == m - 1) or (row[j + 1][2] is not succ)
            right = succ if right_end else row[j + 1][0]
            nodes.append(cur)
            fields.append("right")
            values.append(right)
            if right is not None:
                nodes.append(right)
                fields.append("left")
                values.append(cur)
            left_end = (j == 0) or (row[j - 1][1] is not pred)
            if left_end:
                nodes.append(pred)
                fields.append("right")
                values.append(cur)
                nodes.append(cur)
                fields.append("left")
                values.append(pred)
        total += m
    cpu.charge_wd(WorkDepth(2 * total + 1, max(1.0, math.log2(total + 2)) + 8))
    return write_stage(sl, nodes, fields, values)
