"""Bulk load: sorted unique pairs into an empty skip list, in two rounds.

The model assumes the input "starts evenly divided among the PIM
modules" (PAPER.md §2).  Loading it into an empty structure is the cheap
case of the paper's Algorithm 1 (§4.3, Fig. 4): with no old segment to
splice into, the CPU side knows every pointer before it sends anything.
The route:

1. Draw each tower's height in key order (the stream a batched Upsert
   of the same items would consume) and create the towers with every
   pointer set: horizontal and vertical links, each leaf's up-chain and
   has-upper flag, and the module-local leaf chains (each module's
   leaves in key order, since the CPU side computes every owner).
2. One stage: each lower-part node goes to its owner as one
   :class:`~repro.ops.Columns` element, and each upper-part node --
   the sentinels the tower grows by included -- is installed by a
   :class:`~repro.ops.Broadcast`.  Every receiver charges one unit and
   the node's words, as a batched Upsert's delivery does.
3. One message per module, carrying the module's first leaf: the
   module walks its chain once to set its list ends and count, loads
   its :class:`~repro.core.hash_table.CuckooHashTable` in one eager pass
   (:meth:`~repro.core.hash_table.CuckooHashTable.load`), and sweeps the
   upper leaves once to set its ``next_leaf`` pointers.

Bounds (Lemma 2.1: n >= P log P towers into P bins): 2 rounds, O(n/P)
whp IO time and PIM time.  The CPU side's one pass over the items is not
billed and holds no shared memory: the input is the model's starting
state, resident on the modules' side, and a CPU-side float offset would
change the bits every later batch of the structure is billed.  Every
handler's effect is order-free, so the load is exact under message
reordering, loss and duplication (the reliable-delivery protocol
re-sends within a stage).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.core.node import NODE_WORDS, UPPER, Node
from repro.core.structure import SkipListStructure
from repro.ops import Broadcast, Columns, run_batch
from repro.sim.fastpath import BCAST, COLS


def make_handlers(sl: SkipListStructure) -> None:
    name = sl.name
    h_low = sl.h_low

    def batch_load_lower(bct, chunks):
        modules = bct.machine.modules
        work = bct.work
        for ch in chunks:
            counts = (ch.counts if ch.kind == COLS
                      else Counter(row[0] for row in bct.rows_of(ch)))
            for mid, k in counts.items():
                modules[mid].alloc_words(k * NODE_WORDS)
                work[mid] += k

    def batch_load_upper(bct, chunks):
        # Every module installs every replica, so one word total and
        # one task count serve all of a round's broadcasts; a row (a
        # broadcast's task in a slot) installs its replica on its own
        # module.
        modules = bct.machine.modules
        work = bct.work
        words = tasks = 0
        for ch in chunks:
            if ch.kind == BCAST:
                words += NODE_WORDS + (ch.args[0].level == h_low)
                tasks += 1
                continue
            for mid, (node,), _tag, _size in bct.rows_of(ch):
                sl.account_upper_alloc_on(mid, node)
                work[mid] += 1
        if tasks:
            for mid, module in enumerate(modules):
                module.alloc_words(words)
                work[mid] += tasks

    def batch_load_finish(bct, chunks):
        # Per module: its list ends and count, its table in one pass
        # (charged by the table), and one sweep of the upper leaves
        # against its chain: each points at the first local leaf at or
        # after it.
        for mid, (first,), _tag, _size in bct.rows(chunks):
            ml = sl.mlocal(mid)
            items: List[Tuple[Hashable, Node]] = []
            leaf = first
            while leaf is not None:
                items.append((leaf.key, leaf))
                ml.last_leaf = leaf
                leaf = leaf.local_right
            ml.first_leaf = first
            ml.leaf_count = len(items)
            if items:
                ml.table.load(items)
            steps = len(items)
            u: Optional[Node] = sl.upper_leaf_sentinel
            leaf = first
            while u is not None:
                while leaf is not None and leaf.key < u.key:
                    leaf = leaf.local_right
                u.next_leaf[mid] = leaf
                u = u.right
                steps += 1
            bct.work[mid] += steps

    sl.machine.register(f"{name}:load_lower", batch_load_lower)
    sl.machine.register(f"{name}:load_upper", batch_load_upper)
    sl.machine.register(f"{name}:load_finish", batch_load_finish)


def _build_route(sl: SkipListStructure,
                 items: Sequence[Tuple[Hashable, Any]]):
    n = len(items)
    if n == 0:
        return
    p = sl.num_modules
    heights = sl.draw_heights(n)
    max_h = max(heights)
    grown_from = len(sl.sentinels)
    if max_h + 1 > sl.top_level:
        sl.grow_to_level(max_h, lambda w: None)

    # The towers, every pointer set; each module's leaves chained in
    # key order.
    owners = sl.lower_owners([k for k, _ in items], heights)
    level_tail: List[Node] = list(sl.sentinels)
    lower: List[Node] = []
    upper: List[Node] = sl.sentinels[grown_from:]
    first_leaf: List[Optional[Node]] = [None] * p
    last_leaf: List[Optional[Node]] = [None] * p
    h_low = sl.h_low
    for (key, value), h in zip(items, heights):
        below: Optional[Node] = None
        up_chain: List[Node] = []
        for lvl in range(h + 1):
            if lvl >= h_low:
                node = Node(key, lvl, UPPER)
                if lvl == h_low:
                    node.next_leaf = [None] * p
                upper.append(node)
            else:
                node = Node(key, lvl, next(owners[lvl]),
                            value if lvl == 0 else None)
                lower.append(node)
                if lvl:
                    up_chain.append(node)
            tail = level_tail[lvl]
            tail.right = node
            node.left = tail
            level_tail[lvl] = node
            if below is not None:
                below.up = node
                node.down = below
            else:
                leaf = node
            below = node
        leaf.up_chain = up_chain
        leaf.has_upper = h >= h_low
        mid = leaf.owner
        prev = last_leaf[mid]
        if prev is None:
            first_leaf[mid] = leaf
        else:
            prev.local_right = leaf
            leaf.local_left = prev
        last_leaf[mid] = leaf

    fn_upper = f"{sl.name}:load_upper"
    yield ([Columns(f"{sl.name}:load_lower", [x.owner for x in lower],
                    (lower,))]
           + [Broadcast(fn_upper, (node,)) for node in upper])
    fn_finish = f"{sl.name}:load_finish"
    yield [(mid, fn_finish, (first_leaf[mid],), None) for mid in range(p)]
    sl.num_keys = n


def build(sl: SkipListStructure,
          items: Sequence[Tuple[Hashable, Any]]) -> None:
    """Load sorted, unique ``(key, value)`` pairs into the empty ``sl``."""
    if sl.num_keys != 0:
        raise ValueError("build requires an empty structure")
    for (k1, _), (k2, _) in zip(items, items[1:]):
        if not k1 < k2:
            raise ValueError("build requires sorted unique keys")
    run_batch(sl.machine, f"{sl.name}:build", _build_route(sl, items))
