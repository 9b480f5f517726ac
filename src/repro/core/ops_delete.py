"""Batched Delete (paper §4.4): shortcut marking + list-contraction splice.

Because a deleted key must exist, Delete skips the predecessor search
entirely: the operation is sent to the module owning the key's leaf (hash
shortcut), which looks the leaf up in its local hash table and -- using
the up-chain addresses recorded at insert time -- marks the whole tower
without any search:

1. The leaf's module removes the leaf from its local leaf list and hash
   table (repairing its next-leaf pointers), marks it deleted, and
   forwards one marking task to each lower tower node's owner; each
   marker replies with the node and its (left, right) neighbors.
2. Towers that reach the upper part have their replicated upper nodes
   deleted by broadcast: every module charges its replica's work/space,
   and the (idempotent) unlink splices the shared upper levels locally.
3. Splicing the lower horizontal lists is the hard part: up to the whole
   batch may be *consecutive* nodes of one list.  The CPU copies the
   marked nodes (plus each run's flanking unmarked boundary nodes) into
   shared memory, runs randomized parallel list contraction
   (:mod:`repro.cpuside.list_contraction`), and RemoteWrites only the
   adjacencies that changed -- each spliced pointer is written once.

Bounds (Theorem 4.5): ``O(log^2 P)`` IO time, ``O(log^2 P)`` PIM time,
``O(P log^2 P)`` expected CPU work, ``O(log P)`` CPU depth, and
``Theta(P log^2 P)`` shared memory, whp, for batches of ``P log^2 P``.

The three stages above are the route stages of one
:class:`~repro.ops.BatchOp`; the contraction runs on the CPU side while
building stage 3's RemoteWrite messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.node import Node
from repro.core.ops_write import write_message
from repro.core.structure import SkipListStructure
from repro.cpuside.list_contraction import ContractionList
from repro.cpuside.semisort import group_by
from repro.ops import BatchOp, Broadcast, cached_handlers, run_batch
from repro.sim.cpu import WorkDepth


@dataclass
class DeleteStats:
    """What a batched Delete did."""

    deleted: int
    not_found: int


def make_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    def h_delete_mark(ctx, key, tag=None):
        ml = sl.mlocal(ctx.mid)
        leaf = ml.table.lookup(key)
        ctx.charge(1)
        if leaf is None:
            ctx.reply(("notfound", key), tag=tag)
            return
        ctx.touch(leaf.nid)
        sl.local_remove_leaf(ctx.mid, leaf, ctx.charge)
        leaf.deleted = True
        sl.account_lower_free(leaf)
        if sl.storage.mirrors:
            sl.storage.free(leaf)
        chain = leaf.up_chain or []
        # If the tower tops out below the upper part, the top chain node's
        # marker must return nothing extra; if it reaches the upper part,
        # the top *lower* node's marker returns its up pointer so the CPU
        # can broadcast the upper-tower deletion.
        if leaf.has_upper and not chain:
            up_ref = leaf.up  # h_low == 1: the leaf itself is the top
        else:
            up_ref = None
        ctx.reply(("marked", key, leaf, leaf.left, leaf.right, up_ref),
                  size=1, tag=tag)
        fn_mark_node = f"{sl.name}:del_mark_node"
        for i, node in enumerate(chain):
            is_top = leaf.has_upper and (i == len(chain) - 1)
            ctx.forward(node.owner, fn_mark_node, (node, is_top), tag=tag)

    def h_mark_node(ctx, node, is_top, tag=None):
        ctx.charge(1)
        ctx.touch(node.nid)
        node.deleted = True
        sl.account_lower_free(node)
        if sl.storage.mirrors:
            sl.storage.free(node)
        up_ref = node.up if is_top else None
        ctx.reply(("marked_node", node, node.left, node.right, up_ref),
                  size=1, tag=tag)

    def h_delete_upper_tower(ctx, upper_leaf, tag=None):
        u: Optional[Node] = upper_leaf
        while u is not None:
            ctx.charge(1)
            sl.account_upper_free_on(ctx.mid, u)
            u.deleted = True
            sl.unlink_upper_node(u, ctx.charge)
            u = u.up
        ctx.reply(("ack",), tag=tag)

    return {
        f"{sl.name}:del_mark": h_delete_mark,
        f"{sl.name}:del_mark_node": h_mark_node,
        f"{sl.name}:del_upper": h_delete_upper_tower,
    }


def handlers_for(sl: SkipListStructure) -> Dict[str, Any]:
    """The delete handler dict, created once per structure."""
    return cached_handlers(sl, "delete", lambda: make_handlers(sl))


class _BatchDeleteOp(BatchOp):
    def __init__(self, sl: SkipListStructure,
                 keys: Sequence[Hashable]) -> None:
        self.sl = sl
        self.keys = keys
        self.name = f"{sl.name}:batch_delete"

    def handlers(self):
        return handlers_for(self.sl)

    def route(self, machine, plan):
        sl, keys = self.sl, self.keys
        cpu = machine.cpu
        n = len(keys)
        if n == 0:
            return DeleteStats(deleted=0, not_found=0)

        shared_words = n
        cpu.alloc(shared_words)
        try:
            # -- stage 1: shortcut marking -------------------------------
            groups = group_by(cpu, list(keys), key=lambda k: k)
            fn_mark = f"{sl.name}:del_mark"
            replies = yield ((sl.leaf_owner(key), fn_mark, (key,), None)
                             for key in groups)
            marked: List[Tuple[Node, Optional[Node], Optional[Node]]] = []
            upper_leaves: List[Node] = []
            not_found = 0
            deleted = 0
            for r in replies:
                payload = r.payload
                if payload[0] == "notfound":
                    not_found += 1
                elif payload[0] == "marked":
                    _, _key, leaf, left, right, up_ref = payload
                    marked.append((leaf, left, right))
                    deleted += 1
                    if up_ref is not None:
                        upper_leaves.append(up_ref)
                else:  # marked_node
                    _, node, left, right, up_ref = payload
                    marked.append((node, left, right))
                    if up_ref is not None:
                        upper_leaves.append(up_ref)

            # -- stage 2a: replicated upper towers, by broadcast ---------
            if upper_leaves:
                fn_upper = f"{sl.name}:del_upper"
                yield [Broadcast(fn_upper, (u,)) for u in upper_leaves]

            # -- stage 2b: lower splice via parallel list contraction ----
            if marked:
                yield _splice_lower(sl, marked)

            # -- teardown (host memory only; no model cost) --------------
            # Every marked node is out of the structure now.  Consecutive
            # deleted neighbors and each tower's up/down/up_chain links
            # are reference cycles; cut them so the towers die with this
            # batch's temporaries.
            for node, _left, _right in marked:
                node.clear_links()
            for u in upper_leaves:
                while u is not None:
                    above = u.up
                    u.clear_links()
                    u = above

            sl.num_keys -= deleted
            return DeleteStats(deleted=deleted, not_found=not_found)
        finally:
            cpu.free(shared_words)


def batch_delete(sl: SkipListStructure,
                 keys: Sequence[Hashable]) -> DeleteStats:
    """Execute a batch of Delete operations (duplicates collapse; missing
    keys are ignored, each counted in ``not_found``)."""
    return run_batch(sl.machine, _BatchDeleteOp(sl, keys))


def _splice_lower(sl: SkipListStructure,
                  marked: List[Tuple[Node, Optional[Node], Optional[Node]]],
                  ) -> list:
    """Contract the marked lower nodes out of their horizontal lists and
    build RemoteWrite messages for only the changed adjacencies."""
    cpu = sl.machine.cpu
    by_nid: Dict[int, Node] = {}
    clist = ContractionList()
    original_right: Dict[int, Optional[int]] = {}

    entries: List[Tuple[int, Optional[int], Optional[int]]] = []
    for node, left, right in marked:
        by_nid[node.nid] = node
        if left is not None:
            by_nid.setdefault(left.nid, left)
        if right is not None:
            by_nid.setdefault(right.nid, right)
        entries.append((node.nid, left.nid if left else None,
                        right.nid if right else None))
        original_right[node.nid] = right.nid if right else None
        if left is not None:
            original_right.setdefault(left.nid, node.nid)

    clist.add_adjacency(entries)
    words = 4 * len(by_nid)
    with cpu.region(words):
        stats = clist.contract(sl.machine.spawn_rng(0x11C7))
        links = clist.links()
    total = len(by_nid)
    logt = max(1.0, math.log2(total + 1))
    cpu.charge_wd(WorkDepth(max(total, stats.work), stats.rounds + logt))

    msgs: list = []
    writes = 0
    for a_nid, b_nid in links:
        if original_right.get(a_nid, b_nid) == b_nid:
            continue  # adjacency unchanged; no write needed
        a = by_nid[a_nid]
        b = by_nid[b_nid] if b_nid is not None else None
        msgs.append(write_message(sl, a, "right", b))
        if b is not None:
            msgs.append(write_message(sl, b, "left", a))
        writes += 1
    cpu.charge_wd(WorkDepth(writes + 1, logt))
    return msgs
