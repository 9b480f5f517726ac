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

The three stages above are the stages of one route
(:mod:`repro.ops`); the contraction runs on the CPU side while building
stage 3's RemoteWrite messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

from repro.core.node import Node
from repro.core.ops_write import write_stage
from repro.core.structure import SkipListStructure
from repro.cpuside.list_contraction import contract_rows
from repro.cpuside.semisort import group_positions
from repro.ops import Broadcast, run_batch
from repro.sim.cpu import WorkDepth
from repro.sim.task import Reply


@dataclass
class DeleteStats:
    """What a batched Delete did."""

    deleted: int
    not_found: int


def make_handlers(sl: SkipListStructure) -> None:
    name = sl.name
    fn_mark_node = f"{name}:del_mark_node"

    # Row bodies of the two chunk loops below.

    def mark_leaf(module, key, charge):
        """Take ``key``'s leaf out of ``module``'s local state.  Returns
        the reply payload and the ``(node, is_top)`` marker task of each
        lower tower node above the leaf."""
        leaf = module.state[name].table.lookup(key)
        charge(1)
        if leaf is None:
            return ("notfound", key), ()
        sl.local_remove_leaf(module.mid, leaf, charge)
        leaf.deleted = True
        sl.account_lower_free(leaf)
        chain = leaf.up_chain or ()
        # If the tower tops out below the upper part, the top chain node's
        # marker must return nothing extra; if it reaches the upper part,
        # the top *lower* node's marker returns its up pointer so the CPU
        # can broadcast the upper-tower deletion.
        if leaf.has_upper and not chain:
            up_ref = leaf.up  # h_low == 1: the leaf itself is the top
        else:
            up_ref = None
        top = len(chain) - 1 if leaf.has_upper else -1
        return (("marked", key, leaf, leaf.left, leaf.right, up_ref),
                [(node, i == top) for i, node in enumerate(chain)])

    def mark_node(node, is_top):
        node.deleted = True
        sl.account_lower_free(node)
        return ("marked_node", node, node.left, node.right,
                node.up if is_top else None)

    # The CPU side contracts the marked nodes in the order their replies
    # arrive (the random-mate coins are drawn in that order), so both
    # chunk loops run their rows in the scalar loop's order and the
    # reply stream is the reference oracle's, element for element.

    def batch_delete_mark(bct, chunks):
        modules = bct.machine.modules
        sent = bct.sent
        rep_append = bct.replies.append
        tracing = bct.tracing
        out: list = []
        for mid, (key,), tag, _size in bct.rows_in_slot_order(chunks):
            module = modules[mid]
            payload, markers = mark_leaf(module, key, module.charge)
            if tracing and payload[0] == "marked":
                bct.touch(mid, payload[2].nid)
            rep_append(Reply(payload, tag, mid))
            sent[mid] += 1 + len(markers)
            for args in markers:
                out.append((args[0].owner, args, tag, 1))
        bct.stage_rows(fn_mark_node, out)

    def batch_mark_node(bct, chunks):
        work = bct.work
        sent = bct.sent
        rep_append = bct.replies.append
        tracing = bct.tracing
        for mid, (node, is_top), tag, _size in bct.rows_in_slot_order(chunks):
            work[mid] += 1
            sent[mid] += 1
            if tracing:
                bct.touch(mid, node.nid)
            rep_append(Reply(mark_node(node, is_top), tag, mid))

    def batch_delete_upper(bct, chunks):
        # The first executor's unlink splices the shared level, the
        # others find the node already unlinked: rows run in slot order,
        # so the first is the oracle's.
        work = bct.work
        mid = 0

        def charge(w):  # reads ``mid`` when called: the row's module
            work[mid] += w

        for mid, (upper_leaf,), _tag, _size in bct.rows_in_slot_order(
                chunks):
            u: Optional[Node] = upper_leaf
            while u is not None:
                work[mid] += 1
                sl.account_upper_free_on(mid, u)
                u.deleted = True
                sl.unlink_upper_node(u, charge)
                u = u.up

    machine = sl.machine
    machine.register(f"{name}:del_mark", batch_delete_mark)
    machine.register(fn_mark_node, batch_mark_node)
    machine.register(f"{name}:del_upper", batch_delete_upper)


def _mark_order(r: Reply) -> tuple:
    return (r.payload[0] == "marked_node", r.src)


def _delete_route(sl, keys):
    cpu = sl.machine.cpu
    n = len(keys)
    if n == 0:
        return DeleteStats(deleted=0, not_found=0)

    shared_words = n
    cpu.alloc(shared_words)
    try:
        # -- stage 1: shortcut marking -------------------------------
        distinct = list(group_positions(cpu, keys))
        replies = yield [sl.shortcut_stage(f"{sl.name}:del_mark", distinct)]
        # The contraction draws its coins in this order: the marked
        # leaves, then the tower nodes, each by module in arrival order.
        # A drain already returns it (one round each, in slot order);
        # under a fault plan a late envelope's round also runs tower
        # nodes, and the two functions' replies interleave per machine.
        replies = sorted(replies, key=_mark_order)
        marked: List[Node] = []
        lefts: List[Optional[Node]] = []
        rights: List[Optional[Node]] = []
        upper_leaves: List[Node] = []
        not_found = 0
        deleted = 0
        for r in replies:
            payload = r.payload
            kind = payload[0]
            if kind == "notfound":
                not_found += 1
                continue
            if kind == "marked":
                _, _key, node, left, right, up_ref = payload
                deleted += 1
            else:  # marked_node
                _, node, left, right, up_ref = payload
            marked.append(node)
            lefts.append(left)
            rights.append(right)
            if up_ref is not None:
                upper_leaves.append(up_ref)

        # -- stage 2a: replicated upper towers, by broadcast ---------
        if upper_leaves:
            fn_upper = f"{sl.name}:del_upper"
            yield [Broadcast(fn_upper, (u,)) for u in upper_leaves]

        # -- stage 2b: lower splice via parallel list contraction ----
        if marked:
            yield _splice_lower(sl, marked, lefts, rights)

        # -- teardown (host memory only; no model cost) --------------
        # Every marked node is out of the structure now.  Consecutive
        # deleted neighbors and each tower's up/down/up_chain links
        # are reference cycles; cut them so the towers die with this
        # batch's temporaries.
        for node in marked:
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
    return run_batch(sl.machine, f"{sl.name}:batch_delete",
                     _delete_route(sl, keys))


def _splice_lower(sl: SkipListStructure, nodes: List[Node],
                  lefts: List[Optional[Node]],
                  rights: List[Optional[Node]]) -> list:
    """Contract the marked lower ``nodes`` (with their reported
    ``lefts`` / ``rights``, in reply order) out of their horizontal lists
    and build the RemoteWrite stage of only the changed adjacencies.

    The copy in shared memory is index columns: marked node ``i`` is row
    ``i``, and each unmarked neighbor gets the next row on its first
    mention, left before right.  Only an unmarked row that was a marked
    node's left neighbor has a right pointer that changes, so its new
    right adjacency (both ways) is the write, in row order."""
    cpu = sl.machine.cpu
    m = len(nodes)
    row = dict(zip(nodes, range(m)))
    if len(row) != m:
        raise ValueError("a node was marked twice")
    left = [-1] * (3 * m)  # room for m marked rows and 2m neighbors
    right = [-1] * (3 * m)
    add = row.setdefault
    i = 0
    for lf, rt in zip(lefts, rights):
        if lf is not None:
            j = add(lf, len(row))
            left[i] = j
            right[j] = i
        if rt is not None:
            j = add(rt, len(row))
            right[i] = j
            left[j] = i
        i += 1
    objs = list(row)
    total = len(objs)
    bounds = [j for j in range(m, total) if right[j] >= 0]

    words = 4 * total
    with cpu.region(words):
        rounds, work = contract_rows(list(range(m)), left, right,
                                     sl.machine.spawn_rng(0x11C7))
    logt = max(1.0, math.log2(total + 1))
    cpu.charge_wd(WorkDepth(max(total, work), rounds + logt))

    out: List[Node] = []
    fields: List[str] = []
    values: List[Optional[Node]] = []
    for j in bounds:
        a = objs[j]
        r = right[j]
        if r >= 0:
            b = objs[r]
            out += (a, b)
            fields += ("right", "left")
            values += (b, a)
        else:
            out.append(a)
            fields.append("right")
            values.append(None)
    cpu.charge_wd(WorkDepth(len(bounds) + 1, logt))
    return write_stage(sl, out, fields, values)
