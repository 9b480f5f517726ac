"""Range operations (paper §5): by broadcast (§5.1) and by tree (§5.2).

``RangeOperation(LKey, RKey, Func)`` applies ``Func`` to the value of
every key in ``[LKey, RKey]``.  Functions are a small PIM-side registry
(``read``, ``count``, ``set``, ``fetch_and_add``); richer functions are
modeled, as the paper suggests, by a ``read`` + CPU-side application + a
write-back.

Broadcast execution (Theorem 5.1)
---------------------------------
The task is broadcast to all ``P`` modules (an h=1 relation).  Each module
searches its *replica* of the upper part to the rightmost upper-part leaf
at or before LKey, takes that leaf's per-module ``next-leaf`` pointer into
its own local leaf list, walks to its local successor of LKey (``O(log P)``
whp steps), and then applies Func along its local leaf list until RKey.
With ``K = Omega(P log P)`` covered pairs every module holds ``Theta(K/P)``
of them whp (Lemma 2.1): ``O(1)`` IO time + ``O(K/P)`` whp for returned
values, ``O(K/P + log n)`` whp PIM time, O(1) rounds.

Tree execution (Theorem 5.2)
----------------------------
For small or batched ranges, broadcasting is wasteful; instead the
operation walks the *search area* -- every node that may have a child in
the range, ``O(K + log n)`` nodes whp.  The traversal is a fan-out over
the (conceptual) search tree: a *boundary* descent along LKey's
predecessor path spawns, at each lower level, the *chain* of in-range
nodes hanging between that level's predecessor and the next tower; chain
nodes recursively spawn their down-chains.  Two more passes over the same
tree edges aggregate subtree counts (leaf-to-root) and distribute prefix
offsets (root-to-leaf), so every marked leaf learns its index within the
range and the CPU learns the total -- exactly the paper's prefix-sum
scheme.

The batched version cuts the batch's union wherever the set of covering
operations changes -- at most 2n - 1 disjoint ascending subranges, exactly
n for disjoint operations -- and pays one pivot-protected boundary search
(§4.2, no contention) and one traversal per subrange; results stream to
the CPU in shared-memory-sized groups.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.node import Node, UPPER
from repro.core.ops_successor import batch_search
from repro.core.structure import SkipListStructure
from repro.cpuside.sort import parallel_sort
from repro.ops import Broadcast, run_batch
from repro.sim.cpu import WorkDepth
from repro.sim.task import Reply

# ---------------------------------------------------------------------------
# ordered "just below k" search keys (for inclusive left bounds)
# ---------------------------------------------------------------------------


class JustBelow:
    """A virtual key sitting immediately below ``key`` in the order.

    Searching the predecessor of ``JustBelow(k)`` yields the largest key
    strictly less than ``k`` -- which makes in-range chains start *at*
    ``k`` (inclusive left bound) instead of after it.
    """

    __slots__ = ("key",)

    def __init__(self, key: Hashable) -> None:
        self.key = key

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, JustBelow):
            return self.key < other.key
        return self.key <= other

    def __le__(self, other: Any) -> bool:
        if isinstance(other, JustBelow):
            return self.key <= other.key
        return self.key <= other

    def __gt__(self, other: Any) -> bool:
        if isinstance(other, JustBelow):
            return self.key > other.key
        return self.key > other

    def __ge__(self, other: Any) -> bool:
        if isinstance(other, JustBelow):
            return self.key >= other.key
        return self.key > other

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, JustBelow) and self.key == other.key

    def __hash__(self) -> int:
        return hash(("JustBelow", self.key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JustBelow({self.key!r})"


@dataclass(frozen=True)
class Bound:
    """Right bound of a (sub)range: key plus inclusivity."""

    key: Hashable
    inclusive: bool = True

    def admits(self, key: Hashable) -> bool:
        return key <= self.key if self.inclusive else key < self.key


FUNCS = ("read", "count", "set", "fetch_and_add")


def _apply_func(leaf: Node, func: str, farg: Any) -> Optional[Any]:
    """Apply a registry function to a leaf; returns the reply value."""
    if func == "read":
        return leaf.value
    if func == "count":
        return None
    if func == "set":
        leaf.value = farg
        return None
    if func == "fetch_and_add":
        old = leaf.value
        leaf.value = old + farg
        return old
    raise ValueError(f"unknown range function {func!r}")


# ---------------------------------------------------------------------------
# §5.1 broadcast execution
# ---------------------------------------------------------------------------


@dataclass
class RangeResult:
    """Result of one range operation."""

    count: int
    values: List[Tuple[Hashable, Any]] = field(default_factory=list)


def make_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    """The broadcast range's one scalar handler and the tree traversal's
    six functions (:func:`_tree_handlers`, which registers their chunk
    forms).  ``rng_bcast`` stays scalar: it is one broadcast per op, its
    modules each walking their own leaf list to a different reply, so a
    round of it has nothing to batch."""
    handlers = _tree_handlers(sl)
    handlers[f"{sl.name}:rng_bcast"] = _make_bcast(sl)
    return handlers


def _make_bcast(sl: SkipListStructure):
    def h_range_bcast(ctx, lkey, bound, func, farg, opid, tag=None):
        u = sl.upper_descend(lkey, ctx.charge)
        cur = u.next_leaf[ctx.mid] if u.next_leaf is not None else None
        while cur is not None and cur.key <= lkey:
            # local successor search: first local leaf strictly past lkey
            # (lkey is a JustBelow for inclusive bounds, so `<=` is the
            # "not yet in range" test in both cases).
            cur = cur.local_right
            ctx.charge(1)
        hits = 0
        values = []
        while cur is not None and bound.admits(cur.key):
            ctx.charge(1)
            ctx.touch(cur.nid)
            out = _apply_func(cur, func, farg)
            if out is not None:
                values.append((cur.key, out))
            hits += 1
            cur = cur.local_right
        ctx.reply(("bcast", opid, ctx.mid, hits, values),
                  size=max(1, len(values)), tag=tag)

    return h_range_bcast


def _broadcast_route(sl, lkey, rkey, func, farg, inclusive):
    cpu = sl.machine.cpu
    lq = JustBelow(lkey) if inclusive[0] else lkey
    bound = Bound(rkey, inclusive[1])
    replies = yield [Broadcast(f"{sl.name}:rng_bcast",
                               (lq, bound, func, farg, 0))]
    total = 0
    values: List[Tuple[Hashable, Any]] = []
    for r in replies:
        _, _, _, hits, vals = r.payload
        total += hits
        values.extend(vals)
    if values:
        values = parallel_sort(cpu, values, key=lambda kv: kv[0])
        cpu.alloc(len(values))
        cpu.free(len(values))
    return RangeResult(count=total, values=values)


def range_broadcast(sl: SkipListStructure, lkey: Hashable, rkey: Hashable,
                    func: str = "read", farg: Any = None,
                    inclusive: Tuple[bool, bool] = (True, True),
                    ) -> RangeResult:
    """Execute one range operation by broadcasting (Theorem 5.1)."""
    return run_batch(sl.machine, f"{sl.name}:range_broadcast",
                     _broadcast_route(sl, lkey, rkey, func, farg, inclusive))


# ---------------------------------------------------------------------------
# §5.2 tree execution: the three-pass fan-out traversal
# ---------------------------------------------------------------------------
#
# Per-(opid, token) traversal state lives in the owning module's
# ``ModuleLocal.range_ctx``.  Tokens: a tree node's token is its ``nid``;
# the per-operation root aggregator's token is the string "root".
#
# Tree shape: the root has one slot per lower level's boundary side chain
# plus one slot per in-range upper leaf's down chain (in ascending key
# order).  A chain node's children are its down chain ("d") and its
# sibling continuation ("s"); a count names its parent's child by that
# letter, or by the slot index when the parent is the root.

ROOT = "root"


class _NodeCtx:
    __slots__ = ("node", "parent_mid", "parent_token", "parent_tag", "func",
                 "farg", "pending", "count_d", "count_s", "self_count",
                 "child_d", "child_s")

    def __init__(self, node: Node, parent_mid: int, parent_token: Any,
                 parent_tag: Any, func: str, farg: Any) -> None:
        self.node = node
        self.parent_mid = parent_mid
        self.parent_token = parent_token
        self.parent_tag = parent_tag
        self.func = func
        self.farg = farg
        self.pending = 0
        self.count_d = 0
        self.count_s = 0
        self.self_count = 0
        self.child_d: Optional[Node] = None
        self.child_s: Optional[Node] = None


class _RootCtx:
    # Single-operation mode dispatches offsets as soon as counts settle;
    # batched mode waits for the CPU's per-group "go" (paper §5.2 step 4:
    # groups of Theta(P log^2 P) results execute in ascending order so
    # each fits the shared memory).
    __slots__ = ("pending", "slots", "counts", "want_offsets", "auto_offsets")

    def __init__(self, nslots: int, want_offsets: bool,
                 auto_offsets: bool) -> None:
        self.pending = nslots
        self.slots: List[Optional[Node]] = [None] * nslots
        self.counts = [0] * nslots
        self.want_offsets = want_offsets
        self.auto_offsets = auto_offsets


class _Out:
    """What row bodies emitted: reply payloads, forwarded rows ``(dest,
    args, None, 1)`` keyed by function, and the node ids they touched."""

    __slots__ = ("replies", "chain", "count", "offset", "boundary", "touched")

    def __init__(self) -> None:
        self.replies: list = []
        self.chain: list = []
        self.count: list = []
        self.offset: list = []
        self.boundary: list = []
        self.touched: list = []


def _tree_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    """The traversal's six functions, each a row body written once and
    registered as a scalar handler and as a chunk (batch) handler.

    A body ``(range_ctx, mid, args, out)`` runs one task on module
    ``mid`` and returns ``(work, sends)``: every task pays one unit (the
    root its upper-part descent and upper-leaf walk, a boundary step one
    unit a node), and every reply and forward is one message unit.  The
    contract of ``repro.sim.fastpath`` holds: state is keyed ``(opid,
    token)``, a count reaches a node the round after its chain task at
    the earliest and offsets go out only after every count has arrived,
    so no two tasks of one round touch the same state in an
    order-dependent way, and no body draws from the machine RNG.
    """
    name = sl.name
    h_low = sl.h_low
    fn_chain, fn_count, fn_offset, fn_boundary = (
        f"{name}:rng_{f}" for f in ("chain", "count", "offset", "boundary"))

    def spawn(out, mid, node, opid, parent_mid, parent_token, parent_tag,
              bound, func, farg):
        owner = node.owner
        out.chain.append((mid if owner == UPPER else owner,
                          (node, opid, parent_mid, parent_token, parent_tag,
                           bound, func, farg), None, 1))

    def report(out, opid, nctx) -> int:
        # The chain head rides along so the root learns where to send the
        # slot's offset (single-operation mode spawns boundary chains
        # without the root knowing their heads in advance).
        total = nctx.self_count + nctx.count_d + nctx.count_s
        out.count.append((nctx.parent_mid, (opid, nctx.parent_token,
                                             nctx.parent_tag, total,
                                             nctx.node), None, 1))
        return total

    def dispatch(out, mid, opid, root) -> int:
        offset = sent = 0
        rows = out.offset
        for node, count in zip(root.slots, root.counts):
            if node is not None and count > 0:
                owner = node.owner
                rows.append((mid if owner == UPPER else owner,
                             (opid, node.nid, offset), None, 1))
                sent += 1
            offset += count
        return sent

    def root_body(rc, mid, args, out):
        """Per-operation root aggregator.  ``sides``: precomputed boundary
        side-chain heads (batched mode, one per lower level, possibly
        None), or None for single-operation mode, where a boundary
        descent is spawned instead."""
        opid, lq, bound, func, farg, sides = args
        # Upper region: walk the replicated upper-leaf level for in-range
        # upper leaves; each spawns its down chain.
        u0, work = sl.upper_descend_steps(lq)
        uppers: List[Node] = []
        u = u0.right
        while u is not None and bound.admits(u.key):
            work += 1
            uppers.append(u)
            u = u.right
        root = _RootCtx(h_low + len(uppers), func != "count", sides is None)
        rc[(opid, ROOT)] = root
        sent = 0
        if sides is None:
            x = u0.down
            owner = x.owner
            out.boundary.append((mid if owner == UPPER else owner,
                                 (x, opid, mid, lq, bound, func, farg),
                                 None, 1))
            sent = 1
        else:
            for lvl, node in enumerate(sides):
                if node is None:
                    root.pending -= 1
                else:
                    root.slots[lvl] = node
                    spawn(out, mid, node, opid, mid, ROOT, lvl, bound, func,
                          farg)
                    sent += 1
        for slot, un in enumerate(uppers, h_low):
            if sides is not None and un.down is sides[-1]:
                # This tower reaches the upper part, so its top lower
                # node was just spawned as that level's side chain (the
                # CPU's snapshots cannot see it): same subtree, adjacent
                # position -- the slot stays empty.
                root.pending -= 1
                continue
            root.slots[slot] = un.down
            spawn(out, mid, un.down, opid, mid, ROOT, slot, bound, func,
                  farg)
            sent += 1
        if root.pending == 0:
            # Empty search area: nothing was spawned at all.
            out.replies.append(("total", opid, 0))
            sent += 1
            if root.auto_offsets or not root.want_offsets:
                del rc[(opid, ROOT)]
            # else: held (empty) until the CPU's per-group "go"
        return work, sent

    def boundary_body(rc, mid, args, out):
        """Boundary descent: walk to pred(lq) at this level, hand the side
        chain to the root's slot for this level, continue down."""
        x, opid, root_mid, lq, bound, func, farg = args
        work = 0
        touched = out.touched
        while True:
            work += 1
            touched.append(x.nid)
            nxt = x.right
            if nxt is None or not nxt.key <= lq:
                break
            if nxt.owner != UPPER and nxt.owner != mid:
                out.boundary.append((nxt.owner, (nxt, opid, root_mid, lq,
                                                 bound, func, farg), None, 1))
                return work, 1
            x = nxt
        # x = pred(lq) at x.level; its side chain starts at x.right.
        s = x.right
        lvl = x.level
        if s is not None and bound.admits(s.key) and s.up is None:
            spawn(out, mid, s, opid, root_mid, ROOT, lvl, bound, func, farg)
        else:
            # No chain at this level (either nothing in range here, or the
            # first in-range node has a tower and is covered above).
            out.count.append((root_mid, (opid, ROOT, lvl, 0, None), None, 1))
        if lvl == 0:
            return work, 1
        d = x.down
        owner = d.owner
        out.boundary.append((mid if owner == UPPER else owner,
                             (d, opid, root_mid, lq, bound, func, farg),
                             None, 1))
        return work, 2

    def chain_body(rc, mid, args, out):
        node, opid, parent_mid, parent_token, parent_tag, bound, func, \
            farg = args
        out.touched.append(node.nid)
        nctx = _NodeCtx(node, parent_mid, parent_token, parent_tag, func,
                        farg)
        if node.level == 0:
            nctx.self_count = 1
        else:
            nctx.child_d = node.down
            nctx.pending += 1
            spawn(out, mid, node.down, opid, mid, node.nid, "d", bound,
                  func, farg)
        s = node.right
        if s is not None and bound.admits(s.key) and s.up is None:
            nctx.child_s = s
            nctx.pending += 1
            spawn(out, mid, s, opid, mid, node.nid, "s", bound, func,
                  farg)
        if nctx.pending:
            rc[(opid, node.nid)] = nctx
            return 1, nctx.pending
        # A leaf with nothing to its right in range: its count is 1, and
        # count mode never runs the offset pass, so its state is kept
        # only for the offset to come.
        report(out, opid, nctx)
        if func != "count":
            rc[(opid, node.nid)] = nctx
        return 1, 1

    def count_body(rc, mid, args, out):
        opid, token, tag_slot, count, head = args
        if token == ROOT:
            root = rc[(opid, ROOT)]
            root.counts[tag_slot] = count
            if head is not None and root.slots[tag_slot] is None:
                root.slots[tag_slot] = head
            root.pending -= 1
            if root.pending:
                return 1, 0
            out.replies.append(("total", opid, sum(root.counts)))
            sent = 1
            if not root.want_offsets:
                del rc[(opid, ROOT)]
            elif root.auto_offsets:
                sent += dispatch(out, mid, opid, root)
                del rc[(opid, ROOT)]
            # else: hold the root until the CPU's per-group "go"
            return 1, sent
        nctx = rc[(opid, token)]
        if tag_slot == "d":
            nctx.count_d = count
        else:
            nctx.count_s = count
        nctx.pending -= 1
        if nctx.pending:
            return 1, 0
        if report(out, opid, nctx) == 0 or nctx.func == "count":
            # no offset pass will come; free the state now
            del rc[(opid, token)]
        return 1, 1

    def go_body(rc, mid, args, out):
        """Per-group trigger: release one held root's offset pass."""
        (opid,) = args
        return 1, dispatch(out, mid, opid, rc.pop((opid, ROOT)))

    def offset_body(rc, mid, args, out):
        opid, token, offset = args
        nctx = rc.pop((opid, token))
        sent = 0
        if nctx.self_count:
            node = nctx.node
            value = _apply_func(node, nctx.func, nctx.farg)
            if nctx.func in ("read", "fetch_and_add"):
                out.replies.append(("item", opid, node.key, value, offset))
                sent = 1
            offset += 1
        rows = out.offset
        for child, count in ((nctx.child_d, nctx.count_d),
                             (nctx.child_s, nctx.count_s)):
            if child is not None and count > 0:
                owner = child.owner
                rows.append((mid if owner == UPPER else owner,
                             (opid, child.nid, offset), None, 1))
                sent += 1
            offset += count
        return 1, sent

    def scalar(body):
        def handler(ctx, *args, tag=None):
            out = _Out()
            work, _sends = body(ctx.module.state[name].range_ctx, ctx.mid,
                                args, out)
            ctx.charge(work)
            for nid in out.touched:
                ctx.touch(nid)
            for payload in out.replies:
                ctx.reply(payload, tag=tag)
            # Chains before counts before boundaries: each body's own
            # forwards keep the order they were emitted in.
            for fn, rows in ((fn_chain, out.chain), (fn_count, out.count),
                             (fn_offset, out.offset),
                             (fn_boundary, out.boundary)):
                for dest, fargs, _tag, _size in rows:
                    ctx.forward(dest, fn, fargs)
        return handler

    def chunked(body):
        def batch(bct, chunks):
            modules = bct.machine.modules
            work, sent = bct.work, bct.sent
            rep_append = bct.replies.append
            out = _Out()
            replies = out.replies
            for ch in chunks:
                for mid, args, tag, _size in bct.rows_of(ch):
                    w, s = body(modules[mid].state[name].range_ctx, mid,
                                args, out)
                    work[mid] += w
                    sent[mid] += s
                    if replies:
                        for payload in replies:
                            rep_append(Reply(payload, tag, mid))
                        replies.clear()
            for fn, rows in ((fn_chain, out.chain), (fn_count, out.count),
                             (fn_offset, out.offset),
                             (fn_boundary, out.boundary)):
                if rows:
                    bct.stage_rows(fn, rows)
        return batch

    handlers = {}
    for fn, body in (("root", root_body), ("boundary", boundary_body),
                     ("chain", chain_body), ("count", count_body),
                     ("go", go_body), ("offset", offset_body)):
        handlers[f"{name}:rng_{fn}"] = scalar(body)
        sl.machine.register_batch(f"{name}:rng_{fn}", chunked(body))
    return handlers


# ---------------------------------------------------------------------------
# general CPU-side functions (§5's "more complicated operations")
# ---------------------------------------------------------------------------


def apply_range_cpu(sl: SkipListStructure, lkey: Hashable, rkey: Hashable,
                    fn, use_broadcast: Optional[bool] = None,
                    ) -> RangeResult:
    """RangeOperation with an arbitrary CPU-side function.

    The paper: "More complicated operations can be split into a range
    query returning the values, a function applied on the CPU side, and
    a range update that writes back the results."  This helper performs
    exactly that split: one range read (broadcast for large ranges, tree
    otherwise -- or forced via ``use_broadcast``), a CPU application of
    ``fn(key, value) -> new_value`` (charged O(1) work per pair, O(log K)
    depth), and one batched Update writing the results back through the
    hash shortcut.

    Returns the *old* values (like ``fetch_and_add`` does).
    """
    from repro.core import ops_point

    machine = sl.machine
    if use_broadcast is None:
        probe = range_broadcast(sl, lkey, rkey, func="count")
        use_broadcast = probe.count > sl.min_point_batch
    if use_broadcast:
        res = range_broadcast(sl, lkey, rkey, func="read")
    else:
        res = range_tree_single(sl, lkey, rkey, func="read")
    k = len(res.values)
    with machine.cpu.region(2 * k):
        updates = [(key, fn(key, value)) for key, value in res.values]
        machine.cpu.charge(k, max(1.0, math.log2(k + 1)))
        if updates:
            ops_point.batch_update(sl, updates)
    return res


# ---------------------------------------------------------------------------
# hybrid routing (§5.2's closing remark)
# ---------------------------------------------------------------------------


def batch_range_auto(sl: SkipListStructure,
                     ops: Sequence[Tuple[Hashable, Hashable]],
                     func: str = "read", farg: Any = None,
                     large_threshold: Optional[int] = None,
                     ) -> List[RangeResult]:
    """Route each range op to its cheaper execution.

    The paper's §5.2 notes that instead of splitting very large
    subranges across shared-memory groups, "we could apply the algorithm
    from §5.1 [broadcast] to all large ranges."  This wrapper does that
    per *operation*: ops expected to cover more than ``large_threshold``
    pairs run as broadcasts (O(1) IO + O(K/P) returns), the rest run
    through the batched tree execution.

    The expected size of each op is estimated with one cheap counting
    pass (a count-mode tree batch costs no value traffic); the threshold
    defaults to the measured tree-vs-broadcast crossover ``~P·log P``.
    """
    machine = sl.machine
    n = len(ops)
    if n == 0:
        return []
    if func in ("set", "fetch_and_add"):
        _require_disjoint(ops)
    threshold = large_threshold if large_threshold is not None \
        else sl.min_point_batch
    counts = batch_range_tree(sl, ops, func="count")
    large_idx = [i for i, c in enumerate(counts) if c.count > threshold]
    small_idx = [i for i, c in enumerate(counts) if c.count <= threshold]
    results: List[Optional[RangeResult]] = [None] * n
    if func == "count":
        return counts
    if small_idx:
        small_ops = [ops[i] for i in small_idx]
        for i, res in zip(small_idx, batch_range_tree(sl, small_ops,
                                                      func, farg)):
            results[i] = res
    for i in large_idx:
        l, r = ops[i]
        results[i] = range_broadcast(sl, l, r, func, farg)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# public tree-mode entry points
# ---------------------------------------------------------------------------


def _next_opids(sl: SkipListStructure, count: int) -> int:
    """Reserve ``count`` structure-unique operation ids.

    Traversal state is keyed (opid, node id) in the modules; reusing
    opids across batches would make a later spawn look like a duplicate
    of a finished one.
    """
    base = getattr(sl, "_range_op_seq", 0)
    sl._range_op_seq = base + count
    return base


def _tree_single_route(sl, lkey, rkey, func, farg, inclusive):
    lq = JustBelow(lkey) if inclusive[0] else lkey
    bound = Bound(rkey, inclusive[1])
    opid = _next_opids(sl, 1)
    try:
        replies = yield [(sl.machine.random_module(), f"{sl.name}:rng_root",
                          (opid, lq, bound, func, farg, None), None)]
    except BaseException:
        _drop_traversals(sl, opid, opid + 1)
        raise
    return _collect_one(sl, replies, opid=opid)


def _drop_traversals(sl: SkipListStructure, first: int, stop: int) -> None:
    """Forget the traversal state of opids ``[first, stop)`` on every
    module: an op that ends in an exception (a crashed module, a delivery
    timeout) never runs the passes that would release it.  Uncharged host
    bookkeeping, like ``repro.ops.pipeline`` dropping a rejected stage."""
    for module in sl.machine.modules:
        ml = module.state.get(sl.name)
        if ml is not None:  # a wiped module holds nothing
            rc = ml.range_ctx
            for key in [key for key in rc if first <= key[0] < stop]:
                del rc[key]


def range_tree_single(sl: SkipListStructure, lkey: Hashable, rkey: Hashable,
                      func: str = "read", farg: Any = None,
                      inclusive: Tuple[bool, bool] = (True, True),
                      ) -> RangeResult:
    """One range operation by the naive tree search (paper §5.2)."""
    return run_batch(sl.machine, f"{sl.name}:range_tree_single",
                     _tree_single_route(sl, lkey, rkey, func, farg,
                                        inclusive))


def _collect_one(sl: SkipListStructure, replies, opid: Any) -> RangeResult:
    cpu = sl.machine.cpu
    total = 0
    items: List[Tuple[int, Hashable, Any]] = []
    for r in replies:
        payload = r.payload
        if payload[0] == "total" and payload[1] == opid:
            total = payload[2]
        elif payload[0] == "item" and payload[1] == opid:
            _, _, key, value, idx = payload
            items.append((idx, key, value))
    items.sort()
    cpu.charge(len(items) + 1, max(1.0, math.log2(len(items) + 2)))
    return RangeResult(count=total,
                       values=[(k, v) for _, k, v in items])


def _require_disjoint(ops: Sequence[Tuple[Hashable, Hashable]]) -> None:
    """Mutating functions are applied once per covered key; overlapping
    ops would make the multiplicity (and, for set, the order) ill-defined."""
    spans = sorted(ops)
    for (_l1, r1), (l2, _r2) in zip(spans, spans[1:]):
        if l2 <= r1:
            raise ValueError(
                "batched mutating range operations must be disjoint")


def _cut_pieces(ops: Sequence[Tuple[Hashable, Hashable]],
                ) -> Tuple[List[Tuple[Any, Bound]], List[Tuple[int, int]]]:
    """§5.2's disjoint subranges: cut where the set of covering ops changes.

    A cut ``(k, 0)`` sits just below every left key and ``(k, 1)`` just
    above every right key; consecutive cuts bound a piece, kept iff some
    op covers it.  Returns the kept pieces -- ascending, disjoint, at
    most 2n - 1, exactly n for pairwise-disjoint ops -- as ``(search key,
    right bound)``, and per op the ``(first, stop)`` run that tiles it.
    """
    delta: Counter = Counter()
    for l, r in ops:
        delta[(l, 0)] += 1
        delta[(r, 1)] -= 1
    cuts = sorted(delta)
    pieces: List[Tuple[Any, Bound]] = []
    below: Dict[Tuple[Hashable, int], int] = {}  # cut -> pieces kept below it
    open_ops = 0
    for i, cut in enumerate(cuts):
        below[cut] = len(pieces)
        open_ops += delta[cut]
        if open_ops:  # never at the last cut: it closes every op
            (k, above), (k2, above2) = cut, cuts[i + 1]
            pieces.append((k if above else JustBelow(k),
                           Bound(k2, bool(above2))))
    return pieces, [(below[(l, 0)], below[(r, 1)]) for l, r in ops]


def _tree_route(sl, ops, func, farg):
    """The batched tree range's route; returns the per-op results."""
    machine = sl.machine
    cpu = machine.cpu
    n = len(ops)
    if n == 0:
        return []
    for l, r in ops:
        if r < l:
            raise ValueError("range with rkey < lkey")
    if func in ("set", "fetch_and_add"):
        _require_disjoint(ops)

    # -- split into disjoint subranges (paper §5.2 step 1) -----------
    subranges, spans = _cut_pieces(ops)
    cpu.charge_wd(WorkDepth(2 * n * max(1, int(math.log2(n + 1))),
                            max(1.0, math.log2(n + 1))))

    # -- boundary predecessors via the pivot-protected search --------
    lqs = [lq for lq, _ in subranges]
    levels = [sl.h_low - 1] * len(lqs)
    outcomes = batch_search(sl, lqs, record_all=True,
                            record_levels=levels)

    # -- launch one traversal per subrange ---------------------------
    # sides[lvl] is the level's in-range side-chain head (the recorded
    # predecessor's right neighbor).  When that node's tower continues
    # upward it is also reachable as a down-child from the level
    # above; the snapshot test below skips those, and the one case
    # snapshots cannot see (a tower reaching the upper part) is
    # resolved by the root handler, which leaves that upper leaf's
    # slot empty -- the two candidate positions are adjacent in the
    # traversal order, so either is valid.
    base = _next_opids(sl, len(subranges))
    fn_root = f"{sl.name}:rng_root"
    root_module: Dict[int, int] = {}
    launch_msgs: List[tuple] = []
    for sid, ((lq, bound), outcome) in enumerate(zip(subranges,
                                                     outcomes)):
        sides: List[Optional[Node]] = [None] * sl.h_low
        by_level = outcome.by_level or {}
        for lvl in range(sl.h_low):
            entry = by_level.get(lvl)
            if entry is None:
                continue
            _, right = entry
            if right is None or not bound.admits(right.key):
                continue
            above = by_level.get(lvl + 1)
            if above is not None and above[1] is not None \
                    and above[1].key == right.key:
                continue  # covered by the level above (same tower)
            sides[lvl] = right
        dest = machine.random_module()
        root_module[sid] = dest
        launch_msgs.append(
            (dest, fn_root, (base + sid, lq, bound, func, farg, sides), None,
             max(1, sum(1 for s in sides if s is not None))))
    cpu.charge_wd(WorkDepth(len(subranges) * sl.h_low,
                            max(1.0, math.log2(len(subranges) + 1))))

    try:
        totals, items = yield from _passes(sl, base, launch_msgs,
                                           root_module, func)
    except BaseException:
        _drop_traversals(sl, base, base + len(subranges))
        raise

    # -- assemble per-op results -------------------------------------
    # Pieces never straddle a cut, so op [l, r] is exactly the
    # contiguous run of pieces between the cut below l and the cut
    # above r, in ascending key order: concatenation preserves range
    # order.
    sorted_items = {sid: sorted(got) for sid, got in items.items()}
    results: List[RangeResult] = []
    work = 0
    for first, stop in spans:
        total = 0
        vals: List[Tuple[Hashable, Any]] = []
        for sid in range(first, stop):
            total += totals.get(sid, 0)
            got = sorted_items.get(sid, ())
            vals.extend((k, v) for _, k, v in got)
            work += len(got) + 1
        results.append(RangeResult(count=total, values=vals))
    cpu.charge_wd(WorkDepth(work + n, max(1.0, math.log2(work + n + 1))))
    return results


def _passes(sl, base, launch_msgs, root_module, func):
    """The launched traversals' count pass, then their fetch pass in
    shared-memory groups; returns ``(totals, items)`` by piece."""
    machine = sl.machine
    cpu = machine.cpu
    # -- count pass: traversal + subtree counts, no result traffic ---
    totals: Dict[int, int] = {}
    items: Dict[int, List[Tuple[int, Hashable, Any]]] = {}
    replies = yield launch_msgs
    for r in replies:
        payload = r.payload
        if payload[0] == "total":
            totals[payload[1] - base] = payload[2]

    # -- fetch pass, in shared-memory groups (paper §5.2 step 4) -----
    # Subranges are ascending; the prefix sums of their sizes
    # partition them into groups of at most half of M result words
    # (the other half is headroom for the batch's standing
    # allocations).  Each group's offset passes are released
    # together, its results consumed, and its footprint freed before
    # the next group starts.
    if func != "count":
        group_words = max(1, machine.cpu.shared_memory_words // 2)
        group: List[int] = []
        group_mass = 0

        fn_go = f"{sl.name}:rng_go"

        def run_group(g: List[int], mass: int):
            msgs = [(root_module[sid], fn_go, (base + sid,), None)
                    for sid in g]
            with cpu.region(max(1, mass)):
                group_replies = yield msgs
                for r in group_replies:
                    payload = r.payload
                    if payload[0] == "item":
                        _, opid, key, value, idx = payload
                        items.setdefault(opid - base, []).append(
                            (idx, key, value))

        for sid in range(len(launch_msgs)):
            mass = totals.get(sid, 0)
            if group and group_mass + mass > group_words:
                yield from run_group(group, group_mass)
                group, group_mass = [], 0
            group.append(sid)
            group_mass += mass
        if group:
            yield from run_group(group, group_mass)

    return totals, items


def batch_range_tree(sl: SkipListStructure,
                     ops: Sequence[Tuple[Hashable, Hashable]],
                     func: str = "read", farg: Any = None,
                     ) -> List[RangeResult]:
    """Batched tree-structured range operations (Theorem 5.2).

    ``ops`` are inclusive ``[lkey, rkey]`` pairs; results align with the
    input.  The batch is cut into disjoint ascending subranges
    (:func:`_cut_pieces`), their boundary predecessors come from one
    pivot-protected batched search, and each subrange runs the fan-out
    traversal; results are assembled per operation on the CPU side.
    """
    return run_batch(sl.machine, f"{sl.name}:batch_range_tree",
                     _tree_route(sl, ops, func, farg))
