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

from repro.core.node import NEG_INF, Node, UPPER
from repro.core.ops_successor import (batch_search, batch_successor,
                                       search_stages)
from repro.core.structure import SkipListStructure
from repro.cpuside.sort import parallel_sort
from repro.ops import Broadcast, run_batch
from repro.sim.cpu import WorkDepth

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
    handlers = {
        f"{sl.name}:rng_bcast": _make_bcast(sl),
        f"{sl.name}:rng_root": _make_root(sl),
        f"{sl.name}:rng_boundary": _make_boundary(sl),
        f"{sl.name}:rng_chain": _make_chain(sl),
        f"{sl.name}:rng_count": _make_count(sl),
        f"{sl.name}:rng_offset": _make_offset(sl),
        f"{sl.name}:rng_go": _make_go(sl),
    }
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
# sibling continuation ("s").


@dataclass
class _NodeCtx:
    node: Node
    parent_mid: int
    parent_token: Any
    parent_tag: Any
    func: str
    farg: Any
    pending: int = 0
    count_d: int = 0
    count_s: int = 0
    self_count: int = 0
    child_d: Optional[Node] = None
    child_s: Optional[Node] = None


@dataclass
class _RootCtx:
    func: str
    farg: Any
    pending: int = 0
    slots: List[Optional[Node]] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    want_offsets: bool = True
    # Single-operation mode dispatches offsets as soon as counts settle;
    # batched mode waits for the CPU's per-group "go" (paper §5.2 step 4:
    # groups of Theta(P log^2 P) results execute in ascending order so
    # each fits the shared memory).
    auto_offsets: bool = True


def _owner_or_here(ctx, node: Node) -> int:
    return node.owner if node.owner != UPPER else ctx.mid


def _spawn_chain(ctx, sl: SkipListStructure, node: Node, opid: Any,
                 parent_mid: int, parent_token: Any, parent_tag: Any,
                 bound: Bound, func: str, farg: Any) -> None:
    ctx.forward(_owner_or_here(ctx, node), f"{sl.name}:rng_chain",
                (node, opid, parent_mid, parent_token, parent_tag, bound,
                 func, farg))


def _make_root(sl: SkipListStructure):
    def h_rng_root(ctx, opid, lq, bound, func, farg, sides, tag=None):
        """Per-operation root aggregator.

        ``sides``: precomputed boundary side-chain heads (batched mode,
        one per lower level, possibly None), or None for single-operation
        mode where a boundary descent is spawned instead.
        """
        ml = sl.mlocal(ctx.mid)
        root = _RootCtx(func=func, farg=farg, auto_offsets=sides is None)
        # Upper region: walk the replicated upper-leaf level for in-range
        # upper leaves; each spawns its down chain.
        u0 = sl.upper_descend(lq, ctx.charge)
        uppers: List[Node] = []
        u = u0.right
        while u is not None and bound.admits(u.key):
            ctx.charge(1)
            uppers.append(u)
            u = u.right
        nslots = sl.h_low + len(uppers)
        root.slots = [None] * nslots
        root.counts = [0] * nslots
        root.pending = nslots
        root.want_offsets = func != "count"
        ml.range_ctx[(opid, "root")] = root

        if sides is None:
            # Single-operation mode: spawn the boundary descent; it will
            # report one count (possibly via a spawned chain) per level.
            x = u0.down
            ctx.forward(_owner_or_here(ctx, x), f"{sl.name}:rng_boundary",
                        (x, opid, ctx.mid, lq, bound, func, farg))
        else:
            for lvl, node in enumerate(sides):
                if node is None:
                    root.pending -= 1
                else:
                    root.slots[lvl] = node
                    _spawn_chain(ctx, sl, node, opid, ctx.mid, "root",
                                 ("slot", lvl), bound, func, farg)
        for j, un in enumerate(uppers):
            slot = sl.h_low + j
            if sides is not None and un.down is sides[-1]:
                # This tower reaches the upper part, so its top lower
                # node was just spawned as that level's side chain (the
                # CPU's snapshots cannot see it): same subtree, adjacent
                # position -- the slot stays empty.
                root.pending -= 1
                continue
            root.slots[slot] = un.down
            _spawn_chain(ctx, sl, un.down, opid, ctx.mid, "root",
                         ("slot", slot), bound, func, farg)
        if root.pending == 0:
            # Empty search area: nothing was spawned at all.
            ctx.reply(("total", opid, 0), tag=tag)
            if root.auto_offsets or not root.want_offsets:
                del ml.range_ctx[(opid, "root")]
            # else: held (empty) until the CPU's per-group "go"

    return h_rng_root


def _make_boundary(sl: SkipListStructure):
    def h_rng_boundary(ctx, node, opid, root_mid, lq, bound, func, farg,
                       tag=None):
        """Boundary descent: walk to pred(lq) at this level, hand the side
        chain to the root's slot for this level, continue down."""
        x = node
        while True:
            ctx.charge(1)
            ctx.touch(x.nid)
            if x.right is not None and x.right.key <= lq:
                nxt = x.right
                if nxt.owner == UPPER or nxt.owner == ctx.mid:
                    x = nxt
                    continue
                ctx.forward(nxt.owner, f"{sl.name}:rng_boundary",
                            (nxt, opid, root_mid, lq, bound, func, farg))
                return
            break
        # x = pred(lq) at x.level; its side chain starts at x.right.
        s = x.right
        lvl = x.level
        if (s is not None and bound.admits(s.key)
                and s.up is None):
            _spawn_chain(ctx, sl, s, opid, root_mid, "root", ("slot", lvl),
                         bound, func, farg)
        else:
            # No chain at this level (either nothing in range here, or the
            # first in-range node has a tower and is covered above).
            ctx.forward(root_mid, f"{sl.name}:rng_count",
                        (opid, "root", ("slot", lvl), 0))
        if lvl > 0:
            d = x.down
            if d.owner == UPPER or d.owner == ctx.mid:
                # continue locally by re-entering the handler logic
                ctx.forward(ctx.mid, f"{sl.name}:rng_boundary",
                            (d, opid, root_mid, lq, bound, func, farg))
            else:
                ctx.forward(d.owner, f"{sl.name}:rng_boundary",
                            (d, opid, root_mid, lq, bound, func, farg))

    return h_rng_boundary


def _make_chain(sl: SkipListStructure):
    def h_rng_chain(ctx, node, opid, parent_mid, parent_token, parent_tag,
                    bound, func, farg, tag=None):
        ml = sl.mlocal(ctx.mid)
        ctx.charge(1)
        ctx.touch(node.nid)
        nctx = _NodeCtx(node=node, parent_mid=parent_mid,
                        parent_token=parent_token, parent_tag=parent_tag,
                        func=func, farg=farg)
        if node.level == 0:
            nctx.self_count = 1
        else:
            nctx.child_d = node.down
            nctx.pending += 1
        s = node.right
        if s is not None and bound.admits(s.key) and s.up is None:
            nctx.child_s = s
            nctx.pending += 1
        ml.range_ctx[(opid, node.nid)] = nctx
        if nctx.child_d is not None:
            _spawn_chain(ctx, sl, nctx.child_d, opid, ctx.mid, node.nid,
                         "d", bound, func, farg)
        if nctx.child_s is not None:
            _spawn_chain(ctx, sl, nctx.child_s, opid, ctx.mid, node.nid,
                         "s", bound, func, farg)
        if nctx.pending == 0:
            total = _report_count(ctx, sl, opid, nctx)
            if func == "count" or total == 0:
                # count mode never runs the offset pass; a zero-count
                # subtree never receives an offset either -- release the
                # state now or it would leak into later operations.
                del ml.range_ctx[(opid, node.nid)]

    return h_rng_chain


def _report_count(ctx, sl: SkipListStructure, opid: Any, nctx: _NodeCtx,
                  ) -> int:
    total = nctx.self_count + nctx.count_d + nctx.count_s
    # The chain head rides along so the root learns where to send the
    # slot's offset (single-operation mode spawns boundary chains without
    # the root knowing their heads in advance).
    ctx.forward(nctx.parent_mid, f"{sl.name}:rng_count",
                (opid, nctx.parent_token, nctx.parent_tag, total, nctx.node))
    return total


def _make_count(sl: SkipListStructure):
    def h_rng_count(ctx, opid, token, tag_slot, count, head=None, tag=None):
        ml = sl.mlocal(ctx.mid)
        ctx.charge(1)
        if token == "root":
            root: _RootCtx = ml.range_ctx[(opid, "root")]
            _, slot = tag_slot
            root.counts[slot] = count
            if head is not None and root.slots[slot] is None:
                root.slots[slot] = head
            root.pending -= 1
            if root.pending == 0:
                total = sum(root.counts)
                ctx.reply(("total", opid, total), size=1)
                if not root.want_offsets:
                    del ml.range_ctx[(opid, "root")]
                elif root.auto_offsets:
                    _dispatch_offsets(ctx, sl, opid, root)
                    del ml.range_ctx[(opid, "root")]
                # else: hold the root until the CPU's per-group "go"
        else:
            nctx: _NodeCtx = ml.range_ctx[(opid, token)]
            if tag_slot == "d":
                nctx.count_d = count
            else:
                nctx.count_s = count
            nctx.pending -= 1
            if nctx.pending == 0:
                total = _report_count(ctx, sl, opid, nctx)
                if nctx.func == "count" or total == 0:
                    # no offset pass will come; free the state now
                    del ml.range_ctx[(opid, token)]

    return h_rng_count


def _dispatch_offsets(ctx, sl: SkipListStructure, opid: Any,
                      root: _RootCtx) -> None:
    offset = 0
    for slot, node in enumerate(root.slots):
        if node is not None and root.counts[slot] > 0:
            ctx.forward(_owner_or_here(ctx, node), f"{sl.name}:rng_offset",
                        (opid, node.nid, offset))
        offset += root.counts[slot]


def _make_go(sl: SkipListStructure):
    def h_rng_go(ctx, opid, tag=None):
        """Per-group trigger: release one held root's offset pass."""
        ml = sl.mlocal(ctx.mid)
        ctx.charge(1)
        root: _RootCtx = ml.range_ctx.pop((opid, "root"))
        _dispatch_offsets(ctx, sl, opid, root)

    return h_rng_go


def _make_offset(sl: SkipListStructure):
    def h_rng_offset(ctx, opid, token, offset, tag=None):
        ml = sl.mlocal(ctx.mid)
        ctx.charge(1)
        nctx: _NodeCtx = ml.range_ctx.pop((opid, token))
        node = nctx.node
        after_self = offset
        if nctx.self_count:
            value = _apply_func(node, nctx.func, nctx.farg)
            if nctx.func in ("read", "fetch_and_add"):
                ctx.reply(("item", opid, node.key, value, offset), size=1)
            after_self = offset + 1
        if nctx.child_d is not None and nctx.count_d > 0:
            ctx.forward(_owner_or_here(ctx, nctx.child_d),
                        f"{sl.name}:rng_offset",
                        (opid, nctx.child_d.nid, after_self))
        if nctx.child_s is not None and nctx.count_s > 0:
            ctx.forward(_owner_or_here(ctx, nctx.child_s),
                        f"{sl.name}:rng_offset",
                        (opid, nctx.child_s.nid,
                         after_self + nctx.count_d))

    return h_rng_offset


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
    replies = yield [(sl.machine.random_module(), f"{sl.name}:rng_root",
                      (opid, lq, bound, func, farg, None), None)]
    return _collect_one(sl, replies, opid=opid)


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


def _tree_route(sl, ops, func, farg, riders=()):
    """The batched tree range; returns ``(results, rider answers)``.

    ``riders`` are Successor keys that share the batch's boundary search:
    they join the pieces' search keys with a record limit of ``-1``, so
    the one pivot-protected ``batch_search`` resolves both and a rider
    streams nothing back but its ``pred`` / ``pred_right``.  With no
    riders the op is the range batch alone, message for message.
    """
    machine = sl.machine
    cpu = machine.cpu
    n = len(ops)
    if n == 0:
        return [], batch_successor(sl, riders) if riders else []
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
    successors: List[Optional[Tuple[Hashable, Any]]] = []
    riding = bool(riders) and _rides(sl, len(lqs), len(riders))
    if riding:
        lqs.extend(riders)
        levels.extend([-1] * len(riders))
    elif riders:
        successors = batch_successor(sl, riders)
    outcomes = batch_search(sl, lqs, record_all=True,
                            record_levels=levels)
    if riding:
        successors = _successors(cpu, riders, outcomes[len(subranges):])

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
            (dest, f"{sl.name}:rng_root",
             (base + sid, lq, bound, func, farg, sides), None,
             max(1, sum(1 for s in sides if s is not None))))
    cpu.charge_wd(WorkDepth(len(subranges) * sl.h_low,
                            max(1.0, math.log2(len(subranges) + 1))))

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

        def run_group(g: List[int], mass: int):
            msgs = [(root_module[sid], f"{sl.name}:rng_go",
                     (base + sid,), None) for sid in g]
            with cpu.region(max(1, mass)):
                group_replies = yield msgs
                for r in group_replies:
                    payload = r.payload
                    if payload[0] == "item":
                        _, opid, key, value, idx = payload
                        items.setdefault(opid - base, []).append(
                            (idx, key, value))

        for sid in range(len(subranges)):
            mass = totals.get(sid, 0)
            if group and group_mass + mass > group_words:
                yield from run_group(group, group_mass)
                group, group_mass = [], 0
            group.append(sid)
            group_mass += mass
        if group:
            yield from run_group(group, group_mass)

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
    return results, successors


def _rides(sl: SkipListStructure, pieces: int, riders: int) -> bool:
    """Whether ``riders`` Successor keys join the boundary search of
    ``pieces`` subranges, or run as the Successor batch they are first.

    Every stage of the recording search is a root-to-leaf walk, while a
    Successor batch of its own pays one such walk and then starts from
    hints.  So the keys ride when they cost the joint search no stage --
    or one, if their own search would have run a second -- and a batch
    that would push the pieces past ``P log P`` onto a narrower pivot
    spacing, or add pivots by the power of two, stays apart.
    """
    own, joint, theirs = (search_stages(sl, b)
                          for b in (pieces, pieces + riders, riders))
    return joint - own <= min(1, theirs - 1)


def _successors(cpu, keys: Sequence[Hashable], outcomes: Sequence[Any],
                ) -> List[Optional[Tuple[Hashable, Any]]]:
    """Successor answers read off search outcomes, as
    :func:`~repro.core.ops_successor.batch_successor` reads them (and
    charges the CPU side for it)."""
    out: List[Optional[Tuple[Hashable, Any]]] = []
    for key, outcome in zip(keys, outcomes):
        node, right = outcome.pred, outcome.pred_right
        if node.key == key and node.key is not NEG_INF:
            out.append((node.key, node.value))
        else:
            out.append(None if right is None else (right.key, right.value))
    cpu.charge(len(keys), 8)
    return out


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
                     _tree_route(sl, ops, func, farg))[0]


def batch_range_with_successors(
        sl: SkipListStructure, ops: Sequence[Tuple[Hashable, Hashable]],
        keys: Sequence[Hashable],
        ) -> Tuple[List[RangeResult], List[Optional[Tuple[Hashable, Any]]]]:
    """A ``read`` range batch and a Successor batch on one boundary
    search (see :func:`_tree_route`): ``(range results, successor
    answers)``, each aligned with its input."""
    return run_batch(sl.machine, f"{sl.name}:batch_range_tree",
                     _tree_route(sl, ops, "read", None, keys))
