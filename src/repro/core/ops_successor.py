"""Batched Successor/Predecessor: the two-stage pivot algorithm (§4.2).

Naively batching ``P log^2 P`` searches is *not* PIM-balanced: an
adversary can pick distinct keys that all share one successor, so every
search path funnels into the same lower-part nodes and one module
serializes the whole batch.  The paper's fix:

**Stage 1 (pivots).**  Sort the batch, pick ``P log P`` pivots (every
``log P``-th operation) plus the extremes, and resolve the pivots by
divide and conquer: phase 0 searches the smallest and largest pivots from
the root, recording their lower-part paths; each later phase searches the
median pivot of every remaining segment, starting from the lowest common
lower-part node (LCA) of the segment endpoints' recorded paths -- or
directly returns the shared leaf, or starts at the root when the paths
share nothing.  Lemma 4.2: because the executed pivots' paths cut the
search-path tree into disjoint pieces, no node is accessed more than 3
times per phase, so each phase is an ``O(log P)``-contention-free round
set.

**Stage 2 (the rest).**  Every remaining operation starts from the hint
derived from its two surrounding pivots' saved paths.  Between adjacent
pivots sit only ``log P`` operations, so per-node contention is
``O(log P)`` and Lemma 2.2 (weighted balls in bins) gives ``O(log^2 P)``
IO time whp for the stage.

Bounds (Theorem 4.3): ``O(log^3 P)`` IO time, ``O(log^2 P log n)`` PIM
time, ``O(P log^3 P)`` expected CPU work, ``O(log^2 P)`` CPU depth, and
``Theta(P log^2 P)`` shared memory, all whp in ``P``.

**Narrow batches.**  The above is stated for ``P log^2 P`` operations.
A batch of at most ``P log P`` -- what ``repro serve`` sends -- would
run the same ``log(P log P)`` root-to-leaf phases for a handful of
pivots, so it spaces its pivots ``log^2 P`` apart instead: fewer
phases, at most ``log^2 P`` operations per segment (``O(log^3 P)`` IO
for a hot one).  Between the two widths the spacing is
``ceil(P log^3 P / b)`` (:func:`pivot_spacing`), so the pivot count and
the phases grow with the width without a jump: a batch must cost no
more than its two halves run back to back.  Up to ``P log P`` keys
phase 0 also searches the median pivot from the root: three root
walks are Lemma 4.2's budget of 3 accesses per node, and the divide
and conquer starts from two halves, one phase fewer.  Everything else
is unchanged; DESIGN.md §17 has the argument and the alternatives.

The whole two-stage algorithm is one route (:mod:`repro.ops`): each
divide-and-conquer phase (and stage 2) is one stage whose messages are
:func:`repro.core.ops_search.search_message`'s, run by the search walk
handlers.

**How the host runs the CPU side.**  The charges above are formulas of
the batch (sort ``B log B``; every op pays for scanning both bounding
paths; one unit per launched op), so the route is free to do the work
without a Python frame per key.  Its state is a set of columns indexed
by *sorted position* -- ``pred``, ``pred_right``, ``by_level``,
``paths`` -- not a dict and an object per op.  A recording stage's
replies are folded in one pass (an op's ``by_level`` is the last entry
per level of the path just collected); a segment's hint is derived once
and, in the record-free stage 2 that launches most of a Successor batch,
its messages are built in the same loop.  Two things are pinned while
the execution changes (``tests/test_search_spec.py`` holds the PR-19
route as the executable spec): the charges, call for call, and the
order in which messages are built -- a root start (and a start on a
replicated sentinel) draws its entry module from the machine's RNG at
build time, so ops are launched in ascending sorted position within
each stage.  :func:`batch_successor` / :func:`batch_predecessor` read
the columns directly; :func:`batch_search` wraps them in
:class:`SearchOutcome` objects, once, for the callers that record
(``ops_upsert``, ``ops_range``).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.node import NEG_INF, UPPER, Node
from repro.core.ops_search import search_message
from repro.core.structure import SkipListStructure
from repro.cpuside.sort import sort_positions
from repro.ops import run_batch
from repro.sim.cpu import WorkDepth

PathEntry = Tuple[Node, int, Optional[Node]]  # (node, level, right snapshot)
LevelEntry = Tuple[Node, Optional[Node]]      # (node, right snapshot)


class SearchOutcome:
    """Result of one search: the predecessor leaf and path information.

    ``pred`` is the leaf with the largest key <= the searched key (the
    level-0 sentinel if the key precedes everything); ``pred_right`` is
    the snapshot of ``pred.right`` when the search completed.  ``by_level``
    (only when recording) maps each lower level to the last node the
    search visited there and that node's right snapshot -- exactly the
    per-level predecessors batched Insert needs.

    Slotted by hand: ``dataclass(slots=True)`` needs Python 3.10 and the
    package supports 3.9.
    """

    __slots__ = ("pred", "pred_right", "by_level")

    def __init__(self, pred: Node, pred_right: Optional[Node],
                 by_level: Optional[Dict[int, LevelEntry]] = None) -> None:
        self.pred = pred
        self.pred_right = pred_right
        self.by_level = by_level

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not SearchOutcome:
            return NotImplemented
        return (self.pred == other.pred
                and self.pred_right == other.pred_right
                and self.by_level == other.by_level)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SearchOutcome(pred={self.pred!r}, "
                f"pred_right={self.pred_right!r}, "
                f"by_level={self.by_level!r})")


Hint = Optional[Tuple[str, Any, Any]]  # ("leaf", leaf, right) | ("node", node, None)

_node_of = itemgetter(0)


def _lca_hint(path_a: Optional[List[PathEntry]],
              path_b: Optional[List[PathEntry]],
              min_level: int = 0,
              nodes_b: Optional[Set[Node]] = None) -> Hint:
    """Start hint from two recorded lower-part paths (paper, stage 1).

    Shared leaf -> the result itself; shared lower node -> the lowest such
    node; nothing shared (or a path missing) -> ``None`` = start at root.

    ``min_level`` (used by batched Insert) requires the hint node to sit
    at or above that level, so the hinted search still visits -- and hence
    records the per-level predecessor of -- every level the caller needs.
    Any node ``c`` on the *left* path is a valid start for the op
    (``c.key <= left pivot key <= op key``, and the right/down walk from
    ``c`` reaches the true predecessor at each level <= ``c.level``);
    picking the left path's lowest node at/above ``min_level`` keeps the
    elevated starts per-segment, so they contend only with their own
    segment's O(log P) operations rather than funneling the whole batch
    through a shared high node.
    """
    if not path_a or not path_b:
        return None
    if min_level > 0:
        # Path levels are non-increasing along the visit order, so the
        # reversed scan finds the lowest admissible node first.
        for node, lvl, _ in reversed(path_a):
            if lvl >= min_level:
                return ("node", node, None)
        return None
    leaf_a, lvl_a, right_a = path_a[-1]
    leaf_b = path_b[-1][0]
    if lvl_a == 0 and leaf_a is leaf_b:
        return ("leaf", leaf_a, right_a)
    if nodes_b is None:
        # Callers with many hints against the same right pivot pass the
        # pivot path's node set in (batch_search caches one per pivot).
        nodes_b = set(map(_node_of, path_b))
    # Nodes hash by identity; the scan runs without a frame per entry.
    node = next(filter(nodes_b.__contains__,
                       map(_node_of, reversed(path_a))), None)
    return None if node is None else ("node", node, None)


def pivot_spacing(sl: SkipListStructure, b: int) -> int:
    """Sorted positions between two pivots of a ``b``-key search
    (``b`` >= 1): ``max(log P, min(log^2 P, ceil(P log^3 P / b)))`` --
    ``log^2 P`` up to ``P log P`` keys, the paper's ``log P`` from its
    ``P log^2 P`` on, and no jump in the pivot count between (see the
    module docstring)."""
    log_p = sl.log_p
    return max(log_p, min(log_p * log_p,
                          -(-sl.num_modules * log_p ** 3 // b)))


def pivot_positions(sl: SkipListStructure, b: int) -> List[int]:
    """Sorted positions of the pivots of a ``b``-key search (``b`` >= 1):
    every :func:`pivot_spacing`-th key and the last."""
    piv_pos = list(range(0, b, pivot_spacing(sl, b)))
    if piv_pos[-1] != b - 1:
        piv_pos.append(b - 1)
    return piv_pos


def _median_at_root(sl: SkipListStructure, b: int, pivots: int) -> bool:
    """Whether phase 0 of a ``b``-key search with ``pivots`` pivots
    searches the median pivot from the root beside the two extremes:
    when the batch has at most ``P log P`` keys (its pivots sit
    ``log^2 P`` apart) and there is a median to search."""
    return pivots >= 3 and b <= sl.min_point_batch


def search_stages(sl: SkipListStructure, b: int) -> int:
    """Route stages a ``b``-key search runs one after the other
    (``b`` >= 1): phase 0 (the extreme pivots, and the median with
    them when :func:`_median_at_root`), ``ceil(log2(pivots - 1))``
    divide-and-conquer phases over the pivots between the extremes --
    one fewer when the median went first -- and stage 2 if any key is
    not a pivot.  A stage is a root-to-leaf walk in a recording search;
    in a record-free one only the first is."""
    pivots = len(pivot_positions(sl, b))
    return (1 + max(0, pivots - 2).bit_length()
            - _median_at_root(sl, b, pivots) + (b > pivots))


def rides(sl: SkipListStructure, own: int, riders: int) -> bool:
    """Whether ``riders`` Successor keys join the recording search of
    ``own`` keys (at record level -1), or run as the Successor batch
    they are first.

    Every stage of the recording search is a root-to-leaf walk, while a
    Successor batch of its own pays one such walk and then starts from
    hints.  So the keys ride when they cost the joint search no stage --
    or one, if their own search would have run a second -- and a batch
    that would push the search past ``P log P`` onto a narrower pivot
    spacing, or add pivots by the power of two, stays apart.
    """
    mine, joint, theirs = (search_stages(sl, b)
                           for b in (own, own + riders, riders))
    return joint - mine <= min(1, theirs - 1)


def _search_route(sl, keys, record_all, record_levels):
    """The two-stage pivot search's route.

    It keeps its state in lists indexed by *sorted position*
    (``order[pos]`` is the caller's index of the op at ``pos``) and
    returns them as columns ``(order, pred, pred_right, by_level)``:
    :func:`batch_successor` / :func:`batch_predecessor` read the columns,
    :func:`batch_search` wraps them in :class:`SearchOutcome` objects.
    """
    machine = sl.machine
    cpu = machine.cpu
    b = len(keys)
    if b == 0:
        return [], [], [], []
    h_cap = sl.h_low - 1

    # Sort the batch on the CPU side (O(B log B) expected, O(log B)
    # whp depth).
    order = sort_positions(cpu, keys)
    skeys = [keys[i] for i in order]
    # Per-op retention limit (record mode only).  Pivots always
    # record their *full* lower-part paths (the paper's stage 1
    # stores them as the shared hint pool), so in record mode a
    # pivot's search must start at or above ``h_cap``; a non-pivot
    # only needs the levels up to its own limit.
    limits: Optional[List[int]] = None
    if record_levels is not None:
        limits = [record_levels[i] for i in order]
    elif record_all:
        limits = [h_cap] * b
    cpu.alloc(b)  # sorted index buffer
    retained_words = b

    piv_pos = pivot_positions(sl, b)
    num_piv = len(piv_pos)

    # Columns, by sorted position.
    pred: List[Optional[Node]] = [None] * b
    pred_right: List[Optional[Node]] = [None] * b
    by_level: List[Optional[Dict[int, LevelEntry]]] = [None] * b
    # Recorded paths (``List[PathEntry]``) of the executed pivots.
    paths: List[Any] = [None] * b
    pre_derived: Dict[int, Dict[int, LevelEntry]] = {}

    piv_level_cache: Dict[int, Dict[int, LevelEntry]] = {}
    piv_nodes_cache: Dict[int, Set[Node]] = {}

    def pivot_nodes(ppos: int) -> Set[Node]:
        """Cached set of a pivot's recorded path nodes."""
        s = piv_nodes_cache.get(ppos)
        if s is None:
            s = piv_nodes_cache[ppos] = set(map(_node_of, paths[ppos]))
        return s

    def level_view(ppos: int) -> Dict[int, LevelEntry]:
        """Per-level last (node, right) of a pivot's recorded path."""
        lv = piv_level_cache.get(ppos)
        if lv is None:
            lv = piv_level_cache[ppos] = {
                lvl: (node, right) for node, lvl, right in paths[ppos]}
        return lv

    def squeeze(lvl_limit: int, pa_pos: int, pb_pos: int,
                ) -> Dict[int, LevelEntry]:
        """Squeeze-derive per-level predecessors from bounding pivots.

        At any level where both bounding pivots have the *same*
        recorded predecessor, the op's predecessor is squeezed to
        that node (it lies between them), so no search is needed for
        that level.  This generalizes the shared-leaf shortcut and is
        what keeps batched Insert contention-free when many inserts
        share high-level predecessors (e.g. a contiguous run at the
        end of the key space).

        Returns the levels derived from ``lvl_limit`` downward, up to
        the first level the pivots disagree on; the op is settled
        without a search iff level 0 is among them.
        """
        la, lb = level_view(pa_pos), level_view(pb_pos)
        derived: Dict[int, LevelEntry] = {}
        for lvl in range(lvl_limit, -1, -1):
            ea, eb = la.get(lvl), lb.get(lvl)
            if ea is None or eb is None or ea[0] is not eb[0]:
                break
            derived[lvl] = ea
        return derived

    def settle(pos: int, derived: Dict[int, LevelEntry], record: bool,
               keep_ordered: bool) -> None:
        """Finish an op entirely from derived levels (no search)."""
        nonlocal retained_words
        pred[pos], pred_right[pos] = derived[0]
        if record:
            by_level[pos] = dict(derived)
        cpu.alloc(len(derived))
        retained_words += len(derived)
        if keep_ordered:  # ``derived`` was filled top level first
            paths[pos] = [(node, lvl, right)
                          for lvl, (node, right) in derived.items()]

    def launch(msgs: list, pos: int, hint: Hint, record: bool,
               keep_ordered: bool) -> None:
        """Start op ``pos`` from ``hint``: append its search message
        to ``msgs``, or settle it on the spot from a leaf hint.  The
        destination draw consumes the machine's RNG stream, so ops
        are launched in ascending sorted position.

        The search streams back what the fold below keeps and no
        more: a pivot (``keep_ordered``) its whole lower-part path,
        any other recording op the levels up to its own limit."""
        nonlocal retained_words
        if keep_ordered:
            level = h_cap
        elif record:  # a recording caller: ``limits`` is set
            level = min(limits[pos], h_cap)
        else:
            level = -1
        if hint is None:
            msgs.append(search_message(sl, skeys[pos], opid=pos,
                                       record=level))
        elif hint[0] == "leaf":
            _, leaf, right = hint
            pred[pos], pred_right[pos] = leaf, right
            if record:
                by_level[pos] = {0: (leaf, right)}
            if keep_ordered:
                paths[pos] = [(leaf, 0, right)]
                cpu.alloc(1)
                retained_words += 1
        else:
            msgs.append(search_message(sl, skeys[pos], opid=pos,
                                       record=level, start=hint[1]))

    def stage(msgs: list, record: bool, keep_ordered: bool):
        """One phase: yield its messages and fold the drained replies
        into the columns, in one pass over the replies.  Stage 1
        records and keeps the ordered paths (the hint pool); stage 2
        records only for a recording caller and keeps no path."""
        nonlocal retained_words
        if not msgs:
            return
        replies = yield msgs
        if not record:
            # Every reply is a "done": no search emitted path records.
            for r in replies:
                _, opid, node, right = r.payload
                pred[opid] = node
                pred_right[opid] = right
            return
        got = paths if keep_ordered else [None] * b
        recorded: List[int] = []
        for r in replies:
            payload = r.payload
            if payload[0] == "path":  # (_, opid, node, level, right)
                opid = payload[1]
                pth = got[opid]
                if pth is None:
                    got[opid] = pth = []
                    recorded.append(opid)
                pth.append(payload[2:])
            else:
                _, opid, node, right = payload
                pred[opid] = node
                pred_right[opid] = right
        words = 0
        for opid in recorded:
            pth = got[opid]
            if keep_ordered:
                words += len(pth)
            # The last entry per level is that level's predecessor.
            if limits is None:
                bl = {lvl: (node, right) for node, lvl, right in pth}
            else:
                limit = limits[opid]
                bl = {lvl: (node, right) for node, lvl, right in pth
                      if lvl <= limit}
                extra = pre_derived.pop(opid, None)
                if extra:
                    for lvl, entry in extra.items():
                        bl.setdefault(lvl, entry)
            by_level[opid] = bl
            words += len(bl)
        cpu.alloc(words)
        retained_words += words

    # ---- Stage 1: pivots by divide and conquer ----------------------
    # Phase 0 starts the extremes -- and, up to P log P keys, the
    # median between them -- from the root, in sorted order.
    top = num_piv - 1
    if _median_at_root(sl, b, num_piv):
        roots = [0, top // 2, top]
    else:
        roots = [0, top] if top else [0]
    msgs: list = []
    for i in roots:
        launch(msgs, piv_pos[i], None, True, True)
    yield from stage(msgs, True, True)

    segments: List[Tuple[int, int]] = list(zip(roots, roots[1:]))
    while True:
        msgs = []
        next_segments: List[Tuple[int, int]] = []
        hint_work = 0.0
        launched = 0
        for i, j in segments:
            if j - i < 2:
                continue
            mid = (i + j) // 2
            lo, mpos, hi = piv_pos[i], piv_pos[mid], piv_pos[j]
            pa, pb = paths[lo], paths[hi]
            hint_work += len(pa) + len(pb)
            next_segments.append((i, mid))
            next_segments.append((mid, j))
            if limits is None:
                hint = _lca_hint(pa, pb, 0, nodes_b=pivot_nodes(hi))
            else:
                # Full-path recording from an elevated hint would walk
                # horizontally across the whole segment (endpoints are
                # far apart in early phases); the root start is
                # cheaper -- its upper descent is local on a replica
                # -- and the shared-predecessor contention case is
                # settled by the squeeze derivation.
                hint = None
                derived = squeeze(h_cap, lo, hi) if h_cap else {}
                if 0 in derived:
                    settle(mpos, derived, True, True)
                    continue
                if derived:
                    pre_derived[mpos] = derived
            launch(msgs, mpos, hint, True, True)
            launched += 1
        cpu.charge_wd(WorkDepth(hint_work + launched + 1,
                                max(1.0, math.log2(launched + 2)) + 8))
        if not launched and not any(j - i >= 2 for i, j in next_segments):
            break
        yield from stage(msgs, True, True)
        segments = next_segments
        if not segments:
            break

    # ---- Stage 2: everything else, with pivot-path hints ------------
    # One pass per segment derives the hint and builds the messages.
    # Every op is charged for scanning both bounding paths, whether
    # or not the host shares the scan across the segment.
    msgs = []
    madd = msgs.append
    hint_work = 0.0
    rest = 0
    record = record_all
    for a in range(num_piv - 1):
        lo, hi = piv_pos[a], piv_pos[a + 1]
        if hi - lo < 2:
            continue
        pa, pb = paths[lo], paths[hi]
        seg_work = len(pa) + len(pb)
        if limits is None:
            # Record-free searches: the hint depends only on the two
            # bounding pivot paths, so the segment shares one, and
            # its messages are built here (``search_message``
            # inlined: this loop launches most of the batch).
            hint_work += seg_work * (hi - lo - 1)
            rest += hi - lo - 1
            hint = _lca_hint(pa, pb, 0, nodes_b=pivot_nodes(hi))
            if hint is None:
                fn = sl.fn_search_entry
                for pos in range(lo + 1, hi):
                    madd((machine.random_module(), fn,
                          (skeys[pos], pos, -1), None))
            elif hint[0] == "leaf":
                _, leaf, right = hint
                for pos in range(lo + 1, hi):
                    pred[pos], pred_right[pos] = leaf, right
            else:
                start = hint[1]
                owner = start.owner
                fn = sl.fn_search_step
                for pos in range(lo + 1, hi):
                    madd((owner if owner != UPPER
                          else machine.random_module(), fn,
                          (start, skeys[pos], pos, -1), None))
            continue
        for pos in range(lo + 1, hi):
            hint_work += seg_work
            lvl_limit = min(limits[pos], h_cap)
            if lvl_limit <= 0:
                # Nothing above the leaf level to record (or, at
                # -1, nothing at all): the record-free start.
                hint = _lca_hint(pa, pb, 0, nodes_b=pivot_nodes(hi))
            else:
                # Underived level-constrained search: start from the
                # root.  The upper descent is local (replicated), and
                # an elevated per-segment hint can force a long
                # horizontal walk when many stored keys separate the
                # bounding pivots; the shared-predecessor contention
                # case never reaches here (the squeeze derivation
                # settles it).
                hint = None
                derived = squeeze(lvl_limit, lo, hi)
                if 0 in derived:
                    settle(pos, derived, record, False)
                    continue
                if derived:
                    pre_derived[pos] = derived
            launch(msgs, pos, hint, record, False)
            rest += 1
    if rest:
        cpu.charge_wd(WorkDepth(hint_work + rest,
                                max(1.0, math.log2(rest + 1)) + 8))
        yield from stage(msgs, record, False)

    cpu.free(retained_words)
    # Mapping back to the caller's order (``order[pos]`` is the
    # original index of the op at sorted position ``pos``) is the
    # consumer's loop; its cost is charged here.
    cpu.charge(b, max(1.0, math.log2(b)))
    return order, pred, pred_right, by_level


def _search_columns(sl: SkipListStructure, keys: Sequence[Hashable],
                    record_all: bool = False,
                    record_levels: Optional[Sequence[int]] = None):
    """Run the two-stage search; ``(order, pred, pred_right, by_level)``
    by sorted position (see :func:`_search_route`)."""
    return run_batch(sl.machine, f"{sl.name}:batch_search",
                     _search_route(sl, keys, record_all, record_levels))


def batch_search(sl: SkipListStructure, keys: Sequence[Hashable],
                 record_all: bool = False,
                 record_levels: Optional[Sequence[int]] = None,
                 ) -> List[SearchOutcome]:
    """Two-stage pivot search for all ``keys``; results align with input.

    ``record_all=True`` additionally records the per-level predecessor of
    *every* operation (``SearchOutcome.by_level``), which batched Upsert
    uses; pivots always record (their ordered paths drive the hints).
    ``record_levels`` (aligned with ``keys``) caps the levels *retained*
    per operation -- batched Insert only keeps the last ``l_i`` path nodes
    of each operation, which is what keeps the shared-memory footprint at
    ``Theta(P log^2 P)`` rather than ``Theta(P log^3 P)``.  A limit of
    ``-1`` records nothing for that operation: it rides the batch's
    pivots like a record-free search and only its ``pred`` /
    ``pred_right`` come back (the Successor keys a range batch carries).
    Anything below ``-1`` is a ``ValueError``, raised before a message
    is built.
    """
    if record_levels and min(record_levels) < -1:
        raise ValueError(
            f"record_levels are levels (-1 for none), got "
            f"{min(record_levels)!r}")
    order, pred, pred_right, by_level = _search_columns(
        sl, keys, record_all, record_levels)
    out: List[Optional[SearchOutcome]] = [None] * len(order)
    for i, node, right, levels in zip(order, pred, pred_right, by_level):
        out[i] = SearchOutcome(node, right, levels)
    return out  # type: ignore[return-value]


def batch_successor(sl: SkipListStructure, keys: Sequence[Hashable],
                    ) -> List[Optional[Tuple[Hashable, Any]]]:
    """Successor(k): the smallest (key, value) with key >= k, else None."""
    order, pred, pred_right, _ = _search_columns(sl, keys)
    out: List[Optional[Tuple[Hashable, Any]]] = [None] * len(order)
    for i, node, right in zip(order, pred, pred_right):
        found = node.key
        if found == keys[i] and found is not NEG_INF:
            out[i] = (found, node.value)
        elif right is not None:
            out[i] = (right.key, right.value)
    sl.machine.cpu.charge(len(keys), 8)
    return out


def batch_predecessor(sl: SkipListStructure, keys: Sequence[Hashable],
                      ) -> List[Optional[Tuple[Hashable, Any]]]:
    """Predecessor(k): the largest (key, value) with key <= k, else None."""
    order, pred, _, _ = _search_columns(sl, keys)
    out: List[Optional[Tuple[Hashable, Any]]] = [None] * len(order)
    for i, node in zip(order, pred):
        if node.key is not NEG_INF:
            out[i] = (node.key, node.value)
    sl.machine.cpu.charge(len(keys), 8)
    return out
