"""The pre-PR-20 batched search as the executable spec of the current one.

``_parent_search_route`` is the batched search's route as it was before
its state moved into columns: a dataclass and four dicts per batch, a
``(pos, hint)`` tuple per op, two ``setdefault`` dicts per path reply
-- verbatim but for these deltas:

- the search message's ``record`` argument, once a flag and now the
  highest level to stream back (see ``execute``);
- the pivot spacing, once ``log P`` at every width, then ``log^2 P`` for
  a batch of at most ``P log P`` keys, and now one continuous formula,
  ``max(log P, min(log^2 P, ceil(P log^3 P / b)))`` (see ``route``; the
  boundary sessions below run the ``log^2 P``, the interpolated and the
  paper's spacing, recording and record-free);
- the start of an op whose record limit is ``-1``, which now takes the
  record-free hint (see ``derive_or_hint``; the boundary sessions mix
  ``h_cap`` and ``-1`` limits the way a range batch with Successor
  riders does);
- phase 0, which searches the median pivot from the root with the two
  extremes in a batch of at most ``P log P`` keys (see ``route``; the
  boundary sessions start at the first width with a median and end past
  the last one);
- the reply reader: the walk now answers in column replies, and
  ``reply_rows`` spells them out into the per-message payloads the
  fold reads (see ``execute``).

The shipped route keeps its state in position-indexed columns, folds
the recording replies in one pass and builds stage 2's messages while
it derives the hints; it must return the
same outcomes, field by field, send the same messages in the same order
(so the machine's RNG stream and every model metric agree) and charge
the CPU side the same work, depth and shared memory.  Hypothesis drives
both over fuzzed key sets on two identically built machines; nodes are
compared by ``(key, level)``.
"""

import bisect
import math
import random
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.node import Node
from repro.core.ops_search import search_message
from repro.core.ops_successor import SearchOutcome, batch_search
from repro.core.structure import SkipListStructure
from repro.cpuside.sort import parallel_sort
from repro.ops import run_batch
from repro.sim.cpu import WorkDepth
from repro.sim.task import reply_rows
from repro.workloads import build_items, same_successor_batch
from tests.conftest import DETERMINISTIC

PathEntry = Tuple[Node, int, Optional[Node]]
Hint = Optional[Tuple[str, Any, Any]]


def _parent_lca_hint(path_a: Optional[List[PathEntry]],
              path_b: Optional[List[PathEntry]],
              min_level: int = 0,
              ids_b: Optional[set] = None) -> Hint:
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
    if ids_b is None:
        # Callers with many ops against the same right pivot pass the
        # pivot path's id-set in (batch_search caches one per pivot).
        ids_b = {id(node) for node, _, _ in path_b}
    for node, _, _ in reversed(path_a):
        if id(node) in ids_b:
            return ("node", node, None)
    return None


def _parent_search_route(sl: SkipListStructure, keys: Sequence[Hashable],
                         record_all: bool,
                         record_levels: Optional[Sequence[int]]):
    """The two-stage pivot search's route."""
    machine = sl.machine
    cpu = machine.cpu
    b = len(keys)
    if b == 0:
        return []
    p = sl.num_modules
    log_p = max(1, int(round(math.log2(p))) if p > 1 else 1)
    # Delta: the pivot spacing, log^2 P up to P log P keys, log P
    # from P log^2 P on, and ceil(P log^3 P / b) between.  Spelled from
    # ``p`` alone, not read from the structure, so the spec and the
    # shipped rule are two derivations of the same schedule.
    seg_len = max(log_p, min(log_p * log_p,
                             math.ceil(p * log_p ** 3 / b)))

    # Sort the batch on the CPU side (O(B log B) expected, O(log B)
    # whp depth).
    order = parallel_sort(cpu, list(range(b)), key=lambda i: (keys[i], i))
    skeys = [keys[i] for i in order]
    limits: Dict[int, int] = {}
    if record_levels is not None:
        for pos in range(b):
            limits[pos] = record_levels[order[pos]]
    elif record_all:
        # Record every lower level: hints must then start at or above
        # the topmost lower level so each search visits all of them.
        for pos in range(b):
            limits[pos] = sl.h_low - 1
    cpu.alloc(b)  # sorted index buffer

    piv_pos = list(range(0, b, seg_len))
    if piv_pos[-1] != b - 1:
        piv_pos.append(b - 1)
    num_piv = len(piv_pos)
    piv_set = set(piv_pos)

    h_cap = sl.h_low - 1

    def min_lvl(pos: int) -> int:
        """Lowest level the op's search must start at.

        In record mode, pivots always record their *full* lower-part
        paths (the paper's stage 1 stores them as the shared hint
        pool); non-pivots only need levels up to their own retention
        limit.
        """
        if not limits:
            return 0
        if pos in piv_set:
            return h_cap
        return min(limits.get(pos, 0), h_cap)

    paths: Dict[int, List[PathEntry]] = {}      # sorted-pos -> path
    outcomes: Dict[int, SearchOutcome] = {}     # sorted-pos -> outcome
    pre_derived: Dict[int, Dict[int, Tuple[Node, Optional[Node]]]] = {}
    retained_words = b  # the sorted index buffer

    piv_level_cache: Dict[int, Dict[int, Tuple[Node, Optional[Node]]]] = {}
    piv_ids_cache: Dict[int, set] = {}

    def pivot_ids(ppos: int) -> Optional[set]:
        """Cached ``id()`` set of a pivot's recorded path nodes."""
        s = piv_ids_cache.get(ppos)
        if s is None and ppos in paths:
            s = {id(node) for node, _, _ in paths[ppos]}
            piv_ids_cache[ppos] = s
        return s

    def level_view(ppos: int):
        """Per-level last (node, right) of a pivot's recorded path."""
        lv = piv_level_cache.get(ppos)
        if lv is None and ppos in paths:
            lv = {}
            for node, lvl, right in paths[ppos]:
                lv[lvl] = (node, right)
            piv_level_cache[ppos] = lv
        return lv

    def derive_or_hint(pos: int, pa_pos: int, pb_pos: int):
        """Squeeze-derive per-level predecessors from bounding pivots.

        At any level where both bounding pivots have the *same*
        recorded predecessor, the op's predecessor is squeezed to
        that node (it lies between them), so no search is needed for
        that level.  This generalizes the shared-leaf shortcut and is
        what keeps batched Insert contention-free when many inserts
        share high-level predecessors (e.g. a contiguous run at the
        end of the key space).

        Returns ``("done", derived)`` when every needed level is
        derived, else ``(hint, derived_above)`` where the search
        starts at/above the highest underived level.
        """
        lvl_limit = min_lvl(pos)
        pa, pb = paths.get(pa_pos), paths.get(pb_pos)
        # The one thing PR 24 changed: a limit of -1 (record
        # nothing: a Successor key riding a range batch's search)
        # takes the record-free start like a limit of 0, where the
        # parent fell through to an empty derivation.
        if lvl_limit <= 0:
            return (_parent_lca_hint(pa, pb, 0, ids_b=pivot_ids(pb_pos)), {})
        la, lb = level_view(pa_pos), level_view(pb_pos)
        derived: Dict[int, Tuple[Node, Optional[Node]]] = {}
        top = -1
        if la is not None and lb is not None:
            for lvl in range(lvl_limit, -1, -1):
                ea, eb = la.get(lvl), lb.get(lvl)
                if ea is not None and eb is not None and ea[0] is eb[0]:
                    derived[lvl] = ea
                else:
                    top = lvl
                    break
        else:
            top = lvl_limit
        if top == -1:
            return ("done", derived)
        hint: Hint = None
        if pa:
            for node, lvl, _ in reversed(pa):
                if lvl >= top:
                    hint = ("node", node, None)
                    break
        return (hint, derived)

    def settle_derived(pos: int, derived, record: bool,
                       keep_ordered: bool) -> None:
        """Finish an op entirely from derived levels (no search)."""
        nonlocal retained_words
        pred, right = derived[0]
        outcomes[pos] = SearchOutcome(
            pred=pred, pred_right=right,
            by_level=dict(derived) if record else None,
        )
        cpu.alloc(len(derived))
        retained_words += len(derived)
        if keep_ordered:
            paths[pos] = [
                (derived[lvl][0], lvl, derived[lvl][1])
                for lvl in sorted(derived, reverse=True)
            ]

    def execute(ops: List[Tuple[int, Hint]], record: bool,
                keep_ordered: bool):
        """One phase: build the phase's search messages, yield them as
        a stage, and fold the drained replies into the outcome maps."""
        nonlocal retained_words
        msgs = []
        madd = msgs.append
        for pos, hint in ops:
            # The one thing PR 21 changed on this route: ``record``
            # is the highest level the search streams back -- the
            # whole lower part for a pivot, the op's own limit for
            # another recording op, -1 for none -- and not a flag.
            # The fold below is untouched; it now drops nothing.
            level = (h_cap if keep_ordered
                     else min_lvl(pos) if record else -1)
            if hint is None:
                madd(search_message(sl, skeys[pos], opid=pos,
                                    record=level))
                continue
            if hint[0] == "leaf":
                outcomes[pos] = SearchOutcome(
                    pred=hint[1], pred_right=hint[2],
                    by_level={0: (hint[1], hint[2])} if record else None,
                )
                if keep_ordered:
                    paths[pos] = [(hint[1], 0, hint[2])]
                    cpu.alloc(1)
                    retained_words += 1
                continue
            madd(search_message(sl, skeys[pos], opid=pos, record=level,
                                start=hint[1]))
        if not msgs:
            return
        replies = yield msgs
        if not record and not keep_ordered:
            # Record-free phase: every reply is a "done" (no search
            # emitted path records), so fold without the path branch.
            for _src, _tag, payload in reply_rows(replies):
                _, opid, node, right = payload
                outcomes[opid] = SearchOutcome(pred=node,
                                               pred_right=right)
            return
        acc_paths: Dict[int, List[PathEntry]] = {}
        acc_bylevel: Dict[int, Dict[int, Tuple[Node, Optional[Node]]]] = {}
        for _src, _tag, payload in reply_rows(replies):
            if payload[0] == "path":
                _, opid, node, level, right = payload
                if keep_ordered:
                    acc_paths.setdefault(opid, []).append(
                        (node, level, right))
                if record:
                    acc_bylevel.setdefault(opid, {})[level] = (node, right)
            else:
                _, opid, node, right = payload
                outcomes[opid] = SearchOutcome(pred=node, pred_right=right)
        if keep_ordered:
            for opid, pth in acc_paths.items():
                paths[opid] = pth
                cpu.alloc(len(pth))
                retained_words += len(pth)
        if record:
            for opid, bl in acc_bylevel.items():
                if opid in outcomes:
                    limit = limits.get(opid)
                    if limit is not None:
                        bl = {lvl: v for lvl, v in bl.items()
                              if lvl <= limit}
                    extra = pre_derived.pop(opid, None)
                    if extra:
                        for lvl, entry in extra.items():
                            bl.setdefault(lvl, entry)
                    outcomes[opid].by_level = bl
                    cpu.alloc(len(bl))
                    retained_words += len(bl)

    # ---- Stage 1: pivots by divide and conquer ----------------------
    first, last = piv_pos[0], piv_pos[-1]
    phase0 = [(first, None)]
    segments: List[Tuple[int, int]] = [(0, num_piv - 1)]
    # Delta: up to P log P keys the median pivot joins phase 0 (from
    # the root, between the extremes in launch order), and the divide
    # and conquer starts from its two halves.
    if b <= p * log_p and num_piv >= 3:
        mid = (num_piv - 1) // 2
        phase0.append((piv_pos[mid], None))
        segments = [(0, mid), (mid, num_piv - 1)]
    if last != first:
        phase0.append((last, None))
    yield from execute(phase0, record=True, keep_ordered=True)

    while True:
        minis: List[Tuple[int, Hint]] = []
        next_segments: List[Tuple[int, int]] = []
        hint_work = 0.0
        for i, j in segments:
            if j - i < 2:
                continue
            mid = (i + j) // 2
            pa = paths.get(piv_pos[i])
            pb = paths.get(piv_pos[j])
            hint_work += (len(pa) if pa else 0) + (len(pb) if pb else 0)
            hint, derived = derive_or_hint(piv_pos[mid], piv_pos[i],
                                           piv_pos[j])
            next_segments.append((i, mid))
            next_segments.append((mid, j))
            if hint == "done":
                settle_derived(piv_pos[mid], derived, record=True,
                               keep_ordered=True)
                continue
            if derived:
                pre_derived[piv_pos[mid]] = derived
            if limits:
                # Full-path recording from an elevated hint would walk
                # horizontally across the whole segment (endpoints are
                # far apart in early phases); the root start is
                # cheaper -- its upper descent is local on a replica
                # -- and the shared-predecessor contention case was
                # already settled by the squeeze derivation above.
                hint = None
            minis.append((piv_pos[mid], hint))
        cpu.charge_wd(WorkDepth(hint_work + len(minis) + 1,
                                max(1.0, math.log2(len(minis) + 2)) + 8))
        if not minis and not any(j - i >= 2 for i, j in next_segments):
            break
        yield from execute(minis, record=True, keep_ordered=True)
        segments = next_segments
        if not segments:
            break

    # ---- Stage 2: everything else, with pivot-path hints ------------
    rest: List[Tuple[int, Hint]] = []
    hint_work = 0.0
    if not limits:
        # Record-free searches: the hint depends only on the two
        # bounding pivot paths (``derive_or_hint`` degenerates to a
        # bare ``_lca_hint``), so every op inside a segment shares
        # one hint.  Derive it once per segment -- B/log P hint
        # computations instead of B.  The charged hint work is
        # unchanged: each op still pays for scanning both paths.
        for a in range(num_piv - 1):
            lo, hi = piv_pos[a], piv_pos[a + 1]
            if hi - lo < 2:
                continue
            pa = paths.get(lo)
            pb = paths.get(hi)
            seg_work = (len(pa) if pa else 0) + (len(pb) if pb else 0)
            seg_hint = _parent_lca_hint(pa, pb, 0, ids_b=pivot_ids(hi))
            for pos in range(lo + 1, hi):
                hint_work += seg_work
                rest.append((pos, seg_hint))
    else:
        for pos in range(b):
            if pos in piv_set:
                continue
            a = bisect.bisect_right(piv_pos, pos) - 1
            c = min(a + 1, num_piv - 1)
            pa = paths.get(piv_pos[a])
            pb = paths.get(piv_pos[c])
            hint_work += (len(pa) if pa else 0) + (len(pb) if pb else 0)
            hint, derived = derive_or_hint(pos, piv_pos[a], piv_pos[c])
            if hint == "done":
                settle_derived(pos, derived, record=record_all,
                               keep_ordered=False)
                continue
            if derived:
                pre_derived[pos] = derived
            if min_lvl(pos) > 0:
                # Underived level-constrained search: start from the
                # root.  The upper descent is local (replicated), and
                # an elevated per-segment hint can force a long
                # horizontal walk when many stored keys separate the
                # bounding pivots; the shared-predecessor contention
                # case never reaches here (the squeeze derivation
                # settles it).
                hint = None
            rest.append((pos, hint))
    if rest:
        cpu.charge_wd(WorkDepth(hint_work + len(rest),
                                max(1.0, math.log2(len(rest) + 1)) + 8))
        yield from execute(rest, record=record_all, keep_ordered=False)

    cpu.free(retained_words)

    # Map back to the caller's order: order[pos] is the original index
    # of the operation at sorted position pos.
    results: List[Optional[SearchOutcome]] = [None] * b
    for pos in range(b):
        results[order[pos]] = outcomes[pos]
    cpu.charge(b, max(1.0, math.log2(b)))
    return results  # type: ignore[return-value]


def parent_batch_search(sl, keys, record_all=False, record_levels=None):
    return run_batch(sl.machine, f"{sl.name}:batch_search",
                     _parent_search_route(sl, keys, record_all,
                                          record_levels))


# -- the comparison ---------------------------------------------------------

STRIDE = 100


def _built(p: int, items, seed: int) -> PIMSkipList:
    sl = PIMSkipList(PIMMachine(num_modules=p, seed=seed))
    sl.build(items)
    return sl


def _sig(node: Optional[Node]):
    return None if node is None else (node.key, node.level)


def _fields(outcome: SearchOutcome):
    levels = outcome.by_level
    return (_sig(outcome.pred), _sig(outcome.pred_right),
            None if levels is None else
            {lvl: (_sig(node), _sig(right))
             for lvl, (node, right) in levels.items()})


def _model(sl: PIMSkipList):
    m = sl.machine.metrics
    return (m.cpu_work, m.cpu_depth, m.shared_mem_peak, m.shared_mem_in_use,
            m.io_time, m.pim_time, m.rounds, m.messages,
            sl.machine.rng.random())


def _assert_same(p, items, seed, keys, record_all, record_levels):
    spec, new = _built(p, items, seed), _built(p, items, seed)
    want = parent_batch_search(spec.struct, keys, record_all, record_levels)
    got = batch_search(new.struct, keys, record_all, record_levels)
    assert [_fields(o) for o in got] == [_fields(o) for o in want]
    assert _model(new) == _model(spec)


@st.composite
def searches(draw):
    p = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n = draw(st.sampled_from([0, 1, 40, 300]))
    top = max(1, n) * STRIDE
    # Below every stored key, between them, on them, above them all.
    key = st.one_of(st.integers(-50, top + 50),
                    st.integers(0, max(1, n)).map(lambda i: i * STRIDE))
    keys = draw(st.lists(key, min_size=1, max_size=70))
    if draw(st.booleans()):  # heavy duplication
        keys = [keys[i % max(1, len(keys) // 4)] for i in range(len(keys))]
    mode = draw(st.sampled_from(["free", "all", "levels", "levels_only"]))
    levels = None
    if mode.startswith("levels"):
        # Batched Insert passes tower heights: 0 mostly, some past h_low.
        levels = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 7]),
                               min_size=len(keys), max_size=len(keys)))
    return (p, build_items(n, stride=STRIDE), draw(st.integers(0, 5)), keys,
            mode in ("all", "levels"), levels)


def _boundary_sessions():
    """Widths on both sides of ``P log P``, where phase 0 loses its
    median and the pivot spacing starts to shrink: one key under it, on
    it, one key over it and twice it; the first width whose phase 0 has
    a median (``log^2 P + 2``) and the first one past the ``log^2 P``
    spacing; for P in {8, 16}, in every recording mode."""
    cases = []
    for p in (8, 16):
        log_p = int(math.log2(p))
        edge = p * log_p
        past = (edge * log_p ** 2 - 1) // (log_p ** 2 - 1) + 1
        items = build_items(300, stride=STRIDE)
        for b in (log_p ** 2 + 2, edge - 1, edge, edge + 1, past, 2 * edge):
            rng = random.Random(b)
            keys = [rng.randrange(-50, 300 * STRIDE + 50) for _ in range(b)]
            levels = [rng.choice([0, 0, 0, 1, 2, 3, 7]) for _ in range(b)]
            # A range batch with riders: the pieces keep every lower
            # level (any limit >= h_cap does), a rider keeps nothing.
            riders = [rng.choice([7, 7, -1]) for _ in range(b)]
            for record_all, record_levels in ((False, None), (True, None),
                                              (True, levels),
                                              (True, riders)):
                cases.append((p, items, b % 6, keys, record_all,
                              record_levels))
    return cases


BOUNDARY_SESSIONS = _boundary_sessions()


@DETERMINISTIC
@given(st.one_of(searches(), st.sampled_from(BOUNDARY_SESSIONS)))
def test_outcomes_and_costs_equal_the_parents(case):
    _assert_same(*case)


def _mode(case) -> str:
    _, _, _, _, record_all, levels = case
    if levels:
        return "riders" if -1 in levels else "levels"
    return "all" if record_all else "free"


@pytest.mark.parametrize("case", BOUNDARY_SESSIONS, ids=lambda c: (
    f"P{c[0]}-b{len(c[3])}-{_mode(c)}"))
def test_boundary_session(case):
    """Hypothesis samples the boundary sessions; this runs every one."""
    _assert_same(*case)


@pytest.mark.parametrize("mode", ["free", "all", "levels"])
@pytest.mark.parametrize("p", [4, 16])
def test_same_successor_adversary(p, mode):
    """Distinct keys that share one successor: stage 2 settles most of
    the batch from leaf hints (record-free) or the squeeze derivation
    (recording), the paths the restructure touched most."""
    items = build_items(300, stride=10 ** 4)
    keys = same_successor_batch([k for k, _ in items], 8 * p,
                                random.Random(p))
    random.Random(1).shuffle(keys)
    levels = [i % 3 for i in range(len(keys))] if mode == "levels" else None
    _assert_same(p, items, 3, keys, mode != "free", levels)


def test_a_limit_below_minus_one_is_rejected_before_any_message():
    sl = _built(8, build_items(40, stride=STRIDE), 0)
    before = _model(_built(8, build_items(40, stride=STRIDE), 0))
    with pytest.raises(ValueError, match="-1 for none"):
        batch_search(sl.struct, [5, 150, 990], record_all=True,
                     record_levels=[2, -2, -1])
    assert _model(sl) == before  # nothing sent, charged or drawn
