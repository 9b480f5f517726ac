"""Structural layer of the PIM skip list.

This module owns everything below the batch algorithms: the sentinel
tower, the upper/lower split (paper §3.1), per-module local state (hash
table, local leaf list), node creation with memory accounting, the local
mutators that task handlers call (local leaf insertion/removal with
next-leaf maintenance, idempotent upper-part linking), and the replicated
upper-part descent.  Whatever creates or links nodes in bulk is an op
over these pieces: a batched Upsert (``ops_upsert``) or, into an empty
structure, the bulk load ``build`` (``ops_build``).

Placement recap (Fig. 2): the skip list is cut horizontally at height
``h_low = log2 P``.  Nodes at level >= ``h_low`` (the *upper part*) are
replicated in every module; nodes below (the *lower part*) are distributed
by a seeded hash on (key, level).  Each module additionally chains its own
leaves into a *local leaf list* and each upper-part leaf keeps a
per-module ``next_leaf`` pointer to the first local leaf at or after its
key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.balls.hashing import KeyLevelHash, stable_hash
from repro.core.hash_table import CuckooHashTable
from repro.core.node import NEG_INF, NODE_WORDS, Node, UPPER
from repro.ops import Columns
from repro.sim.machine import PIMMachine

Charge = Callable[[float], None]

MAX_HEIGHT = 64
"""Cap on tower height (2^-64 truncation; irrelevant at any feasible n)."""


@dataclass
class ModuleLocal:
    """Per-module local state of one skip-list structure."""

    table: CuckooHashTable
    first_leaf: Optional[Node] = None
    last_leaf: Optional[Node] = None
    leaf_count: int = 0
    # Transient per-(opid, token) state of in-flight range traversals.
    range_ctx: Dict = field(default_factory=dict)


class SkipListStructure:
    """Storage layout + local mutators of the PIM skip list.

    One instance per :class:`repro.core.skiplist.PIMSkipList`; the batch
    operation modules (``ops_*``) orchestrate message flow and call the
    local mutators from inside task handlers.
    """

    def __init__(self, machine: PIMMachine, name: str = "skiplist",
                 level_promotion: float = 0.5,
                 h_low_override: Optional[int] = None) -> None:
        self.machine = machine
        self.name = name
        self.num_modules = machine.num_modules
        p = self.num_modules
        # The one integer ``log P`` of the structure (rounded, floored at
        # 1): the level split, the search's pivot spacing, the batch
        # minima and the tree-vs-broadcast threshold all read it.
        self.log_p = max(1, int(round(math.log2(p)))) if p > 1 else 1
        if h_low_override is not None:
            # Ablation hook: the paper sets the split at log2 P; the
            # upper/lower split benchmark varies it to show the space/IO
            # trade-off.
            self.h_low = max(1, h_low_override)
        else:
            self.h_low = self.log_p
        self.level_p = level_promotion
        # stable_hash, not hash(): the per-process salt on str hashing
        # would give each run a different placement draw, breaking
        # cross-process reproducibility (and the golden-metrics tests).
        self.hash = KeyLevelHash(
            p, seed=machine.spawn_rng(stable_hash(name) & 0xFFFF).getrandbits(32))
        self.rng: random.Random = machine.spawn_rng(0xC01)
        self.num_keys = 0
        # Pre-formatted handler ids for the hot paths: an f-string per
        # forwarded hop / per RemoteWrite message was measurable in the
        # wall-clock profile.
        self.fn_search_entry = f"{name}:search_entry"
        self.fn_search_step = f"{name}:search_step"
        self.fn_write_ptr = f"{name}:write_ptr"

        # Per-module local state.
        for mid in range(p):
            module = machine.modules[mid]
            module.state[name] = ModuleLocal(
                table=CuckooHashTable(
                    rng=machine.spawn_rng(0x7AB1E0 + mid),
                    charge=module.charge,
                )
            )

        # Sentinel tower (-inf at every level, fully replicated).
        self.sentinels: List[Node] = []
        self.top_level = self.h_low + 1
        prev: Optional[Node] = None
        for lvl in range(self.top_level + 1):
            s = Node(NEG_INF, lvl, owner=UPPER)
            if lvl == self.h_low:
                s.init_next_leaf(p)
            if prev is not None:
                s.down = prev
                prev.up = s
            self.sentinels.append(s)
            prev = s
        for mid in range(p):
            # sentinel tower: one replica's words per module
            machine.modules[mid].alloc_words(len(self.sentinels) * NODE_WORDS + 1)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------

    @property
    def root(self) -> Node:
        """The search root: the sentinel node at the current top level."""
        return self.sentinels[self.top_level]

    @property
    def min_point_batch(self) -> int:
        """``P log P``: the paper's minimum Get/Update batch, the number
        of pivots in its ``P log^2 P`` search batch, and the measured
        tree-vs-broadcast crossover of a range."""
        return self.num_modules * self.log_p

    @property
    def upper_leaf_sentinel(self) -> Node:
        """The sentinel's node at level ``h_low`` (leftmost upper leaf)."""
        return self.sentinels[self.h_low]

    def is_upper_level(self, level: int) -> bool:
        """True when ``level`` lies in the replicated upper part."""
        return level >= self.h_low

    def mlocal(self, mid: int) -> ModuleLocal:
        """Module ``mid``'s local state for this structure."""
        return self.machine.modules[mid].state[self.name]

    def owner_of(self, key: Hashable, level: int) -> int:
        """Module owning the lower-part node for (key, level)."""
        return self.hash.module_of(key, level)

    def leaf_owner(self, key: Hashable) -> int:
        """Module owning ``key``'s leaf (the Get/Update shortcut target)."""
        return self.owner_of(key, 0)

    def shortcut_stage(self, fn: str, keys: List[Hashable],
                       *cols: List[Any]) -> Columns:
        """The hash-shortcut stage element of a point operation (paper
        §4.1): one ``fn`` message per key of the batch, with arguments
        ``(key, cols[0][i], ...)``, sent to the module owning the key's
        leaf -- the whole batch placed in one call and handed to the
        driver as one :class:`~repro.ops.Columns` element."""
        return Columns(fn, self.hash.module_of_many(keys), (keys,) + cols)

    def lower_owners(self, keys: Sequence[Hashable],
                     heights: Sequence[int]) -> List[Iterator[int]]:
        """Placement of a batch of towers' lower-part nodes, one hash
        fold per level: element ``lvl`` iterates, in tower order, over
        the owners of the level-``lvl`` nodes of the towers that reach
        that level."""
        levels = min(self.h_low, max(heights, default=0) + 1)
        return [iter(owners) for owners
                in self.hash.module_of_levels(keys, heights, levels)]

    def draw_heights(self, n: int) -> List[int]:
        """``n`` towers' top levels, in order: each geometric(1/2), so a
        tower spans 0..height."""
        coin, promote = self.rng.random, self.level_p
        heights: List[int] = []
        for _ in range(n):
            h = 0
            while h < MAX_HEIGHT and coin() < promote:
                h += 1
            heights.append(h)
        return heights

    # ------------------------------------------------------------------
    # node creation / destruction (with memory accounting)
    # ------------------------------------------------------------------

    def make_lower_node(self, key: Hashable, level: int, value: Any = None) -> Node:
        """Create an unlinked lower-part node (no memory charged yet).

        Memory is charged when the node is delivered to its owner (the
        creation task calls :meth:`account_lower_alloc`).
        """
        if self.is_upper_level(level):
            raise ValueError("lower node at upper level")
        return Node(key, level, owner=self.owner_of(key, level), value=value)

    def make_upper_node(self, key: Hashable, level: int) -> Node:
        """Create an unlinked upper-part (replicated) node."""
        if not self.is_upper_level(level):
            raise ValueError("upper node below h_low")
        node = Node(key, level, owner=UPPER)
        if level == self.h_low:
            node.init_next_leaf(self.num_modules)
        return node

    def account_lower_alloc(self, node: Node) -> None:
        """Charge a lower-part node's words at its owner."""
        self.machine.modules[node.owner].alloc_words(NODE_WORDS)

    def account_lower_free(self, node: Node) -> None:
        """Release a lower-part node's words at its owner."""
        self.machine.modules[node.owner].free_words(NODE_WORDS)

    def account_upper_alloc_on(self, mid: int, node: Node) -> None:
        """Charge one module's share of an upper node's replicated storage."""
        words = NODE_WORDS + (1 if node.level == self.h_low else 0)
        self.machine.modules[mid].alloc_words(words)

    def account_upper_free_on(self, mid: int, node: Node) -> None:
        """Release one module's share of an upper node's storage."""
        words = NODE_WORDS + (1 if node.level == self.h_low else 0)
        self.machine.modules[mid].free_words(words)

    # ------------------------------------------------------------------
    # replicated upper-part operations (local on any module)
    # ------------------------------------------------------------------

    def upper_descend_steps(self, key: Hashable) -> Tuple[Node, int]:
        """:meth:`upper_descend` without the charging: the landing leaf
        and the number of nodes traversed (what the caller must bill)."""
        x = self.root
        steps = 1
        h_low = self.h_low
        while True:
            right = x.right
            while right is not None and right.key <= key:
                x = right
                right = x.right
                steps += 1
            if x.level == h_low:
                return x, steps
            x = x.down
            steps += 1

    def upper_descend(self, key: Hashable, charge: Charge) -> Node:
        """Descend the (replicated) upper part toward ``key``.

        Returns the upper-part leaf (level ``h_low`` node) with the
        largest key <= ``key``.  Purely local: every touched node is
        replicated.  Charges one unit per node traversed (in one call:
        charges are integer-valued, so the sum is exact).
        """
        u, steps = self.upper_descend_steps(key)
        charge(steps)
        return u

    def link_upper_node(self, node: Node, charge: Charge) -> None:
        """Horizontally link a new upper node into its level (idempotent).

        Executed by every module when the creation broadcast arrives; the
        first execution performs the (shared-object) mutation, later ones
        only charge the work, so replication costs are accounted without
        double-linking.
        """
        if node.left is not None or node.right is not None:
            charge(1)
            return
        # Descend to the insertion point at node.level.  The strict <
        # keeps the descent off same-key nodes -- i.e. off this node's own
        # tower: when delivery retries reorder a link batch, a higher
        # tower node may already be linked, and stepping onto it would
        # route the descent down through the tower onto ``node`` itself
        # (self-linking it).  Keys are unique, so fault-free the path is
        # unchanged.
        x = self.root
        charge(1)
        while True:
            while x.right is not None and x.right.key < node.key:
                x = x.right
                charge(1)
            if x.level == node.level:
                break
            # The down-step must land on a horizontally *linked* node, or
            # the descent loses its anchor to the level's list.  Fault-free
            # that always holds (a tower links bottom-up within one round),
            # but a retried link batch can install a tower's upper node
            # before its lower one; slide left until the step is safe (the
            # sentinel column always is).
            d = x.down
            while d.left is None and d.right is None and d.key is not NEG_INF:
                x = x.left
                d = x.down
                charge(1)
            x = d
            charge(1)
        succ = x.right
        node.left = x
        node.right = succ
        x.right = node
        if succ is not None:
            succ.left = node
        charge(1)

    def unlink_upper_node(self, node: Node, charge: Charge) -> None:
        """Splice an upper node out of its level (idempotent)."""
        charge(1)
        lf, rt = node.left, node.right
        if lf is None and rt is None:
            return  # already unlinked
        if lf is not None:
            lf.right = rt
        if rt is not None:
            rt.left = lf
        node.left = None
        node.right = None

    def grow_to_level(self, level: int, charge: Charge) -> None:
        """Extend the sentinel tower so the root sits above ``level``.

        Idempotent; each module's share of the new sentinel words is
        charged by the caller (the growth broadcast task).
        """
        while self.top_level <= level:
            charge(1)
            below = self.sentinels[self.top_level]
            s = Node(NEG_INF, self.top_level + 1, owner=UPPER)
            s.down = below
            below.up = s
            self.sentinels.append(s)
            self.top_level += 1

    # ------------------------------------------------------------------
    # local leaf list operations (run on one module, via its handlers)
    # ------------------------------------------------------------------

    def local_position(self, mid: int, key: Hashable, charge: Charge,
                       ) -> Tuple[Optional[Node], Optional[Node]]:
        """(pred, succ) of ``key`` within module ``mid``'s local leaf list.

        ``pred`` is the last local leaf with key < ``key``; ``succ`` the
        first with key >= ``key``.  Either may be ``None``.  Uses the
        replicated upper part + the module's next-leaf pointers, then a
        short local walk (O(log P) whp).
        """
        return self._local_position_from(
            self.upper_descend(key, charge), mid, key, charge)

    def _local_position_from(self, u: Node, mid: int, key: Hashable,
                             charge: Charge,
                             ) -> Tuple[Optional[Node], Optional[Node]]:
        """:meth:`local_position` given ``key``'s upper-part landing leaf
        ``u`` (the descent is the caller's, already charged)."""
        cur = u.next_leaf[mid] if u.next_leaf is not None else None
        if cur is None:
            # no local leaf at or after u.key: pred is the module's last
            # leaf if it is < key (it must be, since it is < u.key <= key
            # ... unless the list is empty).
            pred = self.mlocal(mid).last_leaf
            if pred is not None and not (pred.key < key):
                # Defensive: stale next-leaf would be a structure bug.
                raise AssertionError("next-leaf invariant violated")
            return pred, None
        if cur.key >= key:
            charge(1)
            return cur.local_left, cur
        prev = cur
        cur = cur.local_right
        steps = 1
        while cur is not None and cur.key < key:
            prev, cur = cur, cur.local_right
            steps += 1
        charge(steps)
        return prev, cur

    def _repair_next_leaf(self, u: Optional[Node], mid: int,
                          pred: Optional[Node], old: Optional[Node],
                          new: Optional[Node], charge: Charge) -> None:
        """Walk the upper leaves left from ``u`` while their keys exceed
        ``pred``'s, pointing module ``mid``'s next-leaf at ``new`` (only
        where it pointed at ``old``, when ``old`` is given)."""
        pred_key = pred.key if pred is not None else None
        steps = 0
        while u is not None and (pred_key is None or u.key > pred_key):
            if u.next_leaf is not None and (
                    old is None or u.next_leaf[mid] is old):
                u.next_leaf[mid] = new
            steps += 1
            u = u.left
            if u is not None and u.level != self.h_low:  # pragma: no cover
                raise AssertionError("left walk left the upper-leaf level")
        charge(steps)

    def local_insert_leaf(self, mid: int, leaf: Node, charge: Charge) -> None:
        """Insert ``leaf`` into module ``mid``'s local list + hash table.

        Also repairs the module's next-leaf pointers: every upper-part
        leaf with key in (pred.key, leaf.key] must now point at ``leaf``.
        """
        ml = self.mlocal(mid)
        # One descent serves both the position lookup and the next-leaf
        # repair (nothing in between touches the upper part); the model
        # bills a descent for each, so its step count is charged twice.
        u, descent = self.upper_descend_steps(leaf.key)
        charge(descent)
        pred, succ = self._local_position_from(u, mid, leaf.key, charge)
        leaf.local_left = pred
        leaf.local_right = succ
        if pred is not None:
            pred.local_right = leaf
        else:
            ml.first_leaf = leaf
        if succ is not None:
            succ.local_left = leaf
        else:
            ml.last_leaf = leaf
        ml.leaf_count += 1
        charge(1)
        ml.table.insert(leaf.key, leaf)
        charge(descent)
        self._repair_next_leaf(u, mid, pred, None, leaf, charge)

    def local_remove_leaf(self, mid: int, leaf: Node, charge: Charge) -> None:
        """Remove ``leaf`` from module ``mid``'s local list + hash table,
        repairing next-leaf pointers that referenced it."""
        ml = self.mlocal(mid)
        pred, succ = leaf.local_left, leaf.local_right
        if pred is not None:
            pred.local_right = succ
        else:
            ml.first_leaf = succ
        if succ is not None:
            succ.local_left = pred
        else:
            ml.last_leaf = pred
        ml.leaf_count -= 1
        charge(1)
        ml.table.delete(leaf.key)
        leaf.local_left = None
        leaf.local_right = None
        u = self.upper_descend(leaf.key, charge)
        self._repair_next_leaf(u, mid, pred, leaf, succ, charge)

    def compute_next_leaf(self, mid: int, upper_leaf: Node,
                          landing: Tuple[Node, int], charge: Charge) -> None:
        """Set a *new* upper leaf's next-leaf pointer for module ``mid``:
        the first local leaf with key >= the upper leaf's key.

        ``landing`` is ``upper_descend_steps(upper_leaf.key)``.  The
        upper part is replicated, so the descent is the same on every
        module: a caller serving several replicas takes it once and
        each module is charged its steps here.
        """
        u, steps = landing
        charge(steps)
        _, succ = self._local_position_from(u, mid, upper_leaf.key, charge)
        upper_leaf.next_leaf[mid] = succ

    # ------------------------------------------------------------------
    # diagnostics / integrity
    # ------------------------------------------------------------------

    def iter_level(self, level: int):
        """Yield the real (non-sentinel) nodes at ``level``, left to right.

        Diagnostic only (walks shared objects without cost accounting).
        """
        if level > self.top_level:
            return
        x = self.sentinels[level].right
        while x is not None:
            yield x
            x = x.right

    def keys_in_order(self) -> List[Hashable]:
        """All keys, ascending (diagnostic; not cost-accounted)."""
        return [n.key for n in self.iter_level(0)]

    def check_integrity(self) -> None:
        """Assert every structural invariant; raises AssertionError on rot.

        Used by tests and by the property-based suite after each batch.
        """
        p = self.num_modules
        # 1. horizontal order + left/right symmetry at every level
        for lvl in range(self.top_level + 1):
            prev = self.sentinels[lvl]
            x = prev.right
            while x is not None:
                assert prev.key < x.key, f"order violated at level {lvl}"
                assert x.left is prev, f"left pointer broken at level {lvl}"
                assert x.level == lvl
                assert not x.deleted, "deleted node still linked"
                prev, x = x, x.right
        # 2. towers: up/down symmetry and presence at every level below top
        for leaf in self.iter_level(0):
            x = leaf
            lvl = 0
            while x.up is not None:
                assert x.up.down is x, "up/down asymmetry"
                assert x.up.key == x.key
                assert x.up.level == lvl + 1
                x = x.up
                lvl += 1
        # 3. level membership: each level-(i+1) node has a level-i node,
        #    and vertical pointers are symmetric in both directions
        for lvl in range(1, self.top_level + 1):
            for x in self.iter_level(lvl):
                assert x.down is not None, "tower gap"
                assert x.down.up is x, "down/up asymmetry"
        # 4. ownership: lower nodes hashed correctly, upper nodes replicated
        for lvl in range(self.top_level + 1):
            for x in self.iter_level(lvl):
                if self.is_upper_level(lvl):
                    assert x.owner == UPPER
                else:
                    assert x.owner == self.owner_of(x.key, lvl)
        # 5. local leaf lists: partition of leaves, ordered, tables agree
        all_leaves = list(self.iter_level(0))
        by_module: dict = {mid: [] for mid in range(p)}
        for leaf in all_leaves:
            by_module[leaf.owner].append(leaf)
        for mid in range(p):
            ml = self.mlocal(mid)
            chain = []
            x = ml.first_leaf
            prev = None
            while x is not None:
                chain.append(x)
                assert x.local_left is prev, "local_left broken"
                if prev is not None:
                    assert prev.key < x.key, "local list out of order"
                prev, x = x, x.local_right
            assert ml.last_leaf is (chain[-1] if chain else None)
            assert ml.leaf_count == len(chain)
            assert chain == by_module[mid], f"local list of module {mid} wrong"
            assert len(ml.table) == len(chain)
            for leaf in chain:
                assert ml.table.lookup(leaf.key) is leaf, "hash table disagrees"
        # 6. next-leaf invariants at every upper leaf (incl. sentinel)
        uls = [self.upper_leaf_sentinel] + [
            n for n in self.iter_level(self.h_low)
        ]
        for u in uls:
            assert u.next_leaf is not None
            for mid in range(p):
                ml = self.mlocal(mid)
                expect = ml.first_leaf
                while expect is not None and expect.key < u.key:
                    expect = expect.local_right
                assert u.next_leaf[mid] is expect, (
                    f"next_leaf wrong at {u!r} for module {mid}"
                )
        # 7. key count
        assert self.num_keys == len(all_leaves)
        # 8. no range traversal state outlives its op, finished or failed
        for mid in range(p):
            assert not self.mlocal(mid).range_ctx, \
                f"module {mid} holds range traversal state"
