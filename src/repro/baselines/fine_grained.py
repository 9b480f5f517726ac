"""Fine-grained random placement baseline (Ziegler et al. [34]).

One global skip list whose *every* node -- including the topmost levels
and the sentinel tower -- lives on a uniformly random module, with no
replication.  Load is perfectly balanced (that part the paper's structure
keeps for its lower part), but a search from the root crosses a module
boundary on essentially every one of its ``Theta(log n)`` hops: per-query
IO is ``Theta(log n)`` messages instead of the ``O(log P)`` the replicated
upper part buys.  This is §3.1's "fine-grained partitioning causes too
much IO because every key search would access nodes in many different PIM
modules."

Only the operations the comparison benchmarks need are implemented:
build, batched Get (search-based -- no leaf hash shortcut exists in the
cited design), and batched Successor.
"""

from __future__ import annotations

import random
from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.balls.hashing import KeyLevelHash
from repro.core.node import NEG_INF, NODE_WORDS, Node
from repro.ops import run_batch
from repro.sim.machine import PIMMachine


class FineGrainedSkipList:
    """Globally distributed skip list, random node placement, no replicas."""

    def __init__(self, machine: PIMMachine, name: str = "finegrained") -> None:
        self.machine = machine
        self.name = name
        self.hash = KeyLevelHash(machine.num_modules,
                                 seed=machine.spawn_rng(0xF1E).getrandbits(32))
        self.rng: random.Random = machine.spawn_rng(0xF2A)
        self.num_keys = 0
        self.sentinels: List[Node] = []
        self.top_level = 0
        machine.register(f"{name}:step", self._step_body)

    # -- structure ------------------------------------------------------------

    def _owner(self, key: Hashable, level: int) -> int:
        return self.hash.module_of(("fg", key), level)

    def build(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        """Initialize from sorted unique (key, value) pairs."""
        items = list(items)
        heights = []
        for _ in items:
            h = 0
            while h < 48 and self.rng.random() < 0.5:
                h += 1
            heights.append(h)
        self.top_level = max(heights, default=0) + 1
        prev_s: Optional[Node] = None
        for lvl in range(self.top_level + 1):
            s = Node(NEG_INF, lvl, owner=self._owner("SENTINEL", lvl))
            self.machine.modules[s.owner].alloc_words(NODE_WORDS)
            if prev_s is not None:
                s.down = prev_s
                prev_s.up = s
            self.sentinels.append(s)
            prev_s = s
        tails: List[Node] = list(self.sentinels)
        for (key, value), h in zip(items, heights):
            below: Optional[Node] = None
            for lvl in range(h + 1):
                node = Node(key, lvl, owner=self._owner(key, lvl),
                            value=value if lvl == 0 else None)
                self.machine.modules[node.owner].alloc_words(NODE_WORDS)
                tails[lvl].right = node
                node.left = tails[lvl]
                tails[lvl] = node
                if below is not None:
                    below.up = node
                    node.down = below
                below = node
        self.num_keys = len(items)

    @property
    def root(self) -> Node:
        return self.sentinels[-1]

    # -- search ---------------------------------------------------------------

    def _step_body(self, bct, chunks) -> None:
        """Walk each task's run of this module's nodes, then reply at the
        leaf level or forward the walk to the next node's owner."""
        tracing = bct.tracing
        out = []
        for mid, (x, key, opid), _tag, _size in bct.rows(chunks):
            hops = 0
            while True:
                hops += 1
                if tracing:
                    bct.touch(mid, ("fg", x.nid))
                if x.right is not None and x.right.key <= key:
                    nxt = x.right
                elif x.level > 0:
                    nxt = x.down
                else:
                    bct.reply(mid, ("done", opid, x, x.right))
                    break
                if nxt.owner == mid:
                    x = nxt
                else:
                    out.append((nxt.owner, (nxt, key, opid), None, 1))
                    bct.sent[mid] += 1
                    break
            bct.work[mid] += hops
        bct.stage_rows(f"{self.name}:step", out)

    def _batch_search(self, keys: Sequence[Hashable]) -> List[Node]:
        return run_batch(self.machine, f"{self.name}:batch_search",
                         _search_route(self, keys))

    def batch_get(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        out: List[Optional[Any]] = []
        for key, (pred, _right) in zip(keys, self._batch_search(keys)):
            out.append(pred.value if (not pred.is_sentinel and pred.key == key)
                       else None)
        return out

    def batch_successor(self, keys: Sequence[Hashable],
                        ) -> List[Optional[Tuple[Hashable, Any]]]:
        out: List[Optional[Tuple[Hashable, Any]]] = []
        for key, (pred, right) in zip(keys, self._batch_search(keys)):
            if not pred.is_sentinel and pred.key == key:
                out.append((pred.key, pred.value))
            elif right is not None:
                out.append((right.key, right.value))
            else:
                out.append(None)
        return out

    #: Read-only: the cited design is build-once (no mutation path).
    BATCH_CAPS = frozenset({"get", "successor"})

    def apply_batch(self, op: str, payload: Sequence) -> List[Any]:
        """Uniform batch dispatch (contract: see
        :meth:`repro.core.skiplist.PIMSkipList.apply_batch`)."""
        if op == "get":
            return self.batch_get(list(payload))
        if op == "successor":
            return self.batch_successor(list(payload))
        raise ValueError(f"apply_batch: unsupported op {op!r} "
                         f"(fine-grained baseline is read-only)")


def _search_route(fg: FineGrainedSkipList, keys: Sequence[Hashable]):
    """All searches launched at the (unreplicated) root in one stage."""
    root = fg.root
    fn_step = f"{fg.name}:step"
    replies = yield ((root.owner, fn_step, (root, key, i), None)
                     for i, key in enumerate(keys))
    results: List[Optional[Tuple[Node, Optional[Node]]]] = \
        [None] * len(keys)
    for r in replies:
        _, opid, pred, right = r.payload
        results[opid] = (pred, right)
    return results
