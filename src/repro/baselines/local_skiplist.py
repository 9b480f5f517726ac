"""A classic sequential skip list (runs *inside* one PIM module).

The coarse-partitioning baselines keep an ordinary ordered structure in
each module's local memory; this is that structure.  Work is charged per
node touched through the same ``charge`` hook the cuckoo table uses, so a
local operation costs ``O(log n_local)`` PIM work as in the papers the
baselines reimplement.
"""

from __future__ import annotations

import random
from typing import (Any, Callable, Dict, Hashable, Iterator, List, Optional,
                    Tuple)

MAX_LEVEL = 48


class _LNode:
    __slots__ = ("key", "value", "nexts")

    def __init__(self, key: Any, value: Any, height: int) -> None:
        self.key = key
        self.value = value
        self.nexts: List[Optional[_LNode]] = [None] * (height + 1)


class _Head:
    __slots__ = ("nexts",)

    def __init__(self) -> None:
        self.nexts: List[Optional[_LNode]] = [None]


class LocalSkipList:
    """Sequential skip list with per-probe work charging."""

    def __init__(self, rng: random.Random,
                 charge: Optional[Callable[[float], None]] = None) -> None:
        self._rng = rng
        self._charge = charge if charge is not None else (lambda w: None)
        self._head = _Head()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def level(self) -> int:
        return len(self._head.nexts) - 1

    def _draw_height(self) -> int:
        h = 0
        while h < MAX_LEVEL and self._rng.random() < 0.5:
            h += 1
        return h

    def _find_preds(self, key: Hashable) -> List[Any]:
        """Node-before-key at every level, top-down; charges per hop."""
        preds: List[Any] = [None] * (self.level + 1)
        x: Any = self._head
        for lvl in range(self.level, -1, -1):
            self._charge(1)
            while x.nexts[lvl] is not None and x.nexts[lvl].key < key:
                x = x.nexts[lvl]
                self._charge(1)
            preds[lvl] = x
        return preds

    # -- queries -----------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        node = self._at(key)
        return node.value if node is not None else default

    def _at(self, key: Hashable) -> Optional[_LNode]:
        preds = self._find_preds(key)
        cand = preds[0].nexts[0]
        if cand is not None and cand.key == key:
            return cand
        return None

    def successor(self, key: Hashable) -> Optional[Tuple[Hashable, Any]]:
        """Smallest (key, value) with key >= the argument."""
        preds = self._find_preds(key)
        cand = preds[0].nexts[0]
        return (cand.key, cand.value) if cand is not None else None

    def predecessor(self, key: Hashable) -> Optional[Tuple[Hashable, Any]]:
        """Largest (key, value) with key <= the argument."""
        preds = self._find_preds(key)
        cand = preds[0].nexts[0]
        if cand is not None and cand.key == key:
            return (cand.key, cand.value)
        p = preds[0]
        if isinstance(p, _Head):
            return None
        return (p.key, p.value)

    def range_scan(self, lkey: Hashable, rkey: Hashable,
                   ) -> List[Tuple[Hashable, Any]]:
        """All (key, value) with lkey <= key <= rkey, ascending."""
        preds = self._find_preds(lkey)
        x = preds[0].nexts[0]
        out: List[Tuple[Hashable, Any]] = []
        while x is not None and x.key <= rkey:
            self._charge(1)
            out.append((x.key, x.value))
            x = x.nexts[0]
        return out

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        x = self._head.nexts[0]
        while x is not None:
            yield (x.key, x.value)
            x = x.nexts[0]

    # -- differential-verification conformance surface ---------------------

    #: Batch ops replayable through :meth:`apply_batch` (sequentially).
    BATCH_CAPS = frozenset({"get", "successor", "upsert", "delete", "range"})

    def apply_batch(self, op: str, payload) -> Optional[List[Any]]:
        """Uniform batch dispatch (contract: see
        :meth:`repro.core.skiplist.PIMSkipList.apply_batch`).

        Sequential: the batch is applied element by element, which is
        exactly what makes this structure a useful second oracle for the
        differential verifier.
        """
        if op == "get":
            return [self.get(k) for k in payload]
        if op == "successor":
            return [self.successor(k) for k in payload]
        if op == "upsert":
            for k, v in payload:
                self.upsert(k, v)
            return None
        if op == "delete":
            for k in payload:
                self.delete(k)
            return None
        if op == "range":
            return [self.range_scan(lo, hi) for lo, hi in payload]
        raise ValueError(f"apply_batch: unknown op {op!r}")

    # -- updates -----------------------------------------------------------

    def upsert(self, key: Hashable, value: Any) -> bool:
        """Insert or overwrite; returns True if the key was new."""
        preds = self._find_preds(key)
        cand = preds[0].nexts[0]
        if cand is not None and cand.key == key:
            cand.value = value
            self._charge(1)
            return False
        h = self._draw_height()
        while self.level < h:
            self._head.nexts.append(None)
            preds.append(self._head)
            self._charge(1)
        node = _LNode(key, value, h)
        for lvl in range(h + 1):
            node.nexts[lvl] = preds[lvl].nexts[lvl]
            preds[lvl].nexts[lvl] = node
            self._charge(1)
        self._size += 1
        return True

    def delete(self, key: Hashable) -> bool:
        preds = self._find_preds(key)
        cand = preds[0].nexts[0]
        if cand is None or cand.key != key:
            return False
        for lvl in range(len(cand.nexts)):
            if preds[lvl].nexts[lvl] is cand:
                preds[lvl].nexts[lvl] = cand.nexts[lvl]
                self._charge(1)
        self._size -= 1
        return True


def module_rows(bct: Any, chunks: List[Any], name: str) -> Iterator[tuple]:
    """``(mid, args, tag, local skip list)`` per row of a partitioned
    baseline's function, charging each task its one unit (the list
    charges its own hops through the module's ``charge``)."""
    modules = bct.machine.modules
    work = bct.work
    for mid, args, tag, _size in bct.rows(chunks):
        work[mid] += 1
        yield mid, args, tag, modules[mid].state[name]


def point_bodies(name: str) -> Dict[str, Callable[..., None]]:
    """The ``get`` / ``upsert`` / ``delete`` batch bodies of a baseline
    that keeps a :class:`LocalSkipList` per module under ``name``."""

    def get(bct, chunks):
        for mid, (key,), tag, local in module_rows(bct, chunks, name):
            bct.reply(mid, (key, local.get(key)), tag)

    def upsert(bct, chunks):
        modules = bct.machine.modules
        for mid, (key, value), tag, local in module_rows(bct, chunks, name):
            created = local.upsert(key, value)
            if created:
                modules[mid].alloc_words(4)
            bct.reply(mid, (key, created), tag)

    def delete(bct, chunks):
        modules = bct.machine.modules
        for mid, (key,), tag, local in module_rows(bct, chunks, name):
            removed = local.delete(key)
            if removed:
                modules[mid].free_words(4)
            bct.reply(mid, (key, removed), tag)

    return {"get": get, "upsert": upsert, "delete": delete}
