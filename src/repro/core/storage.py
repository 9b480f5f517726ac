"""Storage backends for the skip-list structure: object graph vs node arena.

The structure layer (:mod:`repro.core.structure`) keeps its algorithms on
the linked :class:`~repro.core.node.Node` graph -- that is the shared
algorithm both storage backends execute, which is what makes their
round/word accounting identical by construction.  The *storage backend*
decides how the structure's state is additionally laid out in memory:

- ``"object"`` -- the heap-allocated node graph alone (the reference
  layout; zero bookkeeping overhead);
- ``"arena"`` -- the node graph plus a :class:`NodeArena`: flat,
  contiguous, integer-indexed arrays (int64 keys, values, level, owner,
  and per-node successor/down/up *indices*) with a free-list for
  delete/upsert churn.  Every pointer mutation the structure performs is
  mirrored into the arrays through the narrow API below, so the hot
  search walk (:mod:`repro.core.ops_search`) can advance an entire
  wavefront per round with numpy gather/compare over the arena instead
  of chasing Python object pointers.

The narrow storage API -- the only thing the ``ops_*`` modules and the
structure's mutators may call -- is :meth:`StorageBackend.alloc`,
:meth:`StorageBackend.free`, :meth:`StorageBackend.link` (a pointer-field
write) and :meth:`StorageBackend.set_value`, plus the read-side
:meth:`StorageBackend.succ`.  For the object backend each hook is a
no-op (the object pointers, written by the shared algorithm, *are* the
storage); for the arena backend each hook maintains the arrays.

Selection: ``PIMSkipList(storage="object" | "arena")``, with the
:data:`STORAGE_ENV_VAR` environment variable supplying the default for
structures built without an explicit argument.  Model metrics are
certified bit-identical across storages by ``repro.verify.differ``'s
cross-storage replay; only wall-clock behaviour differs.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional

import numpy as _np

from repro.core.node import NEG_INF, Node

#: Environment variable overriding the structure-storage backend for
#: skip lists constructed without an explicit ``storage=`` argument.
#: Accepted values: ``"object"`` or ``"arena"``.
STORAGE_ENV_VAR = "REPRO_STRUCT_STORAGE"

#: The two structure-storage backends.
STORAGES = ("object", "arena")

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1


def resolve_storage(storage: Optional[str]) -> str:
    """Resolve a storage selection to ``"object"`` or ``"arena"``.

    ``None`` (unspecified) consults :data:`STORAGE_ENV_VAR`, defaulting
    to ``"object"``.  An explicit argument always wins over the
    environment.  Unknown names raise ``ValueError`` either way.
    """
    origin = "storage"
    if storage is None:
        storage = os.environ.get(STORAGE_ENV_VAR) or "object"
        origin = STORAGE_ENV_VAR
    if storage not in STORAGES:
        raise ValueError(
            f"unknown structure storage {storage!r} (from {origin}); "
            f"expected one of {', '.join(STORAGES)}")
    return storage


def key_to_i64(key: Any) -> Optional[int]:
    """Map a stored key to its int64 arena representation.

    Plain Python ints strictly inside the int64 range map to themselves;
    the -inf sentinel maps to ``I64_MIN``.  Everything else (strings,
    floats, bools, huge ints, probe objects) returns ``None`` -- such
    keys force the vectorized walk onto its scalar fallback.
    """
    if type(key) is int and I64_MIN < key < I64_MAX:
        return key
    if key is NEG_INF:
        return I64_MIN
    return None


class NodeArena:
    """Level-agnostic flat node storage: one row per live node.

    Rows are addressed by *arena id* (``aid``, stamped onto the node's
    ``aid`` slot at :meth:`alloc` time).  Columns are parallel arrays --
    numpy int64 for the integer fields (the vectorized walk's gather
    targets), plain Python lists for the object-valued ones.
    ``right`` / ``down`` / ``up`` hold successor *indices* (-1 for no
    neighbor); ``key_i64`` holds the int64 image of the key (rows whose
    key has no int64 image are tracked in ``_bad_keys`` and disable
    :attr:`vector_ok` while live).  Freed rows go onto a free-list and
    are reused by later allocations, so delete/upsert churn does not
    grow the arrays.
    """

    __slots__ = (
        "key_i64", "key_ok", "keys", "values", "level", "owner",
        "right", "down", "up", "live", "nodes",
        "_free", "_n", "_cap", "_bad_keys",
        "allocs", "frees", "reuses", "live_count",
    )

    # int64 ndarrays.
    key_i64: Any
    level: Any
    owner: Any
    right: Any
    down: Any
    up: Any

    def __init__(self) -> None:
        self._cap = 0
        self._n = 0
        self._bad_keys = 0
        self._free: List[int] = []
        empty = _np.empty(0, dtype=_np.int64)
        self.key_i64 = empty
        self.level = empty.copy()
        self.owner = empty.copy()
        self.right = empty.copy()
        self.down = empty.copy()
        self.up = empty.copy()
        self.key_ok: List[bool] = []
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.live: List[bool] = []
        self.nodes: List[Optional[Node]] = []
        self.allocs = 0
        self.frees = 0
        self.reuses = 0
        self.live_count = 0

    # -- geometry ----------------------------------------------------------

    def __len__(self) -> int:
        return self.live_count

    @property
    def size(self) -> int:
        """High-water row count (live + freed rows)."""
        return self._n

    @property
    def vector_ok(self) -> bool:
        """True when the numpy wavefront walk may read these arrays:
        every live key has a faithful int64 image."""
        return self._bad_keys == 0

    def _grow(self) -> None:
        new_cap = max(64, self._cap * 2)
        add = new_cap - self._cap
        for name in ("key_i64", "level", "owner", "right", "down", "up"):
            old = getattr(self, name)
            arr = _np.empty(new_cap, dtype=_np.int64)
            arr[: self._cap] = old
            setattr(self, name, arr)
        self.key_ok.extend([True] * add)
        self.keys.extend([None] * add)
        self.values.extend([None] * add)
        self.live.extend([False] * add)
        self.nodes.extend([None] * add)
        self._cap = new_cap

    # -- the narrow write API ----------------------------------------------

    def alloc(self, node: Node) -> int:
        """Register ``node``: claim a row (reusing a freed one when
        available), copy its scalar fields in, stamp ``node.aid``."""
        if self._free:
            aid = self._free.pop()
            self.reuses += 1
        else:
            if self._n == self._cap:
                self._grow()
            aid = self._n
            self._n += 1
        k64 = key_to_i64(node.key)
        if k64 is None:
            self.key_i64[aid] = 0
            self.key_ok[aid] = False
            self._bad_keys += 1
        else:
            self.key_i64[aid] = k64
            self.key_ok[aid] = True
        self.keys[aid] = node.key
        self.values[aid] = node.value
        self.level[aid] = node.level
        self.owner[aid] = node.owner
        self.right[aid] = -1
        self.down[aid] = -1
        self.up[aid] = -1
        self.live[aid] = True
        self.nodes[aid] = node
        self.allocs += 1
        self.live_count += 1
        node.aid = aid
        return aid

    def free(self, node: Node) -> None:
        """Release ``node``'s row onto the free-list."""
        aid = node.aid
        if aid < 0 or self.nodes[aid] is not node:
            raise AssertionError(
                f"arena free of unregistered node {node!r} (aid={aid})")
        if not self.live[aid]:
            raise AssertionError(f"arena double free of {node!r}")
        if not self.key_ok[aid]:
            self._bad_keys -= 1
            self.key_ok[aid] = True
        self.live[aid] = False
        self.nodes[aid] = None
        self.keys[aid] = None
        self.values[aid] = None
        self.right[aid] = -1
        self.down[aid] = -1
        self.up[aid] = -1
        self.frees += 1
        self.live_count -= 1
        node.aid = -1
        self._free.append(aid)

    def link(self, node: Node, field: str, target: Optional[Node]) -> None:
        """Mirror the pointer write ``node.field = target`` (``field`` in
        ``right`` / ``down`` / ``up``) as an index write."""
        aid = node.aid
        if aid < 0 or self.nodes[aid] is not node:
            raise AssertionError(
                f"arena link on unregistered node {node!r} ({field})")
        if target is None:
            t = -1
        else:
            t = target.aid
            if t < 0 or self.nodes[t] is not target:
                raise AssertionError(
                    f"arena link target not resident: {target!r} ({field})")
        if field == "right":
            self.right[aid] = t
        elif field == "down":
            self.down[aid] = t
        elif field == "up":
            self.up[aid] = t
        else:
            raise ValueError(f"arena does not mirror field {field!r}")

    def set_value(self, node: Node, value: Any) -> None:
        """Mirror a leaf value write."""
        aid = node.aid
        if aid < 0 or self.nodes[aid] is not node:
            raise AssertionError(
                f"arena set_value on unregistered node {node!r}")
        self.values[aid] = value

    # -- the read API -------------------------------------------------------

    def node_at(self, aid: int) -> Optional[Node]:
        """The node occupying row ``aid`` (``None`` for freed rows)."""
        return self.nodes[aid]

    def succ(self, aid: int, lvl: Optional[int] = None) -> int:
        """Successor index of row ``aid``: its right neighbor at its own
        level, or -- given ``lvl`` -- at level ``lvl`` of its tower
        (navigating the mirrored up/down indices)."""
        if lvl is not None:
            while int(self.level[aid]) > lvl:
                aid = int(self.down[aid])
                if aid < 0:
                    raise IndexError("tower gap while descending")
            while int(self.level[aid]) < lvl:
                aid = int(self.up[aid])
                if aid < 0:
                    raise IndexError("tower ends below requested level")
        return int(self.right[aid])

    def stats(self) -> dict:
        """Occupancy and churn counters (diagnostic)."""
        return {
            "rows": self._n,
            "capacity": self._cap,
            "live": self.live_count,
            "free": len(self._free),
            "allocs": self.allocs,
            "frees": self.frees,
            "reuses": self.reuses,
            "bad_keys": self._bad_keys,
        }


class StorageBackend:
    """The object storage backend (and the hook contract).

    Object pointers written by the shared algorithms *are* this layout,
    so every mirror hook is a no-op.  ``mirrors`` lets hot paths skip
    the call entirely.
    """

    kind = "object"
    mirrors = False
    arena: Optional[NodeArena] = None

    def alloc(self, node: Node) -> None:
        pass

    def free(self, node: Node) -> None:
        pass

    def link(self, node: Node, field: str, target: Optional[Node]) -> None:
        pass

    def set_value(self, node: Node, value: Any) -> None:
        pass

    def succ(self, node: Node, lvl: Optional[int] = None) -> Optional[Node]:
        """The successor node at ``lvl`` (default: the node's own level),
        navigating the object graph."""
        if lvl is not None:
            while node.level > lvl:
                assert node.down is not None, "tower gap while descending"
                node = node.down
            while node.level < lvl:
                assert node.up is not None, "tower ends below level"
                node = node.up
        return node.right


class ObjectStorage(StorageBackend):
    """Alias backend name for the plain object-graph layout."""


class ArenaStorage(StorageBackend):
    """The arena backend: object graph + mirrored flat arrays."""

    kind = "arena"
    mirrors = True

    def __init__(self) -> None:
        self.arena = NodeArena()

    def alloc(self, node: Node) -> None:
        self.arena.alloc(node)

    def free(self, node: Node) -> None:
        self.arena.free(node)

    def link(self, node: Node, field: str, target: Optional[Node]) -> None:
        self.arena.link(node, field, target)

    def set_value(self, node: Node, value: Any) -> None:
        self.arena.set_value(node, value)

    def succ(self, node: Node, lvl: Optional[int] = None) -> Optional[Node]:
        arena = self.arena
        assert arena is not None
        r = arena.succ(node.aid, lvl)
        return arena.nodes[r] if r >= 0 else None


def make_storage(storage: Optional[str] = None) -> StorageBackend:
    """Construct the resolved storage backend instance."""
    kind = resolve_storage(storage)
    if kind == "arena":
        return ArenaStorage()
    return ObjectStorage()
