"""Skip-list nodes and the key ordering (including the -inf sentinel).

A node exists for each (key, level) pair of a tower, linked four ways as
in the paper (§3.2): ``left``/``right`` within a level, ``up``/``down``
within a tower.  Three extra pointer families support range operations:
``local_left``/``local_right`` chain a module's leaves into its *local
leaf list*, and each upper-part leaf carries a per-module ``next_leaf``
pointer into that module's local leaf list.

Ownership: a node is either *lower-part* (owned by one module, chosen by
the structure's (key, level) hash) or *upper-part* / sentinel (owner
:data:`UPPER`, logically replicated in every module; the simulator keeps
one object and charges its memory once per module).

Nodes carry a monotonically increasing ``nid`` used for deterministic
identities in tracing and list contraction.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

UPPER = -1
"""Owner sentinel: the node is replicated in every PIM module."""

NODE_WORDS = 8
"""Accounted size of one node in words (pointers + key + value + flags)."""


class _NegInf:
    """The -infinity key: compares less than every other key."""

    _instance: Optional["_NegInf"] = None

    def __new__(cls) -> "_NegInf":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other: Any) -> bool:
        return other is not self

    def __le__(self, other: Any) -> bool:
        return True

    def __gt__(self, other: Any) -> bool:
        return False

    def __ge__(self, other: Any) -> bool:
        return other is self

    def __eq__(self, other: Any) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0x5EB1A9

    def __repr__(self) -> str:
        return "-inf"


NEG_INF = _NegInf()
"""Singleton -infinity key used by the sentinel tower."""

_nid_counter = itertools.count(1)


class Node:
    """One (key, level) element of a skip-list tower.

    Attributes
    ----------
    key, level, value:
        ``value`` is meaningful only at level 0 (the leaf).
    owner:
        Module id for lower-part nodes, :data:`UPPER` for replicated ones.
    left, right, up, down:
        The solid pointers of Fig. 2 (point operations).
    local_left, local_right:
        Leaf-only: neighbors within the owning module's local leaf list
        (dashed pointers of Fig. 2).
    next_leaf:
        Upper-part-leaf only: per-module pointer to the first leaf with
        key >= this node's key in that module's local leaf list.
    up_chain:
        Leaf-only (paper §4.3 step 5): the lower-part nodes of this
        tower above the leaf, recorded at insert time so Delete can mark
        the tower without a search.
    has_upper:
        Leaf-only flag: the tower continues into the upper part.
    deleted:
        Deletion mark set during batched Delete stage 1.
    """

    __slots__ = (
        "nid", "key", "level", "value", "owner",
        "left", "right", "up", "down",
        "local_left", "local_right", "next_leaf",
        "up_chain", "has_upper", "deleted",
    )

    def __init__(self, key: Any, level: int, owner: int,
                 value: Any = None) -> None:
        self.nid: int = next(_nid_counter)
        self.key = key
        self.level = level
        self.value = value
        self.owner = owner
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.up: Optional[Node] = None
        self.down: Optional[Node] = None
        self.local_left: Optional[Node] = None
        self.local_right: Optional[Node] = None
        self.next_leaf: Optional[List[Optional[Node]]] = None
        self.up_chain: Optional[List[Node]] = None
        self.has_upper: bool = False
        self.deleted: bool = False

    @property
    def is_sentinel(self) -> bool:
        return self.key is NEG_INF

    def init_next_leaf(self, num_modules: int) -> None:
        """Allocate the per-module next-leaf array (upper-part leaves)."""
        self.next_leaf = [None] * num_modules

    def clear_links(self) -> None:
        """Drop every pointer this node holds (a node leaving the
        structure for good).  Neighbors link both ways and towers link
        up and down, so a removed node that kept its pointers would be
        part of a reference cycle; cleared, it dies by reference count
        (see :func:`repro.ops.batch_epoch`)."""
        self.left = self.right = self.up = self.down = None
        self.local_left = self.local_right = None
        self.next_leaf = None
        self.up_chain = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        own = "U" if self.owner == UPPER else str(self.owner)
        return f"Node({self.key!r}@L{self.level}/{own}{'#' if self.deleted else ''})"


NodeId = int
"""Alias for the integer node identity used in traces and contraction."""
