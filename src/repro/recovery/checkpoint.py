"""Logical checkpoints of PIM data structures.

A checkpoint is a *logical* snapshot: the structure's contents in a
canonical, structure-specific form, not a byte image of module memory.
Capture is diagnostic and cost-free -- the model's checkpoint stream
leaves over the same out-of-band bulk channel that ``bulk_build`` uses
for initial loading (the paper assumes the input "starts evenly divided
among the PIM modules"; a checkpoint drain is the reverse of that bulk
load).  *Restore* is the opposite: it re-enters the machine through the
ordinary batched operations and is charged honestly (rounds, messages,
PIM work, words).

Canonical payloads:

- the three ordered maps -- :class:`~repro.core.skiplist.PIMSkipList`,
  :class:`~repro.structures.lsm.PIMLSMStore` and
  :class:`~repro.structures.pimtree.PIMTree` -- sorted ``(key, value)``
  list.  The LSM's is its run merged with its delta, the delta
  shadowing the run and tombstones dropped; a restore upserts it into
  an empty store.  The tree's is drained leaf by leaf along the chain;
  a restore bulk-loads an empty tree (shadow promotions restart cold --
  they are a cache).
- :class:`~repro.structures.fifo.PIMQueue` -- queued values oldest
  first.  A restore re-enqueues them, so sequence counters restart at
  zero; FIFO semantics are unchanged.
- :class:`~repro.structures.priority_queue.PIMPriorityQueue` --
  ``(priority, value)`` pairs in extraction order.  A restore re-inserts
  them in that order, so fresh tiebreaks preserve FIFO among equal
  priorities.

The skip lists' object graphs (the skip list, the LSM's delta, the
priority queue) are CPU-visible.  The LSM's run blocks, the FIFO's
slots and the tree's leaves live *only* in module DRAM, so capturing
one of them from a machine whose wiped module holds part of it raises
:class:`CheckpointUnavailable`; the recovery manager keeps its previous
checkpoint + log instead, and the wiped module stays unreachable until
the manager fails over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.skiplist import PIMSkipList
from repro.structures.fifo import PIMQueue
from repro.structures.lsm import TOMBSTONE, PIMLSMStore
from repro.structures.pimtree import PIMTree
from repro.structures.priority_queue import PIMPriorityQueue

__all__ = [
    "Checkpoint",
    "CheckpointUnavailable",
    "checkpoint_structure",
    "restore_structure",
]


class CheckpointUnavailable(RuntimeError):
    """Capture would read a wiped (unreadable) module; the caller should
    keep its previous checkpoint and try again after the next batch."""


@dataclass(frozen=True)
class Checkpoint:
    """One logical snapshot of one structure.

    ``kind`` names the structure family (``skiplist`` / ``lsm`` /
    ``pimtree`` / ``fifo`` / ``pq``), ``name`` is the instance name on
    its machine and ``payload`` the canonical contents (see module
    docstring).
    """

    kind: str
    name: str
    payload: Any

    def item_count(self) -> int:
        """Logical item count."""
        return len(self.payload)


def _module_state(obj: Any, mid: int, what: str) -> Any:
    """``obj``'s state on module ``mid``, which holds ``what``;
    :class:`CheckpointUnavailable` when the module was wiped."""
    machine = obj.machine
    state = (None if mid in machine.wiped_modules
             else machine.modules[mid].state.get(obj.name))
    if state is None:
        raise CheckpointUnavailable(
            f"{obj.name} {what} unreadable on module {mid}")
    return state


def checkpoint_structure(obj: Any) -> Checkpoint:
    """Capture a logical checkpoint of ``obj`` (diagnostic, cost-free)."""
    if isinstance(obj, PIMSkipList):
        items = [(n.key, n.value) for n in obj.struct.iter_level(0)]
        return Checkpoint("skiplist", obj.struct.name, items)
    if isinstance(obj, PIMLSMStore):
        merged: Dict[Any, Any] = {}
        for bid, owner in enumerate(obj.block_owner):
            merged.update(_module_state(obj, owner, f"run block {bid}")[bid])
        for node in obj.delta.struct.iter_level(0):
            if node.value == TOMBSTONE:
                merged.pop(node.key, None)
            else:
                merged[node.key] = node.value
        return Checkpoint("lsm", obj.name, sorted(merged.items()))
    if isinstance(obj, PIMQueue):
        values = [_module_state(obj, obj._owner(seq), f"slot {seq}")[seq]
                  for seq in range(obj.head, obj.tail)]
        return Checkpoint("fifo", obj.name, values)
    if isinstance(obj, PIMPriorityQueue):
        pairs = [(n.key[0], n.value) for n in obj.sl.struct.iter_level(0)]
        return Checkpoint("pq", obj.name, pairs)
    if isinstance(obj, PIMTree):
        items = []
        lid = obj.first_leaf
        while lid is not None:
            owner = obj.leaf_owner[lid]
            leaves = _module_state(obj, owner, f"leaf {lid}")["leaf"]
            if lid not in leaves:
                raise CheckpointUnavailable(
                    f"pimtree leaf {lid} unreadable on module {owner}")
            items.extend(tuple(p) for p in leaves[lid])
            lid = obj.leaf_next[lid]
        return Checkpoint("pimtree", obj.name, items)
    raise TypeError(f"no checkpoint support for {type(obj).__name__}")


#: ``(class, checkpoint kind, emptiness test, batched load method)`` per
#: structure: a restore is one batched load into an empty target.
_RESTORE: List[Tuple[type, str, Any, str]] = [
    (PIMSkipList, "skiplist", lambda t: t.size == 0, "batch_upsert"),
    (PIMLSMStore, "lsm", lambda t: t.size_estimate == 0, "batch_upsert"),
    (PIMQueue, "fifo", lambda t: len(t) == 0, "enqueue_batch"),
    (PIMPriorityQueue, "pq", lambda t: len(t) == 0, "insert_batch"),
    (PIMTree, "pimtree", lambda t: t.first_leaf is None, "build"),
]


def restore_structure(chk: Checkpoint, target: Any) -> int:
    """Load ``chk`` into the freshly built, *empty* structure ``target``.

    Restore re-enters the machine through the structure's ordinary
    batched operations, so it is charged honestly on ``target``'s
    machine (this is the "re-replicate onto standby hardware" leg of
    recovery -- run it on a clean machine).  Returns the number of
    logical items restored.
    """
    for cls, kind, is_empty, load in _RESTORE:
        if isinstance(target, cls):
            if chk.kind != kind:
                raise ValueError(f"checkpoint kind {chk.kind!r} != {kind}")
            if not is_empty(target):
                raise ValueError("restore requires an empty structure")
            if chk.payload:
                getattr(target, load)(list(chk.payload))
            return len(chk.payload)
    raise TypeError(f"no restore support for {type(target).__name__}")
