"""In-place repair of a wiped module's share of a structure.

The alternative to full rebuild-on-standby
(:class:`repro.recovery.manager.RecoveryManager`): when one module lost
its DRAM (``PIMMachine.wipe_module``) but the rest of the machine is
healthy, re-replicate only that module's share in place.

For the skip list (paper §3.1 placement) a module owns three things:

1. its replica of the upper part (levels >= ``h_low``, incl. the
   sentinel tower) plus its ``next_leaf`` slot on every upper leaf,
2. the lower-part nodes hashed to it -- in particular the leaves, whose
   *values* are the only data that cannot be recomputed from surviving
   replicas and must come from a checkpoint,
3. its private search state: local leaf list links, cuckoo hash table.

:func:`reattach_module` rebuilds all three.  Topology is recovered from
the surviving replicated upper part and the other modules' lower nodes
(every lost node is reachable from a healthy neighbor); values come from
the caller's checkpoint mapping.  Work and words are charged on the
repaired module; like ``bulk_build``, the re-replication stream itself
arrives over the out-of-band bulk channel and bills no network rounds.

:func:`reattach_lsm_module` composes the skip-list repair of the LSM's
delta with a re-store of the run blocks the module owned, validated
against the checkpoint generation (a compaction after the checkpoint
moves blocks; repair then refuses and the caller falls back to a full
rebuild).
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Optional

from repro.core.hash_table import CuckooHashTable
from repro.core.node import NODE_WORDS, Node
from repro.core.structure import ModuleLocal, SkipListStructure
from repro.recovery.checkpoint import Checkpoint
from repro.structures.lsm import PIMLSMStore

__all__ = ["RepairError", "reattach_lsm_module", "reattach_module"]


class RepairError(RuntimeError):
    """In-place repair cannot reconstruct the module's share."""


def reattach_module(struct: SkipListStructure, mid: int,
                    values: Mapping[Hashable, Any]) -> int:
    """Rebuild module ``mid``'s share of ``struct`` after a wipe.

    ``values`` maps key -> value for (at least) the leaves module
    ``mid`` owns; raises :class:`RepairError` when a leaf's value is
    missing (the caller then either rebuilds from an older full
    checkpoint or degrades).  Returns the number of leaves reattached.
    Post-condition: ``struct.check_integrity()`` passes.
    """
    machine = struct.machine
    module = machine.modules[mid]
    if struct.name in module.state:
        raise RepairError(
            f"module {mid} still holds state for {struct.name!r}; "
            "reattach_module expects a wiped module")

    # Leaves the module owns, in key order, and the values they lost.
    chain = [leaf for leaf in struct.iter_level(0) if leaf.owner == mid]
    missing = [leaf.key for leaf in chain if leaf.key not in values]
    if missing:
        raise RepairError(
            f"checkpoint misses {len(missing)} value(s) for module {mid} "
            f"(first: {missing[0]!r})")

    # 1. Fresh private state (same rng salt as construction keeps the
    #    cuckoo draw stream deterministic across repairs).
    ml = ModuleLocal(table=CuckooHashTable(
        rng=machine.spawn_rng(0x7AB1E0 + mid), charge=module.charge))
    module.state[struct.name] = ml

    # 2. Re-replicate the upper part: sentinel tower share, then one
    #    share of every upper node, one work unit per copied node.
    module.alloc_words(len(struct.sentinels) * NODE_WORDS + 1)
    module.charge(len(struct.sentinels))
    for lvl in range(struct.h_low, struct.top_level + 1):
        for node in struct.iter_level(lvl):
            struct.account_upper_alloc_on(mid, node)
            module.charge(1)

    # 3. Re-materialize the lower-part nodes hashed to this module.
    #    Topology comes from surviving neighbors; leaf values from the
    #    checkpoint.
    for lvl in range(min(struct.h_low, struct.top_level + 1)):
        for node in struct.iter_level(lvl):
            if node.owner != mid:
                continue
            struct.account_lower_alloc(node)
            module.charge(1)
            if lvl == 0:
                node.value = values[node.key]

    # 4. Local leaf list + hash table, in key order.
    prev: Optional[Node] = None
    for leaf in chain:
        leaf.local_left = prev
        leaf.local_right = None
        if prev is not None:
            prev.local_right = leaf
        prev = leaf
        ml.table.insert(leaf.key, leaf)
        module.charge(1)
    ml.first_leaf = chain[0] if chain else None
    ml.last_leaf = chain[-1] if chain else None
    ml.leaf_count = len(chain)

    # 5. next-leaf pointers: the same descending two-pointer sweep as
    #    bulk_build, restricted to this module's slot.
    upper_leaves = ([struct.upper_leaf_sentinel]
                    + list(struct.iter_level(struct.h_low)))
    j = len(chain) - 1
    for u in reversed(upper_leaves):
        while j >= 0 and chain[j].key >= u.key:
            j -= 1
        u.next_leaf[mid] = chain[j + 1] if j + 1 < len(chain) else None
        module.charge(1)

    # Routable again.  Repair runs out-of-round, so on a machine hosting
    # several structures the caller reattaches each before any round
    # executes -- marking here is safe and covers the common case.
    machine.mark_repaired(mid)
    return len(chain)


def reattach_lsm_module(lsm: PIMLSMStore, mid: int, chk: Checkpoint) -> int:
    """Rebuild module ``mid``'s share of ``lsm`` after a wipe.

    Requires an LSM checkpoint taken at the store's *current*
    generation (no compaction in between -- block placement must not
    have moved); otherwise raises :class:`RepairError` and the caller
    falls back to a full rebuild.  Returns the number of run blocks
    re-stored.
    """
    if chk.kind != "lsm":
        raise RepairError(f"not an LSM checkpoint: {chk.kind!r}")
    if chk.payload["generation"] != lsm.generation:
        raise RepairError(
            f"stale checkpoint: generation {chk.payload['generation']} != "
            f"current {lsm.generation} (compaction moved the blocks)")
    module = lsm.machine.modules[mid]
    if lsm.name in module.state:
        raise RepairError(
            f"module {mid} still holds state for {lsm.name!r}; "
            "reattach_lsm_module expects a wiped module")

    # Delta skip list share first (values incl. tombstones come from
    # the checkpoint's delta snapshot).
    reattach_module(lsm.delta.struct, mid, dict(chk.payload["delta"]))

    # Re-store the run blocks this module owns, from the checkpoint.
    blocks = module.state.setdefault(lsm.name, {})
    restored = 0
    for bid, owner in enumerate(lsm.block_owner):
        if owner != mid:
            continue
        block = [tuple(entry) for entry in chk.payload["blocks"][bid]]
        blocks[bid] = block
        module.alloc_words(2 * len(block))
        module.charge(len(block) + 1)
        restored += 1
    lsm.machine.mark_repaired(mid)
    return restored
