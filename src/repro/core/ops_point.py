"""Batched Get and Update (paper §4.1).

A Get/Update shortcuts straight to the module owning the key's leaf: the
lower part is placed by a hash on (key, level), so the CPU can compute the
leaf's module without touching the pointer structure, and the module
resolves the key through its local de-amortized hash table in O(1) whp
work.

PIM-balance (Theorem 4.1): the batch (size ``P log P``) is first
semisorted on the CPU side to remove duplicate keys -- otherwise an
adversarial batch of ``P log P`` copies of one key would concentrate the
whole batch on one module.  After deduplication, distinct keys hash to
uniformly random modules, so by Lemma 2.1 each module receives
``O(log P)`` operations whp: ``O(log P)`` IO time and ``O(log P)`` PIM
time, independent of the key distribution.

Both ops are single-stage routes (:mod:`repro.ops`): semisort,
issue the deduplicated sends to the handlers below, and fan the results
back out to duplicate positions.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.core.structure import SkipListStructure
from repro.cpuside.semisort import dedup_last, group_positions
from repro.ops import run_batch
from repro.sim.task import Reply


def update_handlers(sl: SkipListStructure) -> Any:
    """The hash-shortcut Update's batch body.

    Batched Update registers it as ``pt_update`` and batched Upsert's
    phase A as ``ups_try_update``: one body, two function ids.  The
    table charges its probes through the ``module.charge`` it was built
    with; the task's own unit goes to ``bct.work``.
    """
    name = sl.name

    def batch_update(bct, chunks):
        modules = bct.machine.modules
        work = bct.work
        sent = bct.sent
        rep_append = bct.replies.append
        tracing = bct.tracing
        for ch in chunks:
            for mid, (key, value), tag, _size in bct.rows_of(ch):
                leaf = modules[mid].state[name].table.lookup(key)
                work[mid] += 1
                sent[mid] += 1
                if leaf is None:
                    rep_append(Reply((key, False), tag, mid))
                    continue
                leaf.value = value
                if tracing:
                    bct.touch(mid, leaf.nid)
                rep_append(Reply((key, True), tag, mid))

    return batch_update


def make_handlers(sl: SkipListStructure) -> None:
    """Register the point operations' batch bodies on ``sl``'s machine."""
    name = sl.name

    def batch_get(bct, chunks):
        modules = bct.machine.modules
        work = bct.work
        sent = bct.sent
        rep_append = bct.replies.append
        tracing = bct.tracing
        for ch in chunks:
            for mid, (key,), tag, _size in bct.rows_of(ch):
                leaf = modules[mid].state[name].table.lookup(key)
                work[mid] += 1
                sent[mid] += 1
                if leaf is None:
                    rep_append(Reply((key, None), tag, mid))
                    continue
                if tracing:
                    bct.touch(mid, leaf.nid)
                rep_append(Reply((key, leaf.value), tag, mid))

    machine = sl.machine
    machine.register(f"{name}:pt_get", batch_get)
    machine.register(f"{name}:pt_update", update_handlers(sl))


def _get_route(sl, keys):
    cpu = sl.machine.cpu
    n = len(keys)
    if n == 0:
        return []
    with cpu.region(2 * n):
        # Semisort to deduplicate (O(B) expected work, O(log B) whp
        # depth).
        groups = group_positions(cpu, keys)
        distinct = list(groups)
        replies = yield sl.shortcut_stage(f"{sl.name}:pt_get", distinct,
                                          zip(distinct))
        results: List[Optional[Any]] = [None] * n
        for r in replies:
            key, value = r.payload
            for i in groups[key]:
                results[i] = value
        # Fan-out of results to duplicates: O(B) work, O(log B) depth.
        cpu.charge(n, max(1.0, math.log2(n)))
    return results


def _update_route(sl, pairs):
    cpu = sl.machine.cpu
    n = len(pairs)
    if n == 0:
        return 0
    with cpu.region(2 * n):
        wanted = dedup_last(cpu, pairs)
        replies = yield sl.shortcut_stage(
            f"{sl.name}:pt_update", list(wanted), wanted.items())
        found = sum(1 for r in replies if r.payload[1])
    return found


def batch_get(sl: SkipListStructure,
              keys: Sequence[Hashable]) -> List[Optional[Any]]:
    """Execute a batch of Get operations; returns values aligned to input.

    Missing keys yield ``None``.
    """
    return run_batch(sl.machine, f"{sl.name}:batch_get",
                     _get_route(sl, keys))


def batch_update(sl: SkipListStructure,
                 pairs: Sequence[Tuple[Hashable, Any]]) -> int:
    """Execute a batch of Update operations; returns the number of keys
    found (non-existent keys are ignored, per the paper).

    Duplicate keys within the batch are deduplicated with the *last*
    occurrence winning (batches are sets in the model; we define a
    deterministic tie-break for convenience).
    """
    return run_batch(sl.machine, f"{sl.name}:batch_update",
                     _update_route(sl, pairs))
