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


def _point_body(name: str, update: bool) -> Any:
    """A hash-shortcut point body: each task looks its key up in its
    module's table (which charges its probes through the
    ``module.charge`` it was built with; the task's own unit goes to
    ``bct.work``) and, for an Update, overwrites the leaf's value.

    It answers in columns: one reply per run of one tag -- one per call
    for a route's untagged stage -- whose payload is the kind (``"get"``
    / ``"update"``), the keys and the values read (``None`` for a miss)
    or whether each key was found, and whose ``src`` lists the replying
    modules, a row each."""
    kind = "update" if update else "get"

    def body(bct, chunks):
        modules = bct.machine.modules
        work = bct.work
        sent = bct.sent
        tracing = bct.tracing
        srcs = keys = answers = None
        run_tag: Any = body  # no row's tag: the first row opens a run
        for ch in chunks:
            for mid, args, tag, _size in bct.rows_of(ch):
                key = args[0]
                leaf = modules[mid].state[name].table.lookup(key)
                work[mid] += 1
                sent[mid] += 1
                if tag is not run_tag:
                    run_tag = tag
                    srcs, keys, answers = [], [], []
                    bct.replies.append(Reply((kind, keys, answers), tag,
                                             srcs))
                srcs.append(mid)
                keys.append(key)
                if leaf is None:
                    answers.append(False if update else None)
                    continue
                if update:
                    leaf.value = args[1]
                if tracing:
                    bct.touch(mid, leaf.nid)
                answers.append(True if update else leaf.value)

    return body


def update_handlers(sl: SkipListStructure) -> Any:
    """The hash-shortcut Update's batch body.

    Batched Update registers it as ``pt_update`` and batched Upsert's
    phase A as ``ups_try_update``: one body, two function ids.
    """
    return _point_body(sl.name, True)


def make_handlers(sl: SkipListStructure) -> None:
    """Register the point operations' batch bodies on ``sl``'s machine."""
    machine = sl.machine
    machine.register(f"{sl.name}:pt_get", _point_body(sl.name, False))
    machine.register(f"{sl.name}:pt_update", update_handlers(sl))


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
        replies = yield [sl.shortcut_stage(f"{sl.name}:pt_get", distinct)]
        results: List[Optional[Any]] = [None] * n
        for r in replies:
            _, got, values = r.payload
            for key, value in zip(got, values):
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
        replies = yield [sl.shortcut_stage(
            f"{sl.name}:pt_update", list(wanted), list(wanted.values()))]
        found = sum(sum(r.payload[2]) for r in replies)
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
