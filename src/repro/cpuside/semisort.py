"""CPU-side semisorting (grouping by key) and batch deduplication.

A semisort gathers equal keys together without fully ordering distinct
keys.  The paper uses it to deduplicate Get/Update batches: semisorting
``B`` records costs ``O(B)`` expected CPU work and ``O(log B)`` whp depth
(Gu et al. [18], Blelloch et al. [9]).

The simulator groups through a Python dict (a stand-in for the parallel
hash-based semisort) and charges the canonical cost.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple, TypeVar

from repro.sim.cpu import CPUSide, WorkDepth

T = TypeVar("T")


def _log2(n: int) -> float:
    return max(1.0, math.log2(n)) if n > 1 else 1.0


def semisort(cpu: CPUSide, items: Sequence[T],
             key: Callable[[T], Hashable]) -> List[T]:
    """Reorder ``items`` so records with equal keys are adjacent.

    ``O(n)`` expected work, ``O(log n)`` whp depth.
    """
    groups = group_by(cpu, items, key)
    out: List[T] = []
    for _, grp in groups.items():
        out.extend(grp)
    return out


def group_by(cpu: CPUSide, items: Sequence[T],
             key: Callable[[T], Hashable]) -> "Dict[Hashable, List[T]]":
    """Group ``items`` by ``key`` (semisort + boundary detection).

    ``O(n)`` expected work, ``O(log n)`` whp depth.  Insertion order of
    first occurrence is preserved (deterministic for testing).
    """
    out: Dict[Hashable, List[T]] = {}
    for x in items:
        out.setdefault(key(x), []).append(x)
    n = len(items)
    if n:
        cpu.charge_wd(WorkDepth(2 * n, _log2(n)))
    return out


def group_positions(cpu: CPUSide, keys: Sequence[Hashable],
                    ) -> "Dict[Hashable, List[int]]":
    """The positions of each distinct key of ``keys``: ``group_by(cpu,
    range(n), key=lambda i: keys[i])`` without a Python call per key.

    Same charge, same first-occurrence key order, positions ascending
    within a group.
    """
    out: Dict[Hashable, List[int]] = {}
    setdefault = out.setdefault
    for i, k in enumerate(keys):
        setdefault(k, []).append(i)
    n = len(keys)
    if n:
        cpu.charge_wd(WorkDepth(2 * n, _log2(n)))
    return out


def dedup_last(cpu: CPUSide, pairs: Sequence[Tuple[Hashable, T]],
               ) -> "Dict[Hashable, T]":
    """Deduplicate ``(key, value)`` pairs, the last value of a key
    winning: ``{k: occ[-1][1] for k, occ in group_by(cpu, pairs, key=
    first).items()}`` as one ``dict`` call.  Same charge, same
    first-occurrence key order (and the first occurrence's key object).
    """
    out = dict(pairs)
    n = len(pairs)
    if n:
        cpu.charge_wd(WorkDepth(2 * n, _log2(n)))
    return out


def dedup(cpu: CPUSide, items: Sequence[T],
          key: Callable[[T], Hashable]) -> Tuple[List[T], Dict[Hashable, List[T]]]:
    """Deduplicate a batch by ``key``.

    Returns ``(representatives, groups)``: one representative per distinct
    key (the first occurrence) plus the full groups, so the caller can
    scatter one query per distinct key and then fan results back out to
    every duplicate.  ``O(n)`` expected work, ``O(log n)`` whp depth.
    """
    groups = group_by(cpu, items, key)
    reps = [grp[0] for grp in groups.values()]
    n = len(items)
    if n:
        cpu.charge_wd(WorkDepth(n, _log2(n)))
    return reps, groups
