"""CPU-side parallel comparison sorting.

The paper charges sorting a batch of ``B`` keys ``O(B log B)`` expected
CPU work and ``O(log B)`` whp depth (sample sort in the binary-forking
model, Blelloch et al. [9]).  For a batch of ``P log^2 P`` keys this is
the ``O(P log^3 P)`` expected work / ``O(log P)`` whp depth the Successor
analysis quotes.

The simulator executes Python's Timsort and charges the sample-sort cost.
The charge is a formula of ``n`` alone, so how the host orders the batch
is free to change: :func:`sort_positions` sorts a batch's *positions*
by its keys with no per-key Python call.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from repro.sim.cpu import CPUSide, WorkDepth

T = TypeVar("T")


def _log2(n: int) -> float:
    return max(1.0, math.log2(n)) if n > 1 else 1.0


def parallel_sort(cpu: CPUSide, items: Sequence[T],
                  key: Optional[Callable[[T], Any]] = None,
                  reverse: bool = False) -> List[T]:
    """Sort ``items``: ``O(n log n)`` expected work, ``O(log n)`` whp depth."""
    out = sorted(items, key=key, reverse=reverse)
    n = len(items)
    if n:
        cpu.charge_wd(WorkDepth(n * _log2(n), _log2(n)))
    return out


def sort_positions(cpu: CPUSide, keys: Sequence[Any]) -> List[int]:
    """The positions ``0..n-1`` ordered by ``keys``, equal keys by position.

    The index-stable form of ``parallel_sort(cpu, range(n), key=lambda i:
    (keys[i], i))``, same charge: the sort is stable over ascending
    positions, so ties need no tuple key, and ``keys.__getitem__`` is the
    key function, so no Python frame runs per key.
    """
    n = len(keys)
    out = sorted(range(n), key=keys.__getitem__)
    if n:
        cpu.charge_wd(WorkDepth(n * _log2(n), _log2(n)))
    return out


def merge_sorted(cpu: CPUSide, a: Sequence[T], b: Sequence[T],
                 key: Optional[Callable[[T], Any]] = None) -> List[T]:
    """Merge two sorted sequences: ``O(n)`` work, ``O(log n)`` depth.

    (Parallel merge by dual binary search; the simulator executes the
    sequential two-finger merge and charges the parallel cost.)
    """
    keyf = key if key is not None else (lambda x: x)
    out: List[T] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if keyf(a[i]) <= keyf(b[j]):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    n = len(out)
    if n:
        cpu.charge_wd(WorkDepth(n, _log2(n)))
    return out
