"""Sorting on the PIM model.

Two regimes, straight from the model's geometry:

- ``n <= M``: the data fits in the CPU-side shared memory, so sorting is
  a pure CPU-side parallel sort with **zero network communication** --
  the intro's example of why the shared memory earns its place in the
  model (:func:`sort_within_cache`).
- ``n >> M``: the data lives distributed across the modules; sample sort
  fits the model perfectly (:func:`pim_sample_sort`):

  1. each module sorts its part locally (``O((n/P) log(n/P))`` PIM work);
  2. each module sends a random sample of ``Theta(log P)`` keys to the
     CPU (an ``h = Theta(log P)`` relation; ``P log P`` sample keys fit
     in ``M``);
  3. the CPU sorts the sample and broadcasts ``P-1`` splitters;
  4. an all-to-all exchange routes each element to its bucket's module
     -- with random input placement the transfer matrix is balanced
     whp, so ``h = O(n/P)`` (splitters chosen from the sample keep
     bucket sizes ``O(n/P)`` whp as well);
  5. each module merges its received, already-sorted runs.

  Total: ``O((n/P) log n)`` PIM time, ``O(n/P + log P)`` whp IO time,
  ``O(1)`` rounds -- PIM-balanced.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, List, Optional, Sequence

from repro.collectives import Collectives
from repro.cpuside.sort import parallel_sort
from repro.ops import Broadcast, run_batch
from repro.sim.errors import SharedMemoryExceeded
from repro.sim.machine import PIMMachine


def sort_within_cache(machine: PIMMachine, values: Sequence[Any],
                      strict: bool = True) -> List[Any]:
    """Sort CPU-resident data of size <= M with zero IO.

    Raises :class:`SharedMemoryExceeded` when the data does not fit and
    ``strict`` is set (the caller should use :func:`pim_sample_sort`).
    """
    m_words = machine.cpu.shared_memory_words
    if strict and len(values) > m_words:
        raise SharedMemoryExceeded(
            f"{len(values)} values exceed M = {m_words}; "
            "use pim_sample_sort for PIM-resident data"
        )
    with machine.cpu.region(len(values)):
        out = parallel_sort(machine.cpu, values)
    return out


def pim_sample_sort(machine: PIMMachine, parts: Sequence[Sequence[Any]],
                    name: str = "ssort", oversample: int = 2,
                    seed: int = 0) -> List[List[Any]]:
    """Sample sort of data distributed one part per module.

    ``parts[i]`` is module ``i``'s resident input (loaded slot-wise, not
    charged as IO -- the model's inputs start on the PIM side).  Returns
    the sorted partition per module: concatenating the returned lists
    yields the globally sorted order, and every module ends with
    ``O(n/P)`` whp elements.
    """
    p = machine.num_modules
    if len(parts) != p:
        raise ValueError("need one part per module")
    coll = Collectives(machine, name=name)
    n = sum(len(part) for part in parts)

    # Inputs start resident on the PIM side (slot load is not network IO,
    # matching the model's "input starts evenly divided" assumption).
    for mid, part in enumerate(parts):
        machine.modules[mid].state[name]["slot"] = list(part)
        machine.modules[mid].alloc_words(len(part))

    # The exchange's bodies: each module forwards its bucket pieces
    # (h = max per module of words sent + received), then merges the
    # already-sorted runs it received.
    fn_route = f"{name}:route"
    if fn_route not in machine._handlers:
        def route(bct, chunks):
            # Slot order: the pieces reach each inbox, and so each
            # merge, in the per-task loop's order.
            modules = bct.machine.modules
            out = []
            for mid, (splitters,), _tag, _size in \
                    bct.rows_in_slot_order(chunks):
                state = modules[mid].state[name]
                slot, _picks = state["slot"]
                bct.work[mid] += len(slot) + 1
                row: dict = {}
                for x in slot:
                    dest = bisect.bisect_right(splitters, x)
                    row.setdefault(dest, []).append(x)
                state["slot"] = []
                for dest, piece in row.items():
                    out.append((dest, (piece,), None, max(1, len(piece))))
                    bct.sent[mid] += max(1, len(piece))
            bct.stage_rows(f"{name}:recv_piece", out)

        def merge(bct, chunks):
            modules = bct.machine.modules
            for mid, _args, _tag, _size in bct.rows(chunks):
                state = modules[mid].state[name]
                runs = state["inbox"]
                state["inbox"] = []
                out: List[Any] = []
                work = 1
                for run in runs:
                    out = _merge2(out, run)
                    work += len(out)
                bct.work[mid] += work
                state["slot"] = out

        machine.register(fn_route, route)
        machine.register(f"{name}:merge", merge)

    result = run_batch(machine, f"{name}:sample_sort",
                       _sample_sort_route(coll, oversample,
                                          random.Random(seed)))
    # cleanup: release the resident-input accounting
    for mid, part in enumerate(parts):
        machine.modules[mid].free_words(len(part))
    flat_check = sum(len(r) for r in result)
    if flat_check != n:  # pragma: no cover - sanity
        raise AssertionError("sample sort lost elements")
    return result


def _sample_sort_route(coll: Collectives, oversample: int,
                       rng: random.Random):
    machine = coll.machine
    p = coll.num_modules

    # 1. local sorts
    def local_sort(mid, slot):
        m = len(slot)
        return sorted(slot), int(m * max(1, math.log2(m + 1)))

    coll.map_slots(local_sort)

    # 2. sampling: Theta(log P) keys per module back to the CPU
    s = max(1, oversample * max(1, int(round(math.log2(p)))))
    salt = rng.getrandbits(32)

    def sample(mid, slot):
        r = random.Random((salt << 8) ^ mid)
        if not slot:
            return (slot, []), 1
        picks = sorted(r.choice(slot) for _ in range(s))
        return (slot, picks), s

    coll.map_slots(sample)
    samples: List[Any] = []
    gathered = coll.gather()
    for slot, picks in gathered:
        samples.extend(picks)

    # 3. splitters on the CPU (P*s keys fit in M)
    with machine.cpu.region(len(samples)):
        samples = parallel_sort(machine.cpu, samples)
        step = max(1, len(samples) // p)
        splitters = [samples[i * step] for i in range(1, p)
                     if i * step < len(samples)]

    # 4. all-to-all exchange by bucket, module-to-module
    yield [Broadcast(f"{coll.name}:route", (splitters,),
                     size=max(1, len(splitters)))]

    # 5. local multiway merges of the received sorted runs
    yield [Broadcast(f"{coll.name}:merge", ())]
    # result extraction (verification only; costs one gather of the data)
    return coll.gather()


def _merge2(a: List[Any], b: List[Any]) -> List[Any]:
    out: List[Any] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] <= b[j]:
            out.append(a[i]); i += 1
        else:
            out.append(b[j]); j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out
