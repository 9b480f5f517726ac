"""Top-k / selection on PIM-resident data.

``top_k`` finds the ``k`` smallest elements of data distributed across
the modules, without sorting everything: each module sorts locally once,
then the CPU runs the same safe-prefix-fetch scheme as the priority
queue's extraction -- every module supplies a ``Theta(k/P + log P)``
prefix (Lemma 2.1 bounds how many of the global top-k one module can
hold whp), the CPU merges, and any module whose supply is both
exhausted-below-the-bound and quota-limited is re-asked with a doubled
quota (whp never happens).

Costs: ``O((n/P) log(n/P))`` PIM time for the one-time local sorts,
then ``O(k/P + log P)`` whp IO time and O(1) expected rounds per query.

``median_of`` composes top_k into a selection of arbitrary rank via the
same machinery (fetch rank+1 smallest, take the last).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

from repro.ops import run_batch
from repro.sim.machine import PIMMachine


class TopKSelector:
    """Repeated top-k queries over module-resident data."""

    def __init__(self, machine: PIMMachine, parts: Sequence[Sequence[Any]],
                 name: str = "topk") -> None:
        if len(parts) != machine.num_modules:
            raise ValueError("need one part per module")
        self.machine = machine
        self.name = name
        self.total = sum(len(part) for part in parts)
        for mid, part in enumerate(parts):
            machine.modules[mid].state[name] = {"data": list(part),
                                                "sorted": False}
            machine.modules[mid].alloc_words(len(part))
        if f"{name}:prefix" not in machine._handlers:
            machine.register_all(self._handlers())

    def _handlers(self) -> Dict[str, Any]:
        name = self.name

        def h_prefix(ctx, quota, tag=None):
            state = ctx.module.state[name]
            if not state["sorted"]:
                m = len(state["data"])
                state["data"].sort()
                state["sorted"] = True
                ctx.charge(m * max(1, int(math.log2(m + 1))) + 1)
            ctx.charge(min(quota, len(state["data"])) + 1)
            keys = state["data"][:quota]
            ctx.reply(("prefix", ctx.mid, keys,
                       quota >= len(state["data"])),
                      size=max(1, len(keys)), tag=tag)

        return {f"{name}:prefix": h_prefix}

    def top_k(self, k: int) -> List[Any]:
        """The ``k`` smallest elements, ascending."""
        k = min(k, self.total)
        if k <= 0:
            return []
        return run_batch(self.machine, f"{self.name}:top_k",
                         _top_k_route(self, k))

    def select(self, rank: int) -> Any:
        """The element of 0-indexed ``rank`` in sorted order."""
        if not (0 <= rank < self.total):
            raise IndexError(f"rank {rank} out of range 0..{self.total - 1}")
        return self.top_k(rank + 1)[-1]

    def median(self) -> Any:
        """The lower median."""
        return self.select((self.total - 1) // 2)


def _top_k_route(sel: TopKSelector, k: int):
    machine = sel.machine
    p = machine.num_modules
    log_p = max(1, int(round(math.log2(p)))) if p > 1 else 1
    quotas = {mid: min(k, 2 * ((k + p - 1) // p) + 4 * log_p)
              for mid in range(p)}
    supplied: Dict[int, Tuple[List[Any], bool]] = {}
    fn_prefix = f"{sel.name}:prefix"
    while True:
        replies = yield [(mid, fn_prefix, (quotas[mid],), None)
                         for mid in range(p) if mid not in supplied]
        for r in replies:
            _, mid, keys, exhausted = r.payload
            supplied[mid] = (keys, exhausted)
        merged: List[Any] = []
        for keys, _ in supplied.values():
            merged.extend(keys)
        merged.sort()
        with machine.cpu.region(len(merged)):
            machine.cpu.charge(
                len(merged) * max(1.0, math.log2(len(merged) + 1)),
                max(1.0, math.log2(len(merged) + 1)),
            )
        take = merged[:k]
        bound = take[-1]
        unsafe = [
            mid for mid, (keys, exhausted) in supplied.items()
            if not exhausted and keys and keys[-1] < bound
        ]
        if not unsafe:
            return take
        for mid in unsafe:
            quotas[mid] *= 2
            del supplied[mid]
