"""Implementations behind the uniform ``apply_batch`` conformance surface.

The contract (authoritative docstring:
:meth:`repro.core.skiplist.PIMSkipList.apply_batch`):

- ``apply_batch("get", keys)`` -> list of values, ``None`` for missing;
- ``apply_batch("successor", keys)`` -> list of ``(key, value)`` / ``None``;
- ``apply_batch("range", [(lo, hi), ...])`` -> one inclusive, ascending
  ``[(key, value), ...]`` list per op;
- ``apply_batch("upsert", pairs)`` / ``apply_batch("delete", keys)`` ->
  ``None`` (mutations are observed through later reads and the final
  full-range state comparison).

Each adapter owns a *fresh* seeded :class:`~repro.sim.machine.PIMMachine`
(the sequential baseline owns none), so per-implementation metrics are
isolated and a replay of the same seed is bit-for-bit reproducible.

An adapter whose implementation cannot apply a mutating batch (the
fine-grained baseline is build-once) goes **stale**: it is retired from
the comparison for the rest of the session -- recorded, not a
divergence.  Read-only fuzz sessions keep those implementations live for
the whole session.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.fine_grained import FineGrainedSkipList
from repro.baselines.hash_partition import HashPartitionedMap
from repro.baselines.local_skiplist import LocalSkipList
from repro.baselines.naive_batch import naive_batch_successor
from repro.baselines.range_partition import RangePartitionedSkipList
from repro.core.skiplist import PIMSkipList
from repro.sim.machine import PIMMachine, ReferencePIMMachine
from repro.sim.metrics import MetricsDelta
from repro.structures.lsm import PIMLSMStore
from repro.structures.pimtree import PIMTree


class ImplAdapter:
    """One implementation under differential test."""

    def __init__(self, name: str, impl: Any,
                 machine: Optional[PIMMachine] = None,
                 apply_fn: Optional[Callable[[str, Sequence], Any]] = None,
                 ) -> None:
        self.name = name
        self.impl = impl
        self.machine = machine
        self.caps = frozenset(impl.BATCH_CAPS)
        #: The structure's declared tick groups (empty: every class
        #: alone).
        self.groups = tuple(getattr(impl, "TICK_GROUPS", ()))
        self._apply = apply_fn if apply_fn is not None else impl.apply_batch
        self.stale = False
        self.stale_at: Optional[int] = None  # batch index that retired it

    def supports(self, op: str) -> bool:
        return op in self.caps

    def apply(self, op: str, payload: Sequence) -> Any:
        """Run one batch; returns the normalized comparable result."""
        return self._apply(op, payload)

    def measured_apply(self, op: str, payload: Sequence,
                       ) -> Tuple[Any, Optional[MetricsDelta]]:
        """Like :meth:`apply` but also returns the machine's metric delta
        for the batch (``None`` for machine-less implementations)."""
        return self._measured(lambda: self.apply(op, payload))

    def _measured(self, call: Callable[[], Any],
                  ) -> Tuple[Any, Optional[MetricsDelta]]:
        if self.machine is None:
            return call(), None
        before = self.machine.snapshot()
        result = call()
        return result, self.machine.delta_since(before)

    def apply_step(self, batches: Sequence[Any]) -> List[Any]:
        """Run one replay step (see :func:`repro.verify.differ.session_steps`);
        one result per batch.  Several batches -- one of this
        implementation's tick groups -- go as one ``apply_group`` call,
        straight to the structure: an adapter fault wraps :meth:`apply`
        and so acts on lone batches only."""
        if len(batches) > 1:
            return self.impl.apply_group(
                [(batch.op, batch.payload) for batch in batches])
        return [self.apply(batch.op, batch.payload) for batch in batches]

    def measured_step(self, batches: Sequence[Any],
                      ) -> Tuple[List[Any], Optional[MetricsDelta]]:
        """:meth:`apply_step` plus the machine's metric delta for it."""
        return self._measured(lambda: self.apply_step(batches))

    def retire(self, batch_index: int) -> None:
        self.stale = True
        if self.stale_at is None:
            self.stale_at = batch_index

    def final_state(self, lo: Any, hi: Any) -> Optional[Dict[Any, Any]]:
        """The full key/value state via one inclusive [lo, hi] range, or
        ``None`` when the implementation cannot answer ranges."""
        if "range" not in self.caps:
            return None
        return dict(self.apply("range", [(lo, hi)])[0])

    def check_integrity(self) -> None:
        """Run the implementation's own invariant checker, if it has one."""
        checker = getattr(self.impl, "check_integrity", None)
        if checker is not None:
            checker()


class _NaiveSuccessorMap:
    """The paper's own structure, answering Successor the naive way.

    Mutations and point ops go through the host :class:`PIMSkipList`, so
    the structure stays current under churn; ``successor`` batches run
    through :func:`repro.baselines.naive_batch.naive_batch_successor` --
    the PIM-imbalanced strawman becomes a genuinely distinct successor
    implementation under differential test.
    """

    BATCH_CAPS = frozenset({"get", "successor", "upsert", "delete", "range"})

    def __init__(self, sl: PIMSkipList) -> None:
        self.sl = sl

    def apply_batch(self, op: str, payload: Sequence) -> Optional[list]:
        if op == "successor":
            return naive_batch_successor(self.sl.struct, list(payload))
        return self.sl.apply_batch(op, payload)


def _adapt_skiplist(name: str, seed: int, items: Sequence[Tuple[Any, Any]],
                    num_modules: int, machine_cls=PIMMachine) -> ImplAdapter:
    machine = machine_cls(num_modules=num_modules, seed=seed)
    sl = PIMSkipList(machine)
    sl.build(items)
    return ImplAdapter(name, sl, machine)


#: The implementations with batch handlers: the differ replays these on
#: the per-task reference oracle as well (the cross-engine replay).
CROSS_ENGINE_IMPLS: Tuple[str, ...] = ("skiplist", "pimtree")


def reference_adapter(name: str, seed: int,
                      items: Sequence[Tuple[Any, Any]],
                      num_modules: int) -> ImplAdapter:
    """Implementation ``name`` (one of :data:`CROSS_ENGINE_IMPLS`) on the
    per-task reference oracle
    (:class:`~repro.sim.machine.ReferencePIMMachine`): what the differ's
    cross-engine replay compares the engine's metric stream against."""
    return IMPLEMENTATIONS[name](name, seed, items, num_modules,
                                 machine_cls=ReferencePIMMachine)


def _adapt_naive(name: str, seed: int, items: Sequence[Tuple[Any, Any]],
                 num_modules: int) -> ImplAdapter:
    machine = PIMMachine(num_modules=num_modules, seed=seed)
    sl = PIMSkipList(machine)
    sl.build(items)
    return ImplAdapter(name, _NaiveSuccessorMap(sl), machine)


def _adapt_range_partition(name: str, seed: int,
                           items: Sequence[Tuple[Any, Any]],
                           num_modules: int) -> ImplAdapter:
    machine = PIMMachine(num_modules=num_modules, seed=seed)
    rp = RangePartitionedSkipList(machine)
    rp.build(items)
    return ImplAdapter(name, rp, machine)


def _adapt_hash_partition(name: str, seed: int,
                          items: Sequence[Tuple[Any, Any]],
                          num_modules: int) -> ImplAdapter:
    machine = PIMMachine(num_modules=num_modules, seed=seed)
    hp = HashPartitionedMap(machine)
    hp.build(items)
    return ImplAdapter(name, hp, machine)


def _adapt_fine_grained(name: str, seed: int,
                        items: Sequence[Tuple[Any, Any]],
                        num_modules: int) -> ImplAdapter:
    machine = PIMMachine(num_modules=num_modules, seed=seed)
    fg = FineGrainedSkipList(machine)
    fg.build(items)
    return ImplAdapter(name, fg, machine)


def _adapt_local(name: str, seed: int, items: Sequence[Tuple[Any, Any]],
                 num_modules: int) -> ImplAdapter:
    # The sequential baseline owns no machine.
    ls = LocalSkipList(rng=random.Random(seed ^ 0x10CA1))
    for k, v in items:
        ls.upsert(k, v)
    return ImplAdapter(name, ls, machine=None)


def _adapt_lsm(name: str, seed: int, items: Sequence[Tuple[Any, Any]],
               num_modules: int) -> ImplAdapter:
    machine = PIMMachine(num_modules=num_modules, seed=seed)
    # Small blocks and a low flush threshold so fuzz sessions actually
    # exercise compaction, tombstone collection and fence rebuilds.
    lsm = PIMLSMStore(machine, block_size=16, flush_threshold=48)
    if items:
        lsm.batch_upsert(list(items))
        lsm.compact()
    return ImplAdapter(name, lsm, machine)


def _adapt_pimtree(name: str, seed: int, items: Sequence[Tuple[Any, Any]],
                   num_modules: int, machine_cls=PIMMachine) -> ImplAdapter:
    machine = machine_cls(num_modules=num_modules, seed=seed)
    # Tiny nodes and an eager promotion threshold so fuzz-sized sessions
    # (tens of keys) still grow module-resident interior levels, take
    # both push and pull branches, and promote shadow subtrees.
    tree = PIMTree(machine, leaf_size=4, fanout=4, promote_threshold=2)
    tree.build(items)
    return ImplAdapter(name, tree, machine)


#: name -> builder(name, seed, items, num_modules).  The skip
#: list, the five baselines (range/hash partition, fine-grained,
#: sequential local skip list, naive batched search on the paper's
#: structure), the LSM foil, and the skew-resistant PIM-tree.
IMPLEMENTATIONS: Dict[str, Callable[..., ImplAdapter]] = {
    "skiplist": _adapt_skiplist,
    "range_partition": _adapt_range_partition,
    "hash_partition": _adapt_hash_partition,
    "fine_grained": _adapt_fine_grained,
    "local": _adapt_local,
    "naive_batch": _adapt_naive,
    "lsm": _adapt_lsm,
    "pimtree": _adapt_pimtree,
}

DEFAULT_IMPLS: Tuple[str, ...] = tuple(IMPLEMENTATIONS)


def build_implementations(names: Sequence[str], *, seed: int,
                          items: Sequence[Tuple[Any, Any]],
                          num_modules: int) -> List[ImplAdapter]:
    """Construct the named implementations, each freshly built over
    ``items`` on its own machine seeded with ``seed``."""
    out: List[ImplAdapter] = []
    for name in names:
        builder = IMPLEMENTATIONS.get(name)
        if builder is None:
            raise ValueError(
                f"unknown implementation {name!r}; "
                f"known: {', '.join(sorted(IMPLEMENTATIONS))}")
        out.append(builder(name, seed, items, num_modules))
    return out
