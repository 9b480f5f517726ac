"""Public API: the PIM-balanced batch-parallel skip list.

See the package docstring (:mod:`repro.core`) for the operation summary
and the paper mapping.  All batch methods return results aligned with
their input sequence and charge the model's costs to the machine they
were constructed on; measure an operation with::

    before = machine.snapshot()
    sl.batch_get(keys)
    cost = machine.delta_since(before)
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core import (ops_build, ops_delete, ops_point, ops_search,
                        ops_successor, ops_upsert, ops_write)
from repro.core.structure import SkipListStructure
from repro.sim.errors import InvalidBatchError
from repro.sim.machine import PIMMachine


READ_OPS = frozenset({"get", "successor", "range"})


def group_payloads(batches: Sequence[Tuple[str, Sequence]],
                   ) -> Dict[str, Sequence]:
    """``{op: payload}`` of an ``apply_group`` call: one tick's batches,
    of distinct ops, at most one of them a write and that one first."""
    payloads = dict(batches)
    writes = [i for i, (op, _) in enumerate(batches) if op not in READ_OPS]
    if len(payloads) != len(batches) or writes not in ([], [0]):
        raise ValueError(
            f"apply_group: a group is distinct ops with at most one "
            f"write, first; got {[op for op, _ in batches]}")
    return payloads


def answer_ranges(run: Any, pairs: Sequence[Tuple[Hashable, Hashable]],
                  ) -> List[list]:
    """One result list per inclusive ``(lo, hi)`` pair: ``run`` over the
    pairs with ``lo <= hi``, and ``[]`` for an inverted one -- the
    oracle's answer (the batched range itself refuses such a pair)."""
    kept = [pair for pair in pairs if not pair[1] < pair[0]]
    results = iter(run(kept) if kept else ())
    return [[] if hi < lo else next(results) for lo, hi in pairs]


class BatchDispatch:
    """``apply_batch`` for a structure whose ``batch_get`` /
    ``batch_successor`` / ``batch_upsert`` / ``batch_delete`` /
    ``batch_range`` already return the conformance shapes (the hash- and
    range-partitioned baselines, the LSM store).  ``self`` is typed
    ``Any``: those methods are the host class's."""

    #: Batch ops replayable through :meth:`apply_batch`.
    BATCH_CAPS = frozenset({"get", "successor", "upsert", "delete", "range"})

    def apply_batch(self: Any, op: str, payload: Sequence) -> Optional[list]:
        """Uniform batch dispatch (contract: see
        :meth:`PIMSkipList.apply_batch`)."""
        if op == "get":
            return self.batch_get(list(payload))
        if op == "successor":
            return self.batch_successor(list(payload))
        if op == "upsert":
            if payload:
                self.batch_upsert(list(payload))
            return None
        if op == "delete":
            if payload:
                self.batch_delete(list(payload))
            return None
        if op == "range":
            return answer_ranges(self.batch_range, payload)
        raise ValueError(f"apply_batch: unknown op {op!r}")


class PIMSkipList:
    """A batch-parallel ordered map over a :class:`PIMMachine`.

    Parameters
    ----------
    machine:
        The PIM machine to live on.
    name:
        Handler-namespace prefix; two structures on one machine need
        distinct names.
    enforce_batch_size:
        When true, batches below the paper's minimum sizes
        (``P log P`` for Get/Update, ``P log^2 P`` for the rest) raise
        :class:`~repro.sim.errors.InvalidBatchError`.  Default off so
        small-scale tests and ablations can run; the complexity
        guarantees only hold at or above the minimums.
    """

    def __init__(self, machine: PIMMachine, name: str = "skiplist",
                 enforce_batch_size: bool = False,
                 h_low_override: Optional[int] = None) -> None:
        self.machine = machine
        self.struct = SkipListStructure(machine, name=name,
                                        h_low_override=h_low_override)
        self.enforce_batch_size = enforce_batch_size
        # Every handler the structure's ops name is registered here,
        # once: routes only send to function ids, and the op-pipeline
        # driver registers nothing.
        from repro.core import ops_range, ops_select
        for ops in (ops_build, ops_point, ops_search, ops_write, ops_upsert,
                    ops_delete, ops_range, ops_select):
            machine.register_all(ops.make_handlers(self.struct))

    # -- batch-size policy ---------------------------------------------------

    @property
    def min_point_batch(self) -> int:
        """Paper minimum for Get/Update batches: ``P log P``.  Also the
        widest search batch whose pivots sit ``log^2 P`` apart (see
        :mod:`repro.core.ops_successor`)."""
        return self.struct.min_point_batch

    @property
    def min_search_batch(self) -> int:
        """Paper minimum for Successor/Upsert/Delete/Range: ``P log^2 P``."""
        return self.struct.min_point_batch * self.struct.log_p

    def _check_batch(self, size: int, minimum: int, op: str) -> None:
        if self.enforce_batch_size and 0 < size < minimum:
            raise InvalidBatchError(
                f"{op}: batch of {size} below the minimum {minimum} "
                f"(P log P / P log^2 P) required for the stated bounds"
            )

    # -- construction ---------------------------------------------------------

    def build(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        """Load sorted unique (key, value) pairs into the empty structure:
        one charged op of two rounds, O(n/P) whp IO and PIM time (see
        :mod:`repro.core.ops_build`).  Raises ``ValueError`` on a
        non-empty structure or keys that are not strictly increasing."""
        ops_build.build(self.struct, list(items))

    # -- point operations -----------------------------------------------------

    def batch_get(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        """Get(k) for each key; ``None`` for missing keys (Theorem 4.1)."""
        self._check_batch(len(keys), self.min_point_batch, "Get")
        return ops_point.batch_get(self.struct, keys)

    def batch_update(self, pairs: Sequence[Tuple[Hashable, Any]]) -> int:
        """Update(k, v) for each pair; missing keys ignored.  Returns the
        number of keys found (Theorem 4.1)."""
        self._check_batch(len(pairs), self.min_point_batch, "Update")
        return ops_point.batch_update(self.struct, pairs)

    # -- ordered queries -------------------------------------------------------

    def batch_successor(self, keys: Sequence[Hashable],
                        ) -> List[Optional[Tuple[Hashable, Any]]]:
        """Successor(k): smallest (key, value) with key >= k (Thm 4.3)."""
        self._check_batch(len(keys), self.min_search_batch, "Successor")
        return ops_successor.batch_successor(self.struct, keys)

    def batch_predecessor(self, keys: Sequence[Hashable],
                          ) -> List[Optional[Tuple[Hashable, Any]]]:
        """Predecessor(k): largest (key, value) with key <= k (Thm 4.3)."""
        self._check_batch(len(keys), self.min_search_batch, "Predecessor")
        return ops_successor.batch_predecessor(self.struct, keys)

    # -- updates ----------------------------------------------------------------

    def batch_upsert(self, pairs: Sequence[Tuple[Hashable, Any]],
                     riders: Sequence[Hashable] = (),
                     ) -> ops_upsert.UpsertStats:
        """Upsert(k, v): update if present, insert otherwise (Thm 4.4).
        ``riders`` are Successor keys answered as after the write, on
        the batch's own search where they ride it
        (:mod:`repro.core.ops_upsert`); ``stats.successors`` holds
        their answers."""
        self._check_batch(len(pairs), self.min_search_batch, "Upsert")
        return ops_upsert.batch_upsert(self.struct, pairs, riders)

    def batch_delete(self, keys: Sequence[Hashable]) -> ops_delete.DeleteStats:
        """Delete(k); missing keys are ignored (Theorem 4.5)."""
        self._check_batch(len(keys), self.min_search_batch, "Delete")
        return ops_delete.batch_delete(self.struct, keys)

    # -- range operations ---------------------------------------------------------

    def range_broadcast(self, lkey: Hashable, rkey: Hashable,
                        func: str = "read", func_arg: Any = None):
        """One range operation by broadcast (paper §5.1, Theorem 5.1)."""
        from repro.core import ops_range
        return ops_range.range_broadcast(self.struct, lkey, rkey, func,
                                         func_arg)

    def batch_range(self, ops: Sequence[Tuple[Hashable, Hashable]],
                    func: str = "read", func_arg: Any = None):
        """Batched range operations by tree structure (§5.2, Thm 5.2)."""
        self._check_batch(len(ops), self.min_search_batch, "RangeOperation")
        from repro.core import ops_range
        return ops_range.batch_range_tree(self.struct, ops, func, func_arg)

    def batch_range_auto(self, ops: Sequence[Tuple[Hashable, Hashable]],
                         func: str = "read", func_arg: Any = None,
                         large_threshold: Optional[int] = None):
        """Batched ranges with per-op routing: large ops broadcast (§5.1),
        small ops run through the tree execution (§5.2's closing remark)."""
        self._check_batch(len(ops), self.min_search_batch, "RangeOperation")
        from repro.core import ops_range
        return ops_range.batch_range_auto(self.struct, ops, func, func_arg,
                                          large_threshold)

    def apply_range(self, lkey: Hashable, rkey: Hashable, fn,
                    use_broadcast: Optional[bool] = None):
        """Range operation with an arbitrary CPU-side function
        ``fn(key, value) -> new_value`` (the paper's read / CPU-apply /
        write-back split); returns the old values."""
        from repro.core import ops_range
        return ops_range.apply_range_cpu(self.struct, lkey, rkey, fn,
                                         use_broadcast)

    # -- single operations (paper §4's warm-up executions) ----------------

    def get(self, key: Hashable) -> Optional[Any]:
        """Get one key via the hash shortcut (2 messages)."""
        from repro.core import single_ops
        return single_ops.get_one(self.struct, key)

    def update(self, key: Hashable, value: Any) -> bool:
        """Update one key; returns whether it existed."""
        from repro.core import single_ops
        return single_ops.update_one(self.struct, key, value)

    def successor(self, key: Hashable) -> Optional[Tuple[Hashable, Any]]:
        """Successor of one key (naive single search)."""
        from repro.core import single_ops
        return single_ops.successor_one(self.struct, key)

    def predecessor(self, key: Hashable) -> Optional[Tuple[Hashable, Any]]:
        """Predecessor of one key (naive single search)."""
        from repro.core import single_ops
        return single_ops.predecessor_one(self.struct, key)

    def upsert(self, key: Hashable, value: Any) -> bool:
        """Upsert one pair; returns True when a new key was inserted."""
        from repro.core import single_ops
        return single_ops.upsert_one(self.struct, key, value)

    def delete(self, key: Hashable) -> bool:
        """Delete one key; returns whether it existed."""
        from repro.core import single_ops
        return single_ops.delete_one(self.struct, key)

    def batch_contains(self, keys: Sequence[Hashable]) -> List[bool]:
        """Membership per key (distinguishes stored-None from missing)."""
        from repro.core import ops_point
        return ops_point.batch_contains(self.struct, keys)

    # -- differential-verification conformance surface ----------------------

    #: Batch ops this structure can replay through :meth:`apply_batch`.
    BATCH_CAPS = frozenset({"get", "successor", "upsert", "delete", "range"})

    def apply_batch(self, op: str, payload: Sequence) -> Optional[list]:
        """Uniform batch dispatch for the differential verifier.

        The conformance contract, shared by the baselines, the LSM store
        (both through :class:`BatchDispatch`) and :mod:`repro.verify`:
        ``get`` returns a list of values (``None`` for missing keys),
        ``successor`` a list of ``(key, value)`` pairs or ``None``,
        ``range`` one inclusive ``[(key, value), ...]`` result list per
        ``(lo, hi)`` op;
        ``upsert`` and ``delete`` return ``None`` -- mutations are
        verified through subsequent reads and final-state comparison.
        """
        if op == "get":
            return self.batch_get(list(payload))
        if op == "successor":
            return self.batch_successor(list(payload))
        if op == "upsert":
            if payload:
                self.batch_upsert(list(payload))
            return None
        if op == "delete":
            if payload:
                self.batch_delete(list(payload))
            return None
        if op == "range":
            return answer_ranges(
                lambda ops: [list(r.values) for r in self.batch_range(ops)],
                payload)
        raise ValueError(f"apply_batch: unknown op {op!r}")

    #: Classes whose batches ``repro serve`` runs in one tick, as one
    #: :meth:`apply_group` call: Successor keys ride the Upsert's
    #: recording search (§4.2 / §4.3) and are answered as after the
    #: write -- a write shares its tick only with its riders.  Every
    #: other class is a tick of its own.  A fact of the structure, not
    #: a setting.
    TICK_GROUPS = (frozenset({"upsert", "successor"}),)

    def apply_group(self, batches: Sequence[Tuple[str, Sequence]],
                    ) -> List[Optional[list]]:
        """One tick's batches -- ``(op, payload)`` pairs of distinct
        ops, a write only first -- in one call; one :meth:`apply_batch`
        result each, as if run one after another.

        An Upsert and a Successor batch run as one op, the Successor
        keys riding the Upsert's search
        (:func:`~repro.core.ops_upsert.batch_upsert`); every other
        batch, and either of the two without the other, runs exactly
        as :meth:`apply_batch` runs it.
        """
        payloads = group_payloads(batches)
        out = {}
        pairs, keys = payloads.get("upsert"), payloads.get("successor")
        if pairs and keys:
            stats = self.batch_upsert(list(pairs), list(keys))
            out["upsert"], out["successor"] = None, stats.successors
        return [out[op] if op in out else self.apply_batch(op, payload)
                for op, payload in batches]

    # -- bulk structure surgery (compositions; costs = the moved data) ----

    def union_into(self, other: "PIMSkipList") -> int:
        """Absorb every pair from ``other`` (other is left unchanged);
        returns the number of keys inserted or updated.

        A composition: one broadcast scan of ``other`` (O(1) rounds,
        O(n_other/P) IO) + one batched Upsert into ``self``.
        """
        items = other.scan_all()
        if not items:
            return 0
        stats = self.batch_upsert(items)
        return stats.updated + stats.inserted

    def split(self, key: Hashable) -> "PIMSkipList":
        """Move every pair with key >= ``key`` into a new structure.

        Returns the new :class:`PIMSkipList` (on the same machine, with
        a derived name).  A composition: one broadcast range read, one
        batched Delete from ``self``, one :meth:`build` of the new
        structure -- O(moved/P) IO plus Delete's Theorem 4.5 costs.
        """
        from repro.core import ops_range
        from repro.core.probes import ABOVE_ALL
        seq = getattr(self, "_split_seq", 0)
        self._split_seq = seq + 1
        moved = ops_range.range_broadcast(
            self.struct, key, ABOVE_ALL, func="read",
            inclusive=(True, False)).values
        if moved:
            self.batch_delete([k for k, _ in moved])
        out = PIMSkipList(self.machine,
                          name=f"{self.struct.name}:split{seq}",
                          enforce_batch_size=self.enforce_batch_size)
        out.build(moved)
        return out

    # -- order statistics ---------------------------------------------------

    def rank(self, key: Hashable) -> int:
        """Number of stored keys strictly below ``key`` (one broadcast
        count: O(1) IO, O(1) rounds)."""
        from repro.core import ops_select
        return ops_select.rank(self.struct, key)

    def select(self, index: int) -> Hashable:
        """The 0-indexed ``index``-th smallest key, by distributed
        weighted-median selection (O(log n) whp rounds of O(P) probes)."""
        from repro.core import ops_select
        return ops_select.select(self.struct, index)

    # -- whole-structure queries --------------------------------------------

    def min_item(self) -> Optional[Tuple[Hashable, Any]]:
        """The smallest (key, value), or None when empty (one search)."""
        from repro.core.probes import BELOW_ALL
        return self.successor(BELOW_ALL)

    def max_item(self) -> Optional[Tuple[Hashable, Any]]:
        """The largest (key, value), or None when empty (one search)."""
        from repro.core.probes import ABOVE_ALL
        return self.predecessor(ABOVE_ALL)

    def scan_all(self) -> List[Tuple[Hashable, Any]]:
        """Every (key, value) in order, via one broadcast range (§5.1):
        O(1) rounds, O(n/P) whp IO for the returned values."""
        if self.size == 0:
            return []
        from repro.core.probes import ABOVE_ALL, BELOW_ALL
        from repro.core import ops_range
        res = ops_range.range_broadcast(
            self.struct, BELOW_ALL, ABOVE_ALL, func="read",
            inclusive=(False, False))
        return res.values

    # -- introspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of keys currently stored."""
        return self.struct.num_keys

    def check_integrity(self) -> None:
        """Assert all structural invariants (test/diagnostic)."""
        self.struct.check_integrity()

    def to_dict(self) -> dict:
        """All key/value pairs (diagnostic; not cost-accounted)."""
        return {n.key: n.value for n in self.struct.iter_level(0)}
