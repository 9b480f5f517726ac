"""The sequential oracle: a sorted-list + dict model of the ordered map.

Every implementation under differential test is compared against this
model, batch by batch.  It is deliberately the dumbest possible correct
implementation -- element-at-a-time over ``bisect`` -- so a divergence
always indicts the distributed structure, never the oracle.

The test suite's ``ReferenceMap`` (``tests/conftest.py``) is an alias of
this class, so the property tests and the fuzzer share one oracle.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple


class SequentialOracle:
    """Sequential ordered-map model with the ``apply_batch`` surface."""

    #: Batch ops replayable through :meth:`apply_batch`.
    BATCH_CAPS = frozenset({"get", "successor", "upsert", "delete", "range"})

    def __init__(self, items: Sequence[Tuple[Any, Any]] = ()) -> None:
        self.data: Dict[Any, Any] = dict(items)
        self._sorted: List[Any] = sorted(self.data)

    # -- element operations -------------------------------------------------

    def upsert(self, key: Any, value: Any) -> None:
        if key not in self.data:
            bisect.insort(self._sorted, key)
        self.data[key] = value

    def delete(self, key: Any) -> bool:
        if key not in self.data:
            return False
        del self.data[key]
        self._sorted.remove(key)
        return True

    def get(self, key: Any) -> Optional[Any]:
        return self.data.get(key)

    def successor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Smallest (key, value) with key >= the argument."""
        i = bisect.bisect_left(self._sorted, key)
        if i == len(self._sorted):
            return None
        k = self._sorted[i]
        return (k, self.data[k])

    def predecessor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Largest (key, value) with key <= the argument."""
        i = bisect.bisect_right(self._sorted, key)
        if i == 0:
            return None
        k = self._sorted[i - 1]
        return (k, self.data[k])

    def range(self, lkey: Any, rkey: Any) -> List[Tuple[Any, Any]]:
        """All (key, value) with lkey <= key <= rkey, ascending."""
        lo = bisect.bisect_left(self._sorted, lkey)
        hi = bisect.bisect_right(self._sorted, rkey)
        return [(k, self.data[k]) for k in self._sorted[lo:hi]]

    def as_dict(self) -> Dict[Any, Any]:
        return dict(self.data)

    def __len__(self) -> int:
        return len(self.data)

    # -- conformance surface -------------------------------------------------

    def apply_batch(self, op: str, payload: Sequence) -> Optional[list]:
        """Uniform batch dispatch (contract: see
        :meth:`repro.core.skiplist.PIMSkipList.apply_batch`).

        Mutations apply element by element in payload order, so duplicate
        keys within an upsert batch collapse to the last occurrence --
        the same semantics every batched implementation guarantees.
        """
        if op == "get":
            return [self.get(k) for k in payload]
        if op == "successor":
            return [self.successor(k) for k in payload]
        if op == "upsert":
            for k, v in payload:
                self.upsert(k, v)
            return None
        if op == "delete":
            for k in payload:
                self.delete(k)
            return None
        if op == "range":
            return [self.range(lo, hi) for lo, hi in payload]
        raise ValueError(f"apply_batch: unknown op {op!r}")

    def apply_group(self, batches: Sequence[Tuple[str, Sequence]],
                    ) -> List[Optional[list]]:
        """One tick's batches (contract: see
        :meth:`repro.core.skiplist.PIMSkipList.apply_group`): here, one
        after the other."""
        return [self.apply_batch(op, payload) for op, payload in batches]
