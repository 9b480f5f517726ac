"""The coalescing scheduler: admitted requests -> PIM-sized batches.

The PIM model's economics come from batching: one ``run_batch`` over B
ops costs rounds, not B round trips.  The coalescer is where many
small per-tenant requests become one machine-sized batch:

- batches are **same-op** (the model's batch constraint -- a batch has
  one operation type), chosen FIFO: the op class of the *oldest*
  waiting request goes first, so no op class can starve;
- within the chosen op, requests are drained **round-robin across
  tenants** in ``quantum``-item slices (rotating the starting tenant
  each batch), so one chatty tenant cannot monopolise a batch;
- only queue *heads* are eligible -- a tenant's stream executes in its
  program order, which is what lets the soak harness compare each
  client's responses against a sequential replay;
- expired requests are evicted here (typed ``DEADLINE`` refusals),
  never dispatched.

The result is a :class:`MergedBatch`: the concatenated payload plus
the per-request slices the demux stage uses to route each tenant's
share of the replies back to its future.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, List, Optional, Tuple

from repro.serve.admission import AdmissionController
from repro.serve.errors import Request

__all__ = ["Coalescer", "MergedBatch"]

_request_id = attrgetter("id")


@dataclass
class MergedBatch:
    """One coalesced same-op batch with its demux map."""

    op: str
    items: List[Any]
    #: ``(request, lo, hi)``: request's results are ``replies[lo:hi]``.
    slices: List[Tuple[Request, int, int]] = field(default_factory=list)
    #: Tightest absolute deadline across the merged requests.
    min_deadline: Optional[int] = None

    def __len__(self) -> int:
        return len(self.items)


class Coalescer:
    """Merge admitted requests into bounded same-op batches, fairly."""

    def __init__(self, *, max_batch_items: int = 512,
                 quantum: int = 64) -> None:
        if max_batch_items < 1:
            raise ValueError("max_batch_items must be >= 1")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.max_batch_items = max_batch_items
        self.quantum = quantum
        self._rr = 0  # rotating round-robin offset

    def next_batch(self, admission: AdmissionController, tick: int,
                   ) -> Tuple[Optional[MergedBatch], List[Request]]:
        """Build the next batch from the queues of the active tenants.

        Returns ``(batch, expired)``: the merged batch (``None`` when
        nothing is dispatchable) and the requests evicted because
        their deadline passed before dispatch.  Every request leaves
        its queue through ``admission.take``; tenants with nothing
        queued are not visited.
        """
        take = admission.take
        waiting = admission.heads
        expired: List[Request] = []
        heads = [waiting[name] for name in sorted(waiting)]
        stale = [head.state for head in heads
                 if head.deadline is not None and tick > head.deadline]
        if stale:
            # refusals go out in tenant creation order
            for state in sorted(stale, key=attrgetter("index")):
                while state.queue and state.queue[0].expired(tick):
                    expired.append(take(state))
            heads = [waiting[name] for name in sorted(waiting)]
        if not heads:
            return None, expired
        op = min(heads, key=_request_id).op
        offset = self._rr % len(heads)
        self._rr += 1
        turn = [head.state for head in heads[offset:] + heads[:offset]
                if head.op == op]

        limit, quantum = self.max_batch_items, self.quantum
        items: List[Any] = []
        slices: List[Tuple[Request, int, int]] = []
        deadline: Optional[int] = None
        progress = True
        while progress and len(items) < limit:
            progress = False
            again = []  # tenants whose next head is eligible too
            for state in turn:
                queue = state.queue
                taken = 0
                while queue and queue[0].op == op and taken < quantum:
                    req = queue[0]
                    if req.deadline is not None and tick > req.deadline:
                        expired.append(take(state))
                        continue
                    # An oversized request rides alone; otherwise stop
                    # at the batch bound and leave it for the next one.
                    lo = len(items)
                    hi = lo + req.items
                    if lo and hi > limit:
                        break
                    slices.append((take(state), lo, hi))
                    items.extend(req.payload)
                    if req.deadline is not None and (
                            deadline is None or req.deadline < deadline):
                        deadline = req.deadline
                    taken += (hi - lo) or 1
                    progress = True
                    if hi >= limit:
                        break
                if len(items) >= limit:
                    break
                if queue and queue[0].op == op:
                    again.append(state)
            turn = again
        if not slices:
            return None, expired
        return MergedBatch(op, items, slices, deadline), expired
