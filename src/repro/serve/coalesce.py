"""The coalescing scheduler: admitted requests -> PIM-sized batches.

The PIM model's economics come from batching: one ``run_batch`` over B
ops costs rounds, not B round trips.  The coalescer is where many
small per-tenant requests become machine-sized batches, one scheduler
**tick** at a time:

- a tick serves one **kind**, chosen FIFO: the kind of the *oldest*
  waiting request goes first, so no kind can starve.  A kind is one
  **tick group** of the structure's (``TICK_GROUPS``: Upsert +
  Successor + Range on the skip list, the Upsert and all three reads on
  the PIM-tree; every other class, and every class of any other
  structure, alone): its classes are drained in the same tick and reach
  the structure as one ``apply_group`` call, because run back to back
  they would each pay the same search (the skip list's) or descent (the
  PIM-tree's).  A group holds at most one write, and it goes first;
- a batch is still **same-op** (the model's batch constraint -- a batch
  has one operation type): a grouped tick is one :class:`MergedBatch`
  per class, journaled and demuxed class by class, in drain order.  A
  write shares its tick only with its riders, which are answered as
  after it;
- within a class, requests are drained **round-robin across tenants**
  in ``quantum``-item slices (rotating the starting tenant each tick),
  up to ``max_batch_items`` a class, so one chatty tenant cannot
  monopolise a batch;
- only queue *heads* are eligible -- a tenant's stream executes in its
  program order, which is what lets the soak harness compare each
  client's responses against a sequential replay.  On a grouped tick
  a tenant's next head may ride too once the class before it has left
  (the batches run in the order they were built): a tenant's
  Successor behind its own Upsert rides, a Successor ahead of its
  Upsert leaves the Upsert for a later tick;
- expired requests are evicted here (typed ``DEADLINE`` refusals),
  never dispatched.

Why the group and not every class: N closed-loop clients over G kinds
with request shares q complete 2N / (1 + sum q^2) requests per cycle of
G ticks whatever G is, so draining everything every tick (G = 1) only
throws away what accumulates between a class's turns, while merging the
classes that *share work* removes their duplicated rounds and keeps it
(DESIGN.md §18).  On the PIM-tree every class but Delete shares the
descent, so a workload without Deletes runs one kind: every tick
drains every head.

The result is a list of :class:`MergedBatch`: the concatenated payload
plus the per-request slices the demux stage uses to route each
tenant's share of the replies back to its future.  That list is the
one shape of a tick down to the structure: a lone batch is a group of
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from repro.recovery import MUTATING_OPS
from repro.serve.admission import AdmissionController, TenantState
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
                   groups: Sequence[FrozenSet[str]] = (),
                   ) -> Tuple[List[MergedBatch], List[Request]]:
        """Build the next tick's batches from the active tenants' queues.

        Returns ``(batches, expired)``: the tick's same-op batches in
        execution order (empty when nothing is dispatchable; more than
        one only on a grouped tick -- ``groups`` is the structure's
        ``TICK_GROUPS``) and the requests evicted because their deadline
        passed before dispatch.  Every request leaves its queue through
        ``admission.take``; tenants with nothing queued are not visited.
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
            return [], expired
        op = min(heads, key=_request_id).op
        offset = self._rr % len(heads)
        self._rr += 1
        rotated = heads[offset:] + heads[:offset]
        group = next((g for g in groups if op in g), frozenset((op,)))
        # The group's write first, then the oldest head's class, then
        # the rest of the group, each class drained from the heads as
        # they stand once the classes before it have left.
        states = [head.state for head in rotated]
        batches = []
        for cls in dict.fromkeys(
                sorted(group & MUTATING_OPS) + [op] + sorted(group)):
            batch = self._drain(
                cls, [state for state in states
                      if state.queue and state.queue[0].op == cls],
                take, tick, expired)
            if batch is not None:
                batches.append(batch)
        return batches, expired

    def _drain(self, op: str, turn: List[TenantState], take: Any, tick: int,
               expired: List[Request]) -> Optional[MergedBatch]:
        """One class's batch: ``quantum``-item slices round-robin over
        ``turn`` (the tenants whose head is an ``op``, rotation order)
        up to ``max_batch_items``; ``None`` when nothing was taken."""
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
            return None
        return MergedBatch(op, items, slices, deadline)
