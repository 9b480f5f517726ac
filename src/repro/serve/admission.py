"""Per-tenant admission control: token-bucket quotas + bounded queues.

Admission is the first of the serving layer's four stages (admit ->
coalesce -> pipeline -> demux) and the only one allowed to *refuse for
capacity*: once a request is admitted it either executes or is refused
for a typed cause (deadline, degraded writes, shutdown) -- it is never
silently dropped, and nothing buffers unboundedly.

Both mechanisms run on the scheduler's virtual clock (ticks), not wall
time, so an admission decision is a pure function of the submission
history -- the soak harness's replays stay deterministic.

- The **token bucket** meters sustained throughput: ``rate`` items per
  tick, up to ``burst`` accumulated.  A request costs one token per
  payload item.  ``rate=None`` disables metering (the quota is then
  only the queue bound).
- The **bounded queue** (``max_pending`` requests) is the pipelining
  buffer between admission and the coalescer; refusing at the bound is
  what turns overload into typed backpressure instead of latency
  collapse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.serve.errors import Refusal, RefusalReason, Request

__all__ = ["AdmissionController", "TenantState", "TokenBucket"]


class TokenBucket:
    """Deterministic token bucket on the scheduler's tick clock."""

    def __init__(self, rate: Optional[float], burst: float) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None: unmetered)")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._tick = 0

    def advance(self, tick: int) -> None:
        """Refill for the ticks elapsed since the last advance."""
        if self.rate is None or tick <= self._tick:
            return
        self.tokens = min(self.burst,
                          self.tokens + (tick - self._tick) * self.rate)
        self._tick = tick

    def try_take(self, n: int) -> bool:
        if self.rate is None:
            return True
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


@dataclass
class TenantMetrics:
    """Per-tenant serving counters (the fairness/SLO ledger)."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0          # DegradedResult answers (incl. stale reads)
    refused: Dict[str, int] = field(default_factory=dict)
    items_served: int = 0
    queue_wait_ticks: int = 0  # summed over completed requests

    def refuse(self, reason: RefusalReason) -> None:
        self.refused[reason.value] = self.refused.get(reason.value, 0) + 1

    @property
    def refusals(self) -> int:
        return sum(self.refused.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "refused": dict(self.refused),
            "items_served": self.items_served,
            "queue_wait_ticks": self.queue_wait_ticks,
        }


@dataclass
class TenantState:
    """One tenant's quota state: bucket + bounded FIFO of admitted work."""

    name: str
    bucket: TokenBucket
    max_pending: int
    index: int = 0  # creation order (the order refusals are reported in)
    queue: Deque[Request] = field(default_factory=deque)
    metrics: TenantMetrics = field(default_factory=TenantMetrics)


class AdmissionController:
    """Admit or refuse requests tenant by tenant (see module docstring).

    The controller owns queue membership: :meth:`admit` is the only way
    into a tenant queue and :meth:`take` the only way out, so ``pending``
    (queued requests) and ``heads`` (tenant name -> the head of its
    queue, for every tenant with work queued) are kept as they change
    and a scheduler tick never visits a tenant with nothing queued.
    """

    def __init__(self, *, rate: Optional[float] = None, burst: float = 1024,
                 max_pending: int = 256) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.rate = rate
        self.burst = burst
        self.max_pending = max_pending
        self.tenants: Dict[str, TenantState] = {}
        self.heads: Dict[str, Request] = {}
        self.pending = 0

    def tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(name=name,
                                bucket=TokenBucket(self.rate, self.burst),
                                max_pending=self.max_pending,
                                index=len(self.tenants))
            self.tenants[name] = state
        return state

    def refuse(self, tenant: str, op: str, reason: RefusalReason,
               detail: str) -> Refusal:
        """Count one submission refused before it was queued."""
        metrics = self.tenant(tenant).metrics
        metrics.submitted += 1
        metrics.refuse(reason)
        return Refusal(op, tenant, reason, detail)

    def admit(self, request: Request, tick: int) -> Optional[Refusal]:
        """Admit ``request`` into its tenant's queue, or refuse typed.

        Returns ``None`` on admission (the request is now queued) or an
        :class:`~repro.serve.errors.Refusal` with reason ``OVERLOADED``.
        """
        state = request.state = (self.tenants.get(request.tenant)
                                 or self.tenant(request.tenant))
        queue = state.queue
        if len(queue) >= state.max_pending:
            return self.refuse(request.tenant, request.op,
                               RefusalReason.OVERLOADED,
                               f"queue full ({state.max_pending} pending)")
        if self.rate is not None:  # else every bucket is unmetered
            state.bucket.advance(tick)
            if not state.bucket.try_take(request.items):
                return self.refuse(request.tenant, request.op,
                                   RefusalReason.OVERLOADED,
                                   f"quota exhausted ({state.bucket.tokens:.1f}"
                                   f" tokens < {request.items} items)")
        state.metrics.submitted += 1
        state.metrics.admitted += 1
        if not queue:
            self.heads[state.name] = request
        queue.append(request)
        self.pending += 1
        return None

    def take(self, state: TenantState) -> Request:
        """Remove and return the head of ``state``'s (non-empty) queue."""
        queue = state.queue
        request = queue.popleft()
        self.pending -= 1
        if queue:
            self.heads[state.name] = queue[0]
        else:
            del self.heads[state.name]
        return request
