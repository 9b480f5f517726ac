"""Resilient concurrent serving layer over one batched PIM structure.

Four stages, one SLO (**a correct answer or a typed refusal, never a
wrong answer, never a hang**):

- :mod:`repro.serve.admission` -- per-tenant token buckets + bounded
  queues; overload becomes a typed ``OVERLOADED`` refusal, never
  unbounded buffering.
- :mod:`repro.serve.coalesce` -- merges admitted requests into
  PIM-sized same-op batches, round-robin fair across tenants,
  preserving each tenant's program order.
- :mod:`repro.serve.policy` -- deadlines clamp the pipeline retry
  budget, jittered capped retries, a circuit breaker that degrades to
  checkpoint-stale reads and typed write refusals, standby failover
  via :mod:`repro.recovery`.
- :mod:`repro.serve.server` -- the asyncio scheduler loop, demux,
  journal (for sequential-replay verification), health state machine
  and status API, bounded-progress watchdog.

Certified by the chaos soak harness (:mod:`repro.verify.soak`).
"""

from repro.serve.admission import AdmissionController, TenantState, TokenBucket
from repro.serve.coalesce import Coalescer, MergedBatch, TickGroup
from repro.serve.errors import Refusal, RefusalReason, Request, ServerStalled
from repro.serve.health import HealthMonitor, HealthState
from repro.serve.policy import ResiliencePolicy, jittered_backoff
from repro.serve.server import JournalEntry, Server, ServerConfig

__all__ = [
    "AdmissionController",
    "Coalescer",
    "HealthMonitor",
    "HealthState",
    "JournalEntry",
    "MergedBatch",
    "Refusal",
    "RefusalReason",
    "Request",
    "ResiliencePolicy",
    "Server",
    "ServerConfig",
    "ServerStalled",
    "TenantState",
    "TickGroup",
    "TokenBucket",
    "jittered_backoff",
]
