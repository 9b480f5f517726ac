"""Typed refusals and request/response envelopes for the serving layer.

The serving SLO is the PR 5 contract lifted to a multi-tenant front
end: **a correct answer or a typed refusal, never a wrong answer,
never a hang**.  Every way the server can decline work is a distinct
*falsy, typed* value here -- clients dispatch on ``reason`` (a
:class:`RefusalReason` member), never on message strings, and a
truth-test cleanly separates "answered" from "refused" exactly like
:class:`repro.recovery.DegradedResult` (which the server also returns,
for degraded-mode reads and a quiesced backend).

A refusal is a *value*, not an exception: a refused request must leave
the backend untouched (refusals are never journaled, so the soak
harness can prove non-effect by sequential replay), and an
asyncio client awaiting thousands of in-flight ops should not pay
exception plumbing for ordinary backpressure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Optional

__all__ = ["Refusal", "RefusalReason", "Request", "ServerStalled"]


class RefusalReason(Enum):
    """Machine-readable reason a request was refused.

    - ``OVERLOADED`` -- admission control refused: the tenant's bounded
      queue was full or its token bucket was empty.  Back off and retry.
    - ``DEADLINE`` -- the request's deadline expired before (or while)
      the scheduler could dispatch it.
    - ``WRITE_UNAVAILABLE`` -- the circuit breaker holds the backend
      open; writes are refused while reads are served stale from the
      last checkpoint.
    - ``UNSUPPORTED`` -- the op is not in the structure's
      ``BATCH_CAPS``.
    - ``SHUTDOWN`` -- the server stopped with the request still queued.
    """

    OVERLOADED = "overloaded"
    DEADLINE = "deadline"
    WRITE_UNAVAILABLE = "write_unavailable"
    UNSUPPORTED = "unsupported"
    SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class Refusal:
    """One typed refusal.  Always falsy; carries no result data.

    ``op``/``tenant`` identify the refused request, ``reason`` is the
    machine-readable :class:`RefusalReason`, ``detail`` is free-text
    context (queue depths, deadline arithmetic) for logs only.
    """

    op: str
    tenant: str
    reason: RefusalReason
    detail: str = ""

    def __bool__(self) -> bool:
        return False


class ServerStalled(RuntimeError):
    """The bounded-progress watchdog fired: requests were pending but no
    request completed (or was refused) for ``watchdog_ticks`` scheduler
    ticks.  Raised out of the scheduler loop -- a hang turned into a
    loud, typed failure, so "never a hang" is enforceable in CI."""


_request_ids = itertools.count()


class Request:
    """One client request: a small same-op batch plus routing state.

    ``deadline`` is an *absolute* scheduler tick (virtual time, see
    :class:`repro.serve.server.Server`); ``None`` means no deadline.
    ``future`` resolves to the op's result list (reads), ``None``
    (writes), a :class:`Refusal`, or a
    :class:`~repro.recovery.DegradedResult`.  ``items`` is the payload
    length and ``state`` the tenant's
    :class:`~repro.serve.admission.TenantState`, attached by admission,
    so every later stage reaches the tenant without a lookup.
    """

    __slots__ = ("tenant", "op", "payload", "items", "deadline",
                 "submitted_tick", "future", "id", "state")

    def __init__(self, tenant: str, op: str, payload: List[Any],
                 deadline: Optional[int] = None,
                 submitted_tick: int = 0) -> None:
        self.tenant = tenant
        self.op = op
        self.payload = payload
        self.items = len(payload)
        self.deadline = deadline
        self.submitted_tick = submitted_tick
        self.future: Any = None  # asyncio.Future, attached by the server
        self.id = next(_request_ids)
        self.state: Any = None

    def expired(self, tick: int) -> bool:
        return self.deadline is not None and tick > self.deadline
