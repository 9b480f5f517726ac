"""The resilience policy: deadlines, retries, circuit breaker, degrade.

This layer sits between the coalescer and the
:class:`~repro.recovery.RecoveryManager` and decides *how hard to try*:

- **deadline propagation** -- a merged batch's tightest deadline clamps
  the pipeline's retry budget (``max_delivery_attempts``) for the
  duration of the batch: one delivery attempt per remaining tick,
  floor one.  A request with 3 ticks left fails fast instead of
  burning the full backoff curve past its deadline.
- **capped jittered retries** -- read batches that die with
  :class:`~repro.sim.errors.DeliveryTimeout` are retried in place by
  the recovery manager (``read_retry_attempts``) with a jittered
  backoff curve (deterministic :func:`~repro.sim.chaos._mix` draws, so
  soak runs replay exactly); mutating batches go straight to failover.
- **circuit breaker** -- ``breaker_threshold`` consecutive failure
  events trip the breaker for ``cooldown_ticks``: reads are answered
  from the manager's durable view (last checkpoint advanced by the
  mutation log -- exactly what a failover would rebuild) as typed
  ``STALE_READ`` :class:`~repro.recovery.DegradedResult`\\ s, writes get
  typed ``WRITE_UNAVAILABLE`` refusals.  After the cooldown the breaker
  half-opens (``RECOVERING``): one probe batch goes through to live
  hardware; success closes the circuit, failure re-opens it.
- **failover accounting** -- the manager's standby failovers surface as
  ``FAILED_OVER`` health state; a success streak re-earns ``HEALTHY``.

If the manager quiesces permanently (recovery exhausted/disabled) the
breaker latches open: stale reads and write refusals forever -- the
strongest promise the SLO allows once no live hardware remains.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ops import backoff_rounds
from repro.recovery import (
    DegradedReason,
    DegradedResult,
    RecoveryManager,
    write_of,
)
from repro.recovery.manager import Batches
from repro.serve.coalesce import MergedBatch
from repro.serve.errors import Refusal, RefusalReason
from repro.serve.health import HealthMonitor, HealthState
from repro.sim.chaos import _mix
from repro.verify.oracle import SequentialOracle

__all__ = ["ResiliencePolicy", "jittered_backoff"]


def jittered_backoff(seed: int) -> Callable[[int], int]:
    """The retry backoff curve with deterministic jitter.

    ``attempt`` (1-based) maps to :func:`repro.ops.backoff_rounds`
    (``min(2^(attempt-1), 8)`` idle rounds) plus a 0-2 round jitter
    hashed from ``(seed, attempt)`` -- jitter decorrelates retry storms
    across tenants without sacrificing the bit-identical replays the soak
    harness depends on.
    """

    def backoff(attempt: int) -> int:
        return backoff_rounds(attempt) + _mix(seed, 0xBAC0FF, attempt) % 3

    return backoff


class ResiliencePolicy:
    """Execute a tick's merged batches under the resilience rules above.

    Constructed by the server around a :class:`RecoveryManager`, whose
    books -- ``failures``, ``events``, ``degraded`` -- it reads after
    each run.  ``execute`` returns one outcome per batch: its result, a
    :class:`DegradedResult`, or a :class:`Refusal` template the server
    fans out per request.
    """

    def __init__(self, manager: RecoveryManager, health: HealthMonitor, *,
                 breaker_threshold: int = 3, cooldown_ticks: int = 32,
                 healthy_streak: int = 4) -> None:
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if cooldown_ticks < 1:
            raise ValueError("cooldown_ticks must be >= 1")
        self.manager = manager
        self.health = health
        self.breaker_threshold = breaker_threshold
        self.cooldown_ticks = cooldown_ticks
        self.healthy_streak = healthy_streak
        self._failures = 0        # consecutive failure events
        self._streak = 0          # consecutive successful batches
        self._open_until: Optional[int] = None  # breaker cooldown end
        self._stale_cache: Optional[tuple] = None
        self.stats: Dict[str, int] = {
            "failures": 0, "failovers": 0, "trips": 0, "probes": 0,
            "stale_reads": 0, "refused_writes": 0,
        }

    # -- the manager's books ----------------------------------------------

    def _read_books(self, tick: int, failures: int, failovers: int,
                    degraded: bool) -> None:
        """Account what the manager's last run recorded; the arguments
        are its books from before the run."""
        manager = self.manager
        self._failures += manager.failures - failures
        self.stats["failures"] += manager.failures - failures
        for event in manager.events[failovers:]:
            self.stats["failovers"] += 1
            self._streak = 0
            if self.health.state in (HealthState.HEALTHY,
                                     HealthState.RECOVERING,
                                     HealthState.FAILED_OVER):
                self.health.to(HealthState.FAILED_OVER, tick,
                               f"failover after {event.cause}")
        if manager.degraded and not degraded:
            # Permanent: no live hardware remains.  Latch the breaker open.
            self._open_until = None
            if self.health.state is not HealthState.DEGRADED:
                self.health.to(HealthState.DEGRADED, tick,
                               f"quiesced: {manager.degraded_reason}")

    # -- breaker state ----------------------------------------------------

    @property
    def circuit_open(self) -> bool:
        return self.health.state is HealthState.DEGRADED

    def _maybe_half_open(self, tick: int) -> None:
        """Cooldown elapsed on a tripped (non-latched) breaker?"""
        if (self.health.state is HealthState.DEGRADED
                and self.manager.healthy
                and self._open_until is not None
                and tick >= self._open_until):
            self.health.to(HealthState.RECOVERING, tick,
                           "cooldown elapsed; half-open probe")
            self.stats["probes"] += 1

    def _trip(self, tick: int, why: str) -> None:
        self._open_until = tick + self.cooldown_ticks
        self.stats["trips"] += 1
        self._failures = 0
        if self.health.state is not HealthState.DEGRADED:
            self.health.to(HealthState.DEGRADED, tick, why)

    # -- degraded-mode reads ----------------------------------------------

    def _durable_view(self) -> SequentialOracle:
        """The manager's durable state: checkpoint + mutation log."""
        # Captures counted, not ``id(chk)``: a freed checkpoint's address
        # is reused, and right after a capture the log is empty again.
        key = (self.manager.checkpoints_captured, self.manager.log_size)
        if self._stale_cache is not None and self._stale_cache[0] == key:
            return self._stale_cache[1]
        oracle = SequentialOracle(self.manager.durable_items())
        self._stale_cache = (key, oracle)
        return oracle

    def _stale_read(self, pairs: Batches) -> List[DegradedResult]:
        """The durable view's answer, one per batch."""
        self.stats["stale_reads"] += 1
        view = self._durable_view()
        cause = self.manager.degraded_reason or "circuit open"
        return [DegradedResult(op, DegradedReason.STALE_READ, cause=cause,
                               value=view.apply_batch(op, items))
                for op, items in pairs]

    def _write_denied(self, pairs: Batches, outcome: Any) -> List[Any]:
        """A mutating tick's degraded outcomes: ``outcome`` for the
        write, and stale answers for its riders, as for a read tick: the
        write they ride was never logged, so the durable view is the
        state they would have read before it."""
        riders = pairs[1:]
        return [outcome] + (self._stale_read(riders) if riders else [])

    # -- the execute path -------------------------------------------------

    def execute(self, batches: Sequence[MergedBatch], tick: int,
                ) -> List[Any]:
        """Run one tick's batches under the resilience rules.

        Returns one outcome per batch: the structure's result on
        success, a :class:`DegradedResult` (stale read / quiesced), or a
        :class:`Refusal` template (degraded write) that the server
        stamps per request.  The batches are one unit -- a mutating one
        when they hold a write, which leads: while degraded, the write
        is refused or quiesced and its riders are read stale.
        """
        self._maybe_half_open(tick)
        pairs = [(batch.op, batch.items) for batch in batches]
        mutating = write_of(pairs) is not None
        if self.circuit_open:
            if mutating:
                self.stats["refused_writes"] += 1
                return self._write_denied(pairs, Refusal(
                    pairs[0][0], "*", RefusalReason.WRITE_UNAVAILABLE,
                    "circuit open; writes refused while degraded"))
            return self._stale_read(pairs)

        manager = self.manager
        books = (manager.failures, len(manager.events), manager.degraded)
        failures_before = self._failures
        results = self._run_clamped(pairs, min(
            (batch.min_deadline for batch in batches
             if batch.min_deadline is not None), default=None), tick)
        self._read_books(tick, *books)
        if manager.degraded:
            # The manager quiesced mid-run (the breaker is now latched
            # open).  Honour the SLO for *these* batches too.
            if mutating:
                return self._write_denied(pairs, results[0])
            return self._stale_read(pairs)

        # Success on live (possibly freshly promoted) hardware.
        self._streak += 1
        if self._failures > failures_before \
                and self._failures >= self.breaker_threshold:
            # The batches survived via retries/failovers, but the fault
            # rate says the next ones may not: open the circuit.
            self._trip(tick, f"{self._failures} failure events; "
                             f"cooling down {self.cooldown_ticks} ticks")
        elif self._failures == failures_before:
            if self._failures:
                self._failures = 0
            if (self.health.state is HealthState.RECOVERING
                    or (self.health.state is HealthState.FAILED_OVER
                        and self._streak >= self.healthy_streak)):
                self.health.to(HealthState.HEALTHY, tick,
                               f"{self._streak} clean batch(es)")
        return results

    def _run_clamped(self, pairs: Batches, deadline: Optional[int],
                     tick: int) -> List[Any]:
        """``manager.run`` with the retry budget clamped by ``deadline``,
        the tightest of the batches'."""
        machine = getattr(self.manager.structure, "machine", None)
        if machine is None or deadline is None:
            return self.manager.run(pairs)
        original = machine.config
        # One delivery attempt per remaining tick, floor one: a batch
        # admitted with 3 ticks to spare gets 3 attempts, not the full
        # backoff curve charged long past its deadline.  MachineConfig
        # is frozen, so swap in a clamped copy for this run only.
        clamped = max(1, min(original.max_delivery_attempts,
                             deadline - tick + 1))
        machine.config = replace(original, max_delivery_attempts=clamped)
        try:
            return self.manager.run(pairs)
        finally:
            machine.config = original

    def as_dict(self) -> Dict[str, object]:
        return {
            "stats": dict(self.stats),
            "circuit_open": self.circuit_open,
            "open_until": self._open_until,
            "consecutive_failures": self._failures,
            "streak": self._streak,
            "recoveries": self.manager.recoveries,
            "manager_degraded": self.manager.degraded,
        }
