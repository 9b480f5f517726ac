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
from typing import Any, Callable, Dict, Optional, Union

from repro.ops import backoff_rounds
from repro.recovery import (
    DegradedReason,
    DegradedResult,
    MUTATING_OPS,
    RecoveryEvent,
    RecoveryManager,
    apply_to,
    merged_lsm_items,
)
from repro.serve.coalesce import MergedBatch, ReadGroup
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
    """Execute merged batches under the resilience rules above.

    Constructed by the server around a :class:`RecoveryManager` whose
    hooks this policy owns (it wires them itself).  ``execute`` returns
    the batch result, a :class:`DegradedResult`, or a
    :class:`Refusal` template the server fans out per request.
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
        manager.on_failure = self._on_failure
        manager.on_recovery = self._on_recovery
        manager.on_degrade = self._on_degrade
        self._failures = 0        # consecutive failure events
        self._streak = 0          # consecutive successful batches
        self._open_until: Optional[int] = None  # breaker cooldown end
        self._tick = 0            # last tick seen (for hook context)
        self._stale_cache: Optional[tuple] = None
        self.stats: Dict[str, int] = {
            "failures": 0, "failovers": 0, "trips": 0, "probes": 0,
            "stale_reads": 0, "refused_writes": 0,
        }

    # -- manager hooks ----------------------------------------------------

    def _on_failure(self, op: str, exc: Exception) -> None:
        self._failures += 1
        self.stats["failures"] += 1

    def _on_recovery(self, event: RecoveryEvent) -> None:
        self.stats["failovers"] += 1
        self._streak = 0
        if self.health.state in (HealthState.HEALTHY,
                                 HealthState.RECOVERING,
                                 HealthState.FAILED_OVER):
            self.health.to(HealthState.FAILED_OVER, self._tick,
                           f"failover after {event.cause}")

    def _on_degrade(self, result: DegradedResult) -> None:
        # Permanent: no live hardware remains.  Latch the breaker open.
        self._open_until = None
        if self.health.state is not HealthState.DEGRADED:
            self.health.to(HealthState.DEGRADED, self._tick,
                           f"quiesced: {result.cause}")

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
        chk = self.manager.checkpoint
        # Captures counted, not ``id(chk)``: a freed checkpoint's address
        # is reused, and right after a capture the log is empty again.
        key = (self.manager.checkpoints_captured, self.manager.log_size)
        if self._stale_cache is not None and self._stale_cache[0] == key:
            return self._stale_cache[1]
        if chk.kind in ("skiplist", "pimtree"):
            # Both checkpoint as a sorted (key, value) pair list.
            items = list(chk.payload)
        elif chk.kind == "lsm":
            items = merged_lsm_items(chk)
        else:
            raise TypeError(
                f"no degraded-read support for checkpoint kind {chk.kind!r}")
        oracle = SequentialOracle(items)
        for op, payload in self.manager._log:
            oracle.apply_batch(op, payload)
        self._stale_cache = (key, oracle)
        return oracle

    def _stale_read(self, batch: Union[MergedBatch, ReadGroup],
                    ) -> DegradedResult:
        self.stats["stale_reads"] += 1
        view = self._durable_view()
        return DegradedResult(
            batch.op, DegradedReason.STALE_READ,
            cause=self.manager.degraded_reason or "circuit open",
            value=apply_to(view, batch.op, batch.items))

    # -- the execute path -------------------------------------------------

    def execute(self, batch: Union[MergedBatch, ReadGroup], tick: int,
                ) -> Union[Any, DegradedResult, Refusal]:
        """Run one merged batch under the resilience rules.

        Returns the structure's batch result on success, a
        :class:`DegradedResult` (stale read / quiesced), or a
        :class:`Refusal` template (degraded writes) that the server
        stamps per request.  A :class:`ReadGroup` is one non-mutating
        batch: its result (and a stale read's ``value``) is a list,
        one entry per batch of the group.
        """
        self._tick = tick
        self._maybe_half_open(tick)
        if self.circuit_open:
            if batch.op in MUTATING_OPS:
                self.stats["refused_writes"] += 1
                return Refusal(batch.op, "*",
                               RefusalReason.WRITE_UNAVAILABLE,
                               "circuit open; writes refused while "
                               "degraded")
            return self._stale_read(batch)

        failures_before = self._failures
        result = self._run_clamped(batch, tick)
        if isinstance(result, DegradedResult):
            # The manager quiesced mid-batch (hooks already latched the
            # breaker open).  Honour the SLO for *this* batch too.
            if batch.op in MUTATING_OPS:
                return result
            return self._stale_read(batch)

        # Success on live (possibly freshly promoted) hardware.
        self._streak += 1
        if self._failures > failures_before \
                and self._failures >= self.breaker_threshold:
            # The batch survived via retries/failovers, but the fault
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
        return result

    def _run_clamped(self, batch: Union[MergedBatch, ReadGroup],
                     tick: int) -> Any:
        """``manager.run`` with the deadline-clamped retry budget."""
        machine = getattr(self.manager.structure, "machine", None)
        deadline = batch.min_deadline
        if machine is None or deadline is None:
            return self.manager.run(batch.op, batch.items)
        original = machine.config
        # One delivery attempt per remaining tick, floor one: a batch
        # admitted with 3 ticks to spare gets 3 attempts, not the full
        # backoff curve charged long past its deadline.  MachineConfig
        # is frozen, so swap in a clamped copy for this batch only.
        clamped = max(1, min(original.max_delivery_attempts,
                             deadline - tick + 1))
        machine.config = replace(original, max_delivery_attempts=clamped)
        try:
            return self.manager.run(batch.op, batch.items)
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
