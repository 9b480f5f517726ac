"""Checkpoint/replay recovery driver for batched structures.

:class:`RecoveryManager` wraps one structure on one (possibly
fault-injected) machine and makes its batch stream survive module
crashes:

- it takes a logical checkpoint at start, and again after a successful
  *mutating* batch once **both** hold: ``checkpoint_every`` mutating
  batches have passed (the minimum spacing), and the payload items
  ``run`` has served since the last capture -- reads and writes
  together -- add up to at least the checkpoint's own item count.
  Capture is Theta(stored items), so this is the rule that keeps it
  amortized: at most one stored item walked (and, with a state dir,
  snapshotted) per item served.  On an empty or tiny structure the
  second condition is vacuous and the cadence is every
  ``checkpoint_every`` mutating batches,
- it logs every successful mutating batch since the last checkpoint --
  at most the checkpoint's item count plus one batch of items (or
  ``checkpoint_every`` batches, on a tiny structure), so a failover or
  restart replays a constant factor of what restoring the checkpoint
  already costs,
- when a batch dies with :class:`~repro.sim.errors.ModuleCrashed` or
  :class:`~repro.sim.errors.DeliveryTimeout`, it rebuilds the structure
  on a *clean* standby machine (the ``rebuild`` factory), restores the
  checkpoint, replays the log, retries the failed batch there, and
  continues on the new machine.

The failed batch may have partially executed on the faulty machine
(some modules applied their slice before the crash surfaced); retrying
it against checkpoint + log is still exactly-once *semantically*
because the restored state contains no effect of the failed batch --
the faulty machine is abandoned wholesale, never read again.

Read-only batches get one cheaper escape hatch first: a
:class:`~repro.sim.errors.DeliveryTimeout` on a non-mutating batch may
be retried **in place** (``read_retry_attempts``) with backoff charged
as idle rounds, because reads leave no partial state behind.  Mutating
batches never retry in place -- a timed-out mutation may have spliced
half its pointers, and only wholesale abandonment is safe.

With ``allow_restore=False`` (or after ``max_recoveries`` failovers)
the manager degrades instead: the structure is quiesced and every
subsequent batch returns a typed :class:`DegradedResult` rather than a
possibly-wrong answer.

The manager itself stays policy-free: it keeps its books -- ``failures``
(every crash or timeout it caught), ``events`` (one per failover) and
``degraded`` -- and the serving layer (:mod:`repro.serve`) reads them
after each ``run`` to drive its circuit breaker and health state machine.

With a :class:`~repro.recovery.durable.store.DurableStore` attached
(``durable=``), the checkpoint + log additionally survive *host*
crashes: every successful mutating batch is appended to the on-disk
WAL **before** ``run`` returns (so an acked write is a durable write,
RPO = 0), the durable snapshot rotates in lockstep with the in-memory
checkpoint, and constructing a manager over a state dir with prior
state restores it -- checkpoint + WAL replay -- onto a fresh
``rebuild()`` structure instead of using the one passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.ops import backoff_rounds
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointUnavailable,
    checkpoint_structure,
    restore_structure,
)
from repro.recovery.durable.store import DurableStore
from repro.sim.errors import DeliveryTimeout, ModuleCrashed

__all__ = ["DegradedReason", "DegradedResult", "MUTATING_OPS",
           "RecoveryEvent", "RecoveryManager", "write_of"]

#: ``apply_batch`` ops that change structure state (and so must be
#: logged for replay).  Reads are never logged.
MUTATING_OPS = frozenset({"upsert", "delete"})

#: One tick's batches, as ``run`` and ``apply_group`` take them: same-op
#: ``(op, payload)`` pairs, a write (if any) first.  A lone batch is a
#: group of one.
Batches = Sequence[Tuple[str, Sequence]]


def write_of(batches: Batches) -> Optional[Tuple[str, Sequence]]:
    """The ``(op, payload)`` a ``run`` writes -- the group's leading
    batch when it mutates -- or ``None`` for reads only.  Only this part
    is logged and appended to the WAL: a write's riders are reads."""
    return batches[0] if batches and batches[0][0] in MUTATING_OPS else None


class DegradedReason(Enum):
    """Machine-readable reason a :class:`DegradedResult` was returned.

    - ``QUIESCED`` -- the manager already degraded earlier; every
      subsequent batch is refused without touching hardware.
    - ``RESTORE_DISABLED`` -- a batch failed and the manager was
      constructed with ``allow_restore=False``.
    - ``RECOVERY_EXHAUSTED`` -- a batch failed after ``max_recoveries``
      failovers had already been spent.
    - ``STALE_READ`` -- the serving layer answered a read from the last
      checkpoint while its circuit breaker holds the backend open
      (:mod:`repro.serve.policy`); the payload rides in ``value``.
    """

    QUIESCED = "quiesced"
    RESTORE_DISABLED = "restore_disabled"
    RECOVERY_EXHAUSTED = "recovery_exhausted"
    STALE_READ = "stale_read"


@dataclass(frozen=True)
class DegradedResult:
    """Typed refusal: a degraded answer, never a wrong one.

    This class is the *single* authoritative definition of degraded
    behaviour (DESIGN.md §12 and the serving layer reference it):

    - ``bool(DegradedResult(...))`` is **always False** -- code that
      truth-tests a batch result treats degradation as "no answer",
      even when ``value`` carries a best-effort stale payload.
    - ``op`` is the refused batch op (``get`` / ``upsert`` / ...).
    - ``reason`` is a machine-readable :class:`DegradedReason` member;
      dispatch on it, never on the human-readable ``cause``.
    - ``cause`` is free-text context (the original exception, etc.).
    - ``value`` is ``None`` except for ``STALE_READ``, where it holds
      the checkpoint-derived read results (stale by construction; the
      caller opted into them by reading while degraded).

    Returned (never raised) so a degraded batch stream stays a stream
    of values -- the contract is "a correct answer or a typed refusal,
    never a wrong answer".
    """

    op: str
    reason: DegradedReason
    cause: str = ""
    value: Any = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class RecoveryEvent:
    """One failover: what failed, and what the rebuild replayed.  ``op``
    is the failed batch's op (a group's ops joined with ``+``)."""

    op: str
    cause: str
    checkpoint_items: int
    replayed_batches: int


class RecoveryManager:
    """Run batches with crash recovery (see module docstring).

    ``rebuild`` is a zero-argument factory returning a fresh, *empty*
    structure on a clean machine (no fault plan) -- the standby
    hardware.  The structure must implement ``apply_batch(op, payload)``
    (the log replay) and ``apply_group(batches)`` (every ``run``; the
    skip list, the PIM-tree and the LSM store do).

    ``read_retry_attempts`` allows that many in-place retries of a
    *read* batch on :class:`~repro.sim.errors.DeliveryTimeout` before a
    failover is spent; ``retry_backoff`` maps the attempt number (1-based)
    to idle rounds charged on the structure's machine between attempts
    (default: :func:`repro.ops.backoff_rounds`; the serving layer passes
    it jittered).
    """

    def __init__(self, structure: Any, rebuild: Callable[[], Any], *,
                 checkpoint_every: int = 4, allow_restore: bool = True,
                 max_recoveries: int = 4,
                 read_retry_attempts: int = 0,
                 retry_backoff: Optional[Callable[[int], int]] = None,
                 durable: Optional[DurableStore] = None,
                 ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if read_retry_attempts < 0:
            raise ValueError("read_retry_attempts must be >= 0")
        self.structure = structure
        self.rebuild = rebuild
        self.checkpoint_every = checkpoint_every
        self.allow_restore = allow_restore
        self.max_recoveries = max_recoveries
        self.read_retry_attempts = read_retry_attempts
        self.retry_backoff = retry_backoff or backoff_rounds
        self.failures = 0  # crashes and timeouts caught, retries included
        self.degraded = False
        self.degraded_reason = ""
        self.events: List[RecoveryEvent] = []
        self.read_retries = 0  # in-place read retries actually spent
        self.checkpoints_captured = 0  # by this manager, initial included
        self._log: List[Tuple[str, list]] = []
        self._log_items = 0     # payload items across ``_log``
        self._mutations = 0     # mutating batches since the last capture
        self._served_items = 0  # payload items run() served since then
        self.durable = durable
        self.checkpoint: Checkpoint
        if durable is not None and not durable.report.created:
            # Reopened state dir: disk is the source of truth.  The
            # passed-in structure is discarded; state comes back as
            # snapshot restore + WAL replay onto clean hardware.
            assert durable.report.checkpoint is not None
            self.checkpoint = durable.report.checkpoint
            for record in durable.report.records:
                self._log_batch(record.op, record.payload)
            self.structure = self._restore(rebuild())
            self._served_items = self._log_items
            return
        self.checkpoint = checkpoint_structure(structure)
        self.checkpoints_captured = 1
        if durable is not None:
            durable.bootstrap(self.checkpoint)

    @property
    def restored_from_disk(self) -> bool:
        """True when this manager's state came from a reopened state
        dir rather than the structure passed to the constructor."""
        return self.durable is not None and not self.durable.report.created

    # -- introspection ---------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while batches run on live (original or standby) hardware."""
        return not self.degraded

    @property
    def recoveries(self) -> int:
        """Failovers performed so far."""
        return len(self.events)

    @property
    def log_size(self) -> int:
        """Mutating batches logged since the last checkpoint."""
        return len(self._log)

    @property
    def replay_debt_items(self) -> int:
        """Payload items a failover or restart would replay right now
        (the logged batches' sizes, summed)."""
        return self._log_items

    @property
    def last_checkpoint_items(self) -> int:
        """Item count of the current checkpoint -- the served-items
        threshold the next capture waits for."""
        return self.checkpoint.item_count()

    def durable_items(self) -> List[Tuple[Any, Any]]:
        """What a failover or restart would rebuild right now, for an
        ordered map (skip list, LSM store, PIM-tree): the checkpoint's
        items advanced by the mutation log, as sorted ``(key, value)``
        pairs."""
        if self.checkpoint.kind not in ("skiplist", "lsm", "pimtree"):
            raise TypeError(f"a {self.checkpoint.kind!r} checkpoint is "
                            f"not an ordered map")
        data = dict(self.checkpoint.payload)
        for op, payload in self._log:
            if op == "upsert":
                data.update(payload)
            else:
                for key in payload:
                    data.pop(key, None)
        return sorted(data.items())

    # -- batch driver ----------------------------------------------------

    def run(self, batches: Batches) -> List[Any]:
        """Apply one tick's batches; recover or degrade on module failure.

        Returns one outcome per batch: its ``apply_group`` result, or a
        :class:`DegradedResult` each when the manager has quiesced.  The
        batches are one unit: retried in place only without a write,
        failed over and degraded whole.  A write shares its tick only
        with its riders, and only the write is logged (and appended to
        the WAL) before ``run`` returns, so the riders are answered
        after a durable write (RPO 0)."""
        if self.degraded:
            return self._degrade(batches, DegradedReason.QUIESCED,
                                 self.degraded_reason)
        attempt = 0
        while True:
            try:
                results = self.structure.apply_group(batches)
            except (ModuleCrashed, DeliveryTimeout) as exc:
                self.failures += 1
                if (write_of(batches) is None
                        and isinstance(exc, DeliveryTimeout)
                        and attempt < self.read_retry_attempts):
                    # A timed-out read left no partial state; a cheap
                    # in-place retry may beat a full failover when the
                    # fault was transient (message loss, a straggler).
                    attempt += 1
                    self.read_retries += 1
                    self._idle(self.retry_backoff(attempt))
                    continue
                return self._recover(batches, exc)
            self._note_success(batches)
            return results

    # -- internals -------------------------------------------------------

    def _idle(self, rounds: int) -> None:
        machine = getattr(self.structure, "machine", None)
        if machine is not None and rounds > 0:
            machine.idle_rounds(rounds)

    def _log_batch(self, op: str, payload: list) -> None:
        self._log.append((op, payload))
        self._log_items += len(payload)
        self._mutations += 1

    def _restore(self, standby: Any) -> Any:
        """``standby`` (fresh from ``rebuild``) brought to the durable
        state: the checkpoint restored, then the log replayed."""
        restore_structure(self.checkpoint, standby)
        for op, payload in self._log:
            standby.apply_batch(op, payload)
        return standby

    def _note_success(self, batches: Batches) -> None:
        self._served_items += sum(len(payload) for _, payload in batches)
        write = write_of(batches)
        if write is None:
            return
        # The one copy the manager takes: the caller keeps its list, and
        # ``apply_batch`` copies for itself.  The WAL encodes this same
        # list (JSON writes pair tuples as lists, which a restart logs
        # and replays as they are).
        op, logged = write[0], list(write[1])
        self._log_batch(op, logged)
        if self.durable is not None:
            # Durable-before-ack: run() only returns (and the serving
            # layer only acks) after this record survives a crash.
            self.durable.append(op, logged)
        if (self._mutations >= self.checkpoint_every
                and self._served_items >= self.checkpoint.item_count()):
            try:
                captured = checkpoint_structure(self.structure)
            except CheckpointUnavailable:
                # A wiped module holds part of the structure and no
                # traffic has tripped failover yet.  The previous
                # checkpoint + the (still-growing) log remain a correct
                # recovery recipe; capture retries after the next
                # mutation.
                return
            self.checkpoint = captured
            self.checkpoints_captured += 1
            self._log.clear()
            self._log_items = 0
            self._mutations = 0
            self._served_items = 0
            if self.durable is not None:
                self.durable.snapshot(captured)

    def _recover(self, batches: Batches, exc: Exception) -> List[Any]:
        cause = f"{type(exc).__name__}: {exc}"
        if not self.allow_restore:
            return self._degrade(batches, DegradedReason.RESTORE_DISABLED,
                                 cause)
        if self.recoveries >= self.max_recoveries:
            return self._degrade(batches, DegradedReason.RECOVERY_EXHAUSTED,
                                 cause)

        standby = self.rebuild()
        self.events.append(RecoveryEvent(
            op="+".join(op for op, _ in batches), cause=cause,
            checkpoint_items=self.checkpoint.item_count(),
            replayed_batches=len(self._log)))
        # Restore the checkpoint, replay the log and retry the failed
        # batches on the standby.  A clean machine cannot crash, but the
        # factory may hand back faulty hardware; a failure anywhere in
        # here has spent this failover, and recursing makes it consume
        # another recovery (or degrade).
        try:
            self.structure = self._restore(standby)
            results = standby.apply_group(batches)
        except (ModuleCrashed, DeliveryTimeout) as retry_exc:
            self.failures += 1
            return self._recover(batches, retry_exc)
        self._note_success(batches)
        return results

    def _degrade(self, batches: Batches, reason: DegradedReason,
                 cause: str) -> List[DegradedResult]:
        """Quiesce (for good), refusing each batch typed."""
        self.degraded = True
        self.degraded_reason = cause
        return [DegradedResult(op, reason, cause) for op, _ in batches]
