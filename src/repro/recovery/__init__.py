"""Checkpoint/restore and crash recovery for PIM structures.

Three layers, composable:

- :mod:`repro.recovery.checkpoint` -- logical snapshots of the five
  batched structures (skip list, LSM store, PIM-tree, FIFO queue,
  priority queue) and charged restore into a fresh structure.
- :mod:`repro.recovery.manager` -- the failover driver, and the one
  recovery path: periodic checkpoints + a mutating-batch log; on
  :class:`~repro.sim.errors.ModuleCrashed` or
  :class:`~repro.sim.errors.DeliveryTimeout` it rebuilds on standby
  hardware, replays, and retries -- or returns a typed
  :class:`~repro.recovery.manager.DegradedResult` when recovery is
  disabled or exhausted.  Never a wrong answer.  A wiped module is
  never repaired in place: it stays unreachable until the failover.
- :mod:`repro.recovery.durable` -- the host-crash half: an on-disk WAL
  plus atomic snapshots under one state dir, so the manager's
  checkpoint + log survive process death and restarts replay to
  exactly the acked prefix (RPO = 0).
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    checkpoint_structure,
    restore_structure,
)
from repro.recovery.durable import (
    DurabilityError,
    DurabilityPolicy,
    DurableStore,
    WalCorruption,
)
from repro.recovery.manager import (
    MUTATING_OPS,
    TICK_GROUP,
    DegradedReason,
    DegradedResult,
    RecoveryEvent,
    RecoveryManager,
    apply_to,
    write_of,
)

__all__ = [
    "Checkpoint",
    "DegradedReason",
    "DegradedResult",
    "DurabilityError",
    "DurabilityPolicy",
    "DurableStore",
    "WalCorruption",
    "MUTATING_OPS",
    "TICK_GROUP",
    "RecoveryEvent",
    "RecoveryManager",
    "apply_to",
    "write_of",
    "checkpoint_structure",
    "restore_structure",
]
