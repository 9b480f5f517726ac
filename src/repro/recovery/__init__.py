"""Checkpoint/restore and crash recovery for PIM structures.

Three layers, composable:

- :mod:`repro.recovery.checkpoint` -- logical snapshots of the four
  batched structures (skip list, LSM store, FIFO queue, priority
  queue) and charged restore into a fresh structure.
- :mod:`repro.recovery.repair` -- in-place re-replication of one wiped
  module's share (skip list and LSM) from surviving replicas plus a
  checkpoint, ending with the structure's own integrity check green.
- :mod:`repro.recovery.manager` -- the failover driver: periodic
  checkpoints + a mutating-batch log; on :class:`~repro.sim.errors.ModuleCrashed`
  or :class:`~repro.sim.errors.DeliveryTimeout` it rebuilds on standby
  hardware, replays, and retries -- or returns a typed
  :class:`~repro.recovery.manager.DegradedResult` when recovery is
  disabled or exhausted.  Never a wrong answer.
- :mod:`repro.recovery.durable` -- the host-crash half: an on-disk WAL
  plus atomic snapshots under one state dir, so the manager's
  checkpoint + log survive process death and restarts replay to
  exactly the acked prefix (RPO = 0).
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    checkpoint_structure,
    merged_lsm_items,
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
    READ_GROUP,
    DegradedReason,
    DegradedResult,
    RecoveryEvent,
    RecoveryManager,
    apply_to,
)
from repro.recovery.repair import (
    RepairError,
    reattach_lsm_module,
    reattach_module,
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
    "READ_GROUP",
    "RecoveryEvent",
    "RecoveryManager",
    "RepairError",
    "apply_to",
    "checkpoint_structure",
    "merged_lsm_items",
    "reattach_lsm_module",
    "reattach_module",
    "restore_structure",
]
