"""The PIM machine simulator.

This package is an executable instantiation of the Processing-in-Memory
model of Kang et al. (SPAA 2021).  It provides:

- :class:`~repro.sim.machine.PIMMachine` -- the machine: ``P`` PIM modules,
  a CPU side with a small shared memory of ``M`` words, and a
  bulk-synchronous network between the two sides.
- :class:`~repro.sim.metrics.Metrics` -- the model's cost metrics (CPU
  work, CPU depth, PIM time, IO time, rounds, synchronization cost,
  shared-memory footprint), charged exactly as the paper defines them.
- :class:`~repro.sim.module.PIMModule` -- a PIM module's local memory,
  work and structure state; :class:`~repro.sim.fastpath.BatchRound` --
  the context a function's batch body runs a round's tasks through.
- :class:`~repro.sim.cpu.CPUSide` -- work/depth accounting and shared
  memory allocation for the CPU side.

Algorithms are written as CPU-side orchestration code that offloads
``(function id, args)`` tasks to PIM modules via ``TaskSend`` messages; the
machine executes one bulk-synchronous round per :meth:`PIMMachine.step`
call and accounts the round's ``h``-relation toward IO time.
"""

from repro.sim.chaos import (
    MACHINE_SCHEDULES,
    ChaosStats,
    CrashEvent,
    FaultPlan,
    FaultSpec,
    StallEvent,
    build_schedule,
)
from repro.sim.config import MachineConfig
from repro.sim.cpu import CPUSide, WorkDepth
from repro.sim.errors import (
    DeliveryTimeout,
    LocalMemoryExceeded,
    ModuleCrashed,
    SharedMemoryExceeded,
    SimulationError,
    UnknownHandlerError,
)
from repro.sim.machine import PIMMachine
from repro.sim.metrics import Metrics, MetricsDelta
from repro.sim.module import PIMModule
from repro.sim.profiling import HandlerProfile, ThroughputProbe, WallTimer
from repro.sim.task import Reply
from repro.sim.tracing import AccessTrace, RoundLog

__all__ = [
    "AccessTrace",
    "CPUSide",
    "ChaosStats",
    "CrashEvent",
    "DeliveryTimeout",
    "FaultPlan",
    "FaultSpec",
    "HandlerProfile",
    "LocalMemoryExceeded",
    "MACHINE_SCHEDULES",
    "MachineConfig",
    "ModuleCrashed",
    "StallEvent",
    "build_schedule",
    "Metrics",
    "MetricsDelta",
    "PIMMachine",
    "PIMModule",
    "Reply",
    "RoundLog",
    "SharedMemoryExceeded",
    "SimulationError",
    "ThroughputProbe",
    "UnknownHandlerError",
    "WallTimer",
    "WorkDepth",
]
