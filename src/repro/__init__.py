"""Reproduction of "The Processing-in-Memory Model" (Kang et al., SPAA 2021).

This library is an executable instantiation of the paper's PIM machine
model together with its PIM-balanced batch-parallel skip list:

- :mod:`repro.sim` -- the PIM machine simulator: ``P`` modules with local
  memories, a CPU side with an ``M``-word shared memory, a
  bulk-synchronous network, and exact accounting of the model's cost
  metrics (CPU work/depth, PIM time, IO time, rounds).
- :mod:`repro.ops` -- the batched-operation pipeline: an op is a name
  and a route generator, and :func:`~repro.ops.run_batch` is the driver
  every batched op (core, baselines, collectives, structures) runs
  through.
- :mod:`repro.core` -- the paper's contribution: the skip list with
  replicated upper part + hashed lower part, supporting batched Get,
  Update, Predecessor, Successor, Upsert, Delete, and RangeOperation.
- :mod:`repro.cpuside` -- CPU-side parallel substrate (sort, semisort,
  list contraction, scans) with canonical work/depth charging.
- :mod:`repro.balls` -- hash families and the balls-in-bins lemmas.
- :mod:`repro.baselines` -- the comparison structures the paper argues
  against (range/hash partitioning, fine-grained placement, pivot-free
  batching).
- :mod:`repro.workloads` -- workload generators, including the paper's
  adversarial patterns.
- :mod:`repro.analysis` -- scaling-law fits and table renderers used by
  the benchmark harness.

Quick start::

    from repro import PIMMachine, PIMSkipList

    machine = PIMMachine(num_modules=16, seed=1)
    sl = PIMSkipList(machine)
    sl.build((k, k * 10) for k in range(0, 4096, 2))
    before = machine.snapshot()
    print(sl.batch_successor([5, 11, 300])[:3])
    print(machine.delta_since(before))
"""

from repro.core.skiplist import PIMSkipList
from repro.sim.machine import PIMMachine
from repro.sim.metrics import Metrics, MetricsDelta

__version__ = "1.0.0"

__all__ = ["PIMMachine", "PIMSkipList", "Metrics", "MetricsDelta", "__version__"]
