"""Differential verification: fuzzer, cross-implementation oracle, shrinker.

The paper's claims are comparative -- the PIM-balanced skip list against
range-partitioned, hash-partitioned, fine-grained and naive-batch
baselines under adversarial batches -- so correctness must be checked
*across* implementations, not per structure.  This package is the
correctness backbone the ROADMAP's perf PRs regress against:

- :mod:`repro.verify.fuzz` -- a seeded workload fuzzer (on top of
  :mod:`repro.workloads.generators`) emitting mixed batch sessions with
  adversarial shapes: contiguous runs, duplicate-heavy and Zipf-skewed
  reads, same-successor clusters, churn, and ranges over fresh deletes.
- :mod:`repro.verify.adapters` -- every implementation behind the
  uniform ``apply_batch`` conformance surface, each on its own fresh
  seeded :class:`~repro.sim.machine.PIMMachine`.
- :mod:`repro.verify.differ` -- the differential driver: replays each
  session simultaneously against the skip list, the five baselines and
  the LSM store, checking observable equivalence against the
  :class:`~repro.verify.oracle.SequentialOracle` plus metamorphic cost
  invariants (bit-identical metrics across reruns of the same seed,
  per-batch round counts within paper envelopes, metric monotonicity
  under batch splitting), and the FIFO/priority-queue containers
  against deque/heap oracles.
- :mod:`repro.verify.shrink` -- a failing-case shrinker that minimizes
  any diverging session to a small reproducer, plus the session's JSON
  form.
- :mod:`repro.verify.faults` -- the unified fault registry: adapter
  mutations (the verifier itself is mutation-tested: a seeded fault
  must be caught, shrunk, and emitted as a repro file) plus the
  machine-level fault schedules, collision-checked under one namespace.
- :mod:`repro.verify.chaos` -- the differential chaos harness: fuzz
  sessions replayed on an unreliable machine under a recovery manager,
  checking result equivalence, round-overhead envelopes, and
  bit-identical reruns per (session seed, fault seed).
- :mod:`repro.verify.soak` -- concurrent clients against
  :mod:`repro.serve`, checked against a replay of the server's journal.
- :mod:`repro.verify.durable` -- a kill at every acked-record boundary
  and every disk fault, each restart checked against the acked prefix.
- :mod:`repro.verify.certificate` -- the shape every harness reports
  in, the one runner (:func:`certify`) and the one repro file format
  (``tests/golden/repros/``, replayed by ``tests/test_verify_repros.py``).
- :mod:`repro.verify.cli` --
  ``python -m repro verify fuzz|replay|shrink|chaos|soak|durable|faults``.
"""

from repro.verify.adapters import (
    DEFAULT_IMPLS,
    IMPLEMENTATIONS,
    ImplAdapter,
    build_implementations,
)
from repro.verify.differ import (
    Divergence,
    SessionReport,
    verify_containers,
    verify_session,
)
from repro.verify.certificate import (
    Certificate,
    certify,
    load_repro,
    write_repro,
)
from repro.verify.chaos import (
    ChaosReport,
    MESSAGE_SCHEDULES,
    OVERHEAD_ENVELOPES,
    chaos_containers,
    chaos_session,
)
from repro.verify.faults import (
    FAULTS,
    REGISTRY,
    FaultDef,
    describe_faults,
    fault_names,
    get_fault,
    inject_fault,
)
from repro.verify.fuzz import fuzz_session
from repro.verify.oracle import SequentialOracle
from repro.verify.shrink import (
    session_from_dict,
    session_to_dict,
    shrink_session,
)

__all__ = [
    "Certificate",
    "ChaosReport",
    "DEFAULT_IMPLS",
    "Divergence",
    "FAULTS",
    "FaultDef",
    "IMPLEMENTATIONS",
    "ImplAdapter",
    "MESSAGE_SCHEDULES",
    "OVERHEAD_ENVELOPES",
    "REGISTRY",
    "SequentialOracle",
    "SessionReport",
    "build_implementations",
    "certify",
    "chaos_containers",
    "chaos_session",
    "describe_faults",
    "fault_names",
    "fuzz_session",
    "get_fault",
    "inject_fault",
    "load_repro",
    "session_from_dict",
    "session_to_dict",
    "shrink_session",
    "verify_containers",
    "verify_session",
    "write_repro",
]
