"""Machine configuration for the PIM simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

#: Inert: read by nothing.  The round engine used to be selectable
#: through this environment variable; there is one engine now
#: (:class:`repro.sim.machine.PIMMachine`) and setting the variable
#: changes nothing.  The name stays importable because the frozen
#: end-to-end benchmark (``benchmarks/e2e/bench_e2e.py``) imports it to
#: report the environment it ran in.
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"


def default_shared_memory_words(num_modules: int) -> int:
    """Default CPU-side shared memory size ``M`` in words.

    The paper restricts ``M`` to be independent of ``n`` and at most
    ``Theta(P log^2 P)``; the batched operations need ``Theta(P log^2 P)``
    shared memory (Table 1).  We default to ``32 * P * ceil(log2 P)^2``
    (with log2 floored at 1 so tiny machines still get a usable cache);
    the constant 32 covers the largest declared footprint at canonical
    batch sizes -- batched Delete's list-contraction copy (each of ~1.75B
    marked nodes plus its two run boundaries, 4 words per copied node;
    see ``tests/test_shared_memory_honesty.py``).
    """
    log_p = max(1, math.ceil(math.log2(max(2, num_modules))))
    return 32 * num_modules * log_p * log_p


@dataclass(frozen=True)
class MachineConfig:
    """Static configuration of a :class:`repro.sim.machine.PIMMachine`.

    Parameters
    ----------
    num_modules:
        ``P``, the number of PIM modules.  Must be >= 1.
    shared_memory_words:
        ``M``, the CPU-side shared memory size in words.  ``None`` selects
        :func:`default_shared_memory_words`.
    local_memory_words:
        Per-module local memory budget in words, or ``None`` for untracked
        enforcement (usage is still recorded).  The model sets this to
        ``Theta(n/P)``; because ``n`` varies over a structure's lifetime we
        leave enforcement opt-in.
    enforce_shared_memory:
        If true, :class:`repro.sim.errors.SharedMemoryExceeded` is raised
        when CPU-side allocations exceed ``M``.
    enforce_local_memory:
        If true, :class:`repro.sim.errors.LocalMemoryExceeded` is raised
        when a module's footprint exceeds ``local_memory_words``.
    seed:
        Seed for the machine's deterministic random stream (used by data
        structures for hashing and coin flips).
    trace_accesses:
        If true, per-round per-object access counts are recorded in
        :class:`repro.sim.tracing.AccessTrace` (needed by the Lemma 4.2
        contention experiments; small overhead otherwise).
    trace_rounds:
        If true (the default), every round appends one row to the
        tracer's typed round columns (:class:`repro.sim.tracing.Tracer`;
        the round-timeline reports read them back as
        :class:`repro.sim.tracing.RoundLog` records).  A row is 40
        bytes and no garbage-collected object, so leaving this on costs
        a long-running machine memory, not collection time; the
        wall-clock micro-benchmarks still turn it off to time the bare
        round loop.  Model metrics are unaffected either way.
    contention_model:
        ``"none"`` (default) or ``"qrqw"``.  The paper's §2.1 Discussion
        sketches a queue-read/queue-write variant where ``k`` accesses to
        one location cost ``k`` time; under ``"qrqw"`` a module's
        effective work in a round is at least the access count of its
        hottest object (bodies mark accesses with ``bct.touch``), and
        PIM time accumulates the effective per-round maxima.
    max_delivery_attempts:
        Reliable-delivery protocol (:mod:`repro.ops.pipeline`): how many
        times a CPU->module envelope is (re)sent before the driver raises
        :class:`repro.sim.errors.DeliveryTimeout`.  Only consulted when a
        fault plan is installed (see :mod:`repro.sim.chaos`); the
        fault-free path never retries.  Between attempts the driver
        waits :func:`repro.ops.backoff_rounds` idle rounds (each charged
        one round plus ``log2 P`` sync cost -- waiting is not free).
    """

    num_modules: int
    shared_memory_words: Optional[int] = None
    local_memory_words: Optional[int] = None
    enforce_shared_memory: bool = False
    enforce_local_memory: bool = False
    seed: int = 0
    trace_accesses: bool = False
    trace_rounds: bool = True
    contention_model: str = "none"
    max_delivery_attempts: int = 8

    def __post_init__(self) -> None:
        if self.num_modules < 1:
            raise ValueError("num_modules must be >= 1")
        if self.shared_memory_words is not None and self.shared_memory_words < 1:
            raise ValueError("shared_memory_words must be positive")
        if self.local_memory_words is not None and self.local_memory_words < 1:
            raise ValueError("local_memory_words must be positive")
        if self.contention_model not in ("none", "qrqw"):
            raise ValueError("contention_model must be 'none' or 'qrqw'")
        if self.max_delivery_attempts < 1:
            raise ValueError("max_delivery_attempts must be >= 1")

    @property
    def resolved_shared_memory_words(self) -> int:
        """``M`` after applying the default when unset."""
        if self.shared_memory_words is not None:
            return self.shared_memory_words
        return default_shared_memory_words(self.num_modules)

    @property
    def log_p(self) -> float:
        """``log2 P``, floored at 1.0 (sync cost per round, etc.)."""
        return max(1.0, math.log2(self.num_modules))
