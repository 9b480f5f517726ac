"""PIM modules: local memory, local work and structure state.

Each PIM module has a core and a local memory of ``Theta(n/P)`` words.  A
module executes the tasks delivered to it each round through its
functions' batch bodies (:class:`repro.sim.fastpath.BatchRound`); a body
charges local work explicitly (one unit per RAM instruction at the
model's granularity -- in practice one unit per pointer hop / probe /
node touch), and may emit replies to the CPU side or stage continuation
tasks for other modules.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional

from repro.sim.errors import LocalMemoryExceeded


class PIMModule:
    """State of one PIM module: local memory accounting + structure state.

    Data structures keep their per-module local state (node stores, hash
    tables, list heads, ...) in :attr:`state`, a dict keyed by structure
    name.  The module only tracks the *footprint* in words; structures call
    :meth:`alloc_words` / :meth:`free_words` when they create or destroy
    local objects.
    """

    __slots__ = ("mid", "local_memory_words", "enforce", "words_used",
                 "words_peak", "work", "round_work", "round_touch", "state",
                 "_seen_seqs")

    def __init__(self, mid: int, local_memory_words: Optional[int] = None,
                 enforce: bool = False) -> None:
        self.mid = mid
        self.local_memory_words = local_memory_words
        self.enforce = enforce
        self.words_used = 0
        self.words_peak = 0
        self.work = 0.0          # cumulative local work
        # Work in the module's current (or last active) round.  The engine
        # resets it lazily, when the module receives tasks in a round.
        self.round_work = 0.0
        # Per-round object access queue lengths under the qrqw contention
        # model.  The engine clears this lazily: only when the module
        # receives tasks in a round, so after a round it holds the touches
        # of this module's *last active* round.
        self.round_touch: Counter = Counter()
        self.state: Dict[str, Any] = {}
        # Reliable-delivery replay guard: sequence numbers of protocol
        # envelopes this module already executed.  Lazily allocated --
        # the fault-free path never touches it.
        self._seen_seqs: Optional[set] = None

    # -- memory ----------------------------------------------------------

    def alloc_words(self, n: int) -> None:
        """Charge ``n`` words of local memory to this module."""
        self.words_used += n
        if self.words_used > self.words_peak:
            self.words_peak = self.words_used
        if (
            self.enforce
            and self.local_memory_words is not None
            and self.words_used > self.local_memory_words
        ):
            raise LocalMemoryExceeded(
                f"module {self.mid}: {self.words_used} words used, "
                f"budget {self.local_memory_words}"
            )

    def free_words(self, n: int) -> None:
        """Release ``n`` words of local memory."""
        self.words_used -= n
        if self.words_used < 0:
            raise ValueError(f"module {self.mid}: negative local memory")

    # -- work --------------------------------------------------------------

    def charge(self, w: float = 1.0) -> None:
        """Charge ``w`` units of local work to this module's core.

        Called from batch bodies, most often as the bound charge
        callback handed to local data structures (a module's hash table
        charges its probes through it).  The charge feeds the engine's
        per-round PIM-time maximum via :attr:`round_work`, which the
        engine reads back for every module that received traffic this
        round; a charge made outside any round would count toward
        cumulative :attr:`work` only, and nothing in the library makes
        one.
        """
        self.work += w
        self.round_work += w

    # -- reliable-delivery replay guard --------------------------------------

    def first_delivery(self, seq: int) -> bool:
        """True exactly once per envelope sequence number.

        The idempotence guard of the reliable-delivery protocol
        (:mod:`repro.ops.pipeline`): a duplicated or retried envelope
        whose payload already executed is acknowledged again but *not*
        re-executed.  Guards live in module-local memory; a wiped module
        loses them (see :meth:`PIMMachine.wipe_module`), which is safe
        because an acknowledged envelope was executed before the wipe and
        recovery rebuilds state rather than redelivering old traffic.
        """
        seen = self._seen_seqs
        if seen is None:
            self._seen_seqs = seen = set()
        if seq in seen:
            return False
        seen.add(seq)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PIMModule(mid={self.mid}, words={self.words_used}, work={self.work:.0f})"
