"""PIM modules and the handler execution context.

Each PIM module has a core and a local memory of ``Theta(n/P)`` words.  A
module repeatedly pops tasks from its queue and executes them; handlers
charge local work explicitly (one unit per RAM instruction at the model's
granularity -- in practice one unit per pointer hop / probe / node touch),
and may emit replies to the CPU side or forward continuation tasks to other
modules.

Both classes use ``__slots__``: the context's methods (``charge``,
``touch``, ``reply``, ``forward``) are the hottest calls in the whole
simulator, and one :class:`ModuleContext` per module is created once and
reused across rounds by the engine rather than allocated per round.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Hashable, Optional

from repro.sim.errors import LocalMemoryExceeded, UnknownHandlerError
from repro.sim.task import Reply


class PIMModule:
    """State of one PIM module: local memory accounting + structure state.

    Data structures keep their per-module local state (node stores, hash
    tables, list heads, ...) in :attr:`state`, a dict keyed by structure
    name.  The module only tracks the *footprint* in words; structures call
    :meth:`alloc_words` / :meth:`free_words` when they create or destroy
    local objects.
    """

    __slots__ = ("mid", "local_memory_words", "enforce", "words_used",
                 "words_peak", "work", "round_work", "round_touch", "state")

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

        Called from handlers, most often as the bound charge callback
        handed to local data structures (a module's hash table charges
        its probes through it).  The charge feeds the engine's per-round
        PIM-time maximum via :attr:`round_work`, which the engine reads
        back for modules that received row, column or slot traffic this
        round; a charge made outside any round would count toward
        cumulative :attr:`work` only, and nothing in the library makes
        one.
        """
        self.work += w
        self.round_work += w

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PIMModule(mid={self.mid}, words={self.words_used}, work={self.work:.0f})"


class ModuleContext:
    """Handler-facing view of a module during one task execution.

    Provides work charging, access tracing, reply emission (a message back
    to the CPU-side shared memory) and continuation forwarding (a message
    to another module, routed via the CPU side per the paper, accounted as
    one send now + one receive next round).

    One context per module lives for the machine's lifetime; the engine
    re-arms it (``_replies``, ``_sent_size``) each round the module is
    active.  Tracing and qrqw flags are frozen from the machine config at
    construction so the disabled paths cost one attribute check.
    """

    __slots__ = ("machine", "module", "mid", "num_modules", "tracing",
                 "_replies", "_sent_size", "_access", "_trace_access",
                 "_qrqw", "_handlers", "_seen_seqs")

    def __init__(self, machine: "PIMMachine", module: PIMModule) -> None:  # noqa: F821
        self.machine = machine
        self.module = module
        self.mid = module.mid
        self.num_modules = machine.num_modules
        self._replies: list = []
        self._sent_size = 0
        self._access = machine.tracer.access
        self._trace_access = self._access.enabled
        self._qrqw = machine.qrqw
        # The registry dict is mutated in place, never rebound, so the
        # direct reference stays valid -- forward() is the hottest engine
        # call and skips one machine indirection per hop.
        self._handlers = machine._handlers
        # True when ctx.touch does anything.  Hot handlers check this to
        # skip per-node touch calls (and their key-tuple allocations) in
        # tight walks when neither access tracing nor qrqw is on.
        self.tracing = self._trace_access or self._qrqw
        # Reliable-delivery replay guard: sequence numbers of protocol
        # envelopes this module already executed.  Lazily allocated --
        # the fault-free path never touches it.
        self._seen_seqs: Optional[set] = None

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

    def reset_replay_guard(self) -> None:
        """Forget all delivery history (module wipe/restart)."""
        self._seen_seqs = None

    # -- cost accounting ----------------------------------------------------

    def charge(self, w: float = 1.0) -> None:
        """Charge ``w`` units of PIM local work."""
        module = self.module
        module.work += w
        module.round_work += w

    def touch(self, obj: Hashable, count: int = 1) -> None:
        """Record an access to ``obj`` for contention tracing and, under
        the qrqw contention model, for this module's queue accounting."""
        if self._trace_access:
            self._access._current[obj] += count
        if self._qrqw:
            self.module.round_touch[obj] += count

    # -- local state ----------------------------------------------------------

    def state(self, structure: str) -> Any:
        """Fetch this module's local state for ``structure``."""
        return self.module.state[structure]

    # -- communication -------------------------------------------------------

    def reply(self, payload: Any, tag: Any = None, size: int = 1) -> None:
        """Send a return value (``size`` message units) back to the CPU side."""
        self._replies.append(Reply(payload, tag, self.mid))
        self._sent_size += size

    def forward(self, dest: int, fn: str, args: tuple = (), tag: Any = None,
                size: int = 1) -> None:
        """Offload a continuation task to module ``dest``.

        Per the paper, module-to-module offload is performed by returning a
        value to shared memory which triggers a ``TaskSend`` from the CPU
        side; the simulator accounts it as one message sent by this module
        this round and one received by ``dest`` next round.  The handler
        for ``fn`` is resolved here, at issue time, and the message goes
        straight to its function's chunk stream or its destination's
        slot (see :mod:`repro.sim.machine`).
        """
        if not 0 <= dest < self.num_modules:
            raise ValueError(f"bad module id {dest}")
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        machine = self.machine
        if fn in machine._chunk_fns:
            machine._stage_row(machine._fq, fn, dest, args, tag, size)
            self._sent_size += size
            return
        staged = machine._staged
        slot = staged.get(dest)
        if slot is None:
            staged[dest] = [size, [], [(handler, args, tag, fn)]]
        else:
            slot[0] += size
            slot[2].append((handler, args, tag, fn))
        self._sent_size += size
