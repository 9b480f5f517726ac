"""Seeded, deterministic fault injection for the PIM machine.

Real PIM deployments are not the perfect machine of the model: UPMEM
measurements put stragglers and lossy host<->DPU transfer among the
first-order systems concerns (Gomez-Luna et al., arXiv:2105.03814), and
analytical models such as Bitlet (arXiv:2107.10308) parameterize exactly
these non-idealities.  This module supplies the *failure model*: a
:class:`FaultPlan` the round engine consults to

- **drop**, **duplicate**, **delay** (reorder across rounds) or
  **corrupt** individual CPU->module messages, and
- **crash** (fail-stop), **crash-and-wipe**, **stall** (straggler
  rounds) or **restart** whole PIM modules;

all derived from a single fault seed with counter-based hashing, so a
rerun of the same (workload seed, fault seed) pair replays the *exact*
same fault sequence -- the property the differential chaos harness
(:mod:`repro.verify.chaos`) builds its bit-identical-rerun check on.

Fault scope
-----------

Message-level faults apply only to CPU->module messages travelling under
the reliable-delivery protocol (:mod:`repro.ops.pipeline` wraps every
batch-op message in a sequence-numbered envelope; the engine recognizes
envelopes by the :data:`DELIVER_FN` function id).  Module->CPU replies
and module->module forwards model on-chip/DMA paths and stay reliable --
that asymmetry is what makes the ack/retry protocol end-to-end sound:
an unacknowledged envelope is *known* lost, and an acknowledged one is
*known* executed exactly once (replay guards dedup redelivery).

Module-level faults apply to everything: a message of any kind arriving
at a crashed module is lost if it is a protocol envelope (the sender's
ack timeout will notice) and raises
:class:`~repro.sim.errors.ModuleCrashed` otherwise (no retry path
exists, so it is a hard fault the recovery layer must handle).

Rounds are counted relative to the install point
(:meth:`repro.sim.machine.PIMMachine.install_fault_plan`), so "crash at
round 12" means 12 rounds into the chaos window regardless of how much
fault-free history the machine already has.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.errors import ModuleCrashed
from repro.sim.fastpath import ROWS, BatchRound, _Chunk

__all__ = [
    "ACK_TAG",
    "DELIVER_FN",
    "ChaosStats",
    "CrashEvent",
    "FaultPlan",
    "FaultSpec",
    "MACHINE_SCHEDULES",
    "StallEvent",
    "build_schedule",
    "deliver_envelope",
]

#: Function id of the reliable-delivery envelope handler.  Defined here
#: (not in :mod:`repro.ops.pipeline`) so the engine-side chaos filter and
#: the CPU-side protocol agree on the wire format without a layering
#: cycle.  Envelope args are ``(seq, inner_fn, inner_args, inner_tag,
#: size)``; the chaos filter may append a truthy 6th element to mark the
#: payload corrupted in flight.
DELIVER_FN = "__reliable_deliver__"


class _AckTag:
    """Identity tag of protocol acknowledgements (never user-visible)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<ack>"


ACK_TAG = _AckTag()


def deliver_envelope(bct: BatchRound, chunks: List[_Chunk]) -> None:
    """The module side of the reliable-delivery protocol, the body
    registered under :data:`DELIVER_FN` when a fault plan is installed:
    per envelope, ack it and dedup redelivery; then each inner
    function's surviving rows, in arrival order, run through its body
    as one chunk."""
    modules = bct.machine.modules
    inner: Dict[str, list] = {}
    for mid, (seq, fn, args, inner_tag, _size, *corrupt), _tag, _s in \
            bct.rows(chunks):
        if corrupt:
            # Payload failed its checksum in flight: discard without
            # acking; the sender's retry carries a fresh copy.
            bct.work[mid] += 1
            continue
        bct.reply(mid, seq, ACK_TAG)
        if modules[mid].first_delivery(seq):
            inner.setdefault(fn, []).append((mid, args, inner_tag, 1))
    bodies = bct.machine._handlers
    for fn, rows in inner.items():
        ch = _Chunk(fn, ROWS)
        ch.rows = rows
        bodies[fn](bct, [ch])


def _mix(*vals: int) -> int:
    """A splitmix64-style integer hash over a tuple of ints.

    Python's ``hash`` is salted for strings and ``random`` would couple
    fault draws to call order; a counter-keyed pure mix gives the
    stateless, platform-stable draws the bit-identical-rerun contract
    needs.
    """
    h = 0x9E3779B97F4A7C15
    for v in vals:
        h = (h ^ (v & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9 % (1 << 64)
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB % (1 << 64)
        h ^= h >> 31
    return h


def _unit(*vals: int) -> float:
    """A deterministic draw in ``[0, 1)`` keyed on ``vals``."""
    return _mix(*vals) / float(1 << 64)


@dataclass(frozen=True)
class CrashEvent:
    """Fail-stop crash of module ``mid`` at chaos round ``at_round``.

    While crashed the module executes nothing; protocol envelopes
    addressed to it are lost (the sender retries), anything else raises
    :class:`~repro.sim.errors.ModuleCrashed`.  ``restart_round`` (None =
    never) brings the module back; with ``wipe=True`` the crash also
    clears the module's local state and replay guards -- the DRAM-loss
    flavor that requires checkpoint/restore (:mod:`repro.recovery`),
    whereas the default fail-stop keeps local DRAM contents intact
    across the outage.
    """

    mid: int
    at_round: int
    restart_round: Optional[int] = None
    wipe: bool = False

    def __post_init__(self) -> None:
        if self.restart_round is not None and self.restart_round <= self.at_round:
            raise ValueError("restart_round must be after at_round")


@dataclass(frozen=True)
class StallEvent:
    """Module ``mid`` is a straggler for rounds ``[at_round, at_round + rounds)``.

    A stalled module's incoming messages sit in the network: every row
    bound for it is held to the next round (charged when it finally
    lands), modelling the UPMEM straggler-DPU effect.
    """

    mid: int
    at_round: int
    rounds: int

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("stall must last >= 1 round")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault mix: message-fault rates plus module events.

    Message rates are per-transmission probabilities (a retransmission
    draws afresh, so a dropped envelope is not doomed forever); they
    must sum to at most 1.  ``delay_rounds`` bounds how many rounds a
    delayed message is held (the actual hold is drawn in ``[1,
    delay_rounds]``).
    """

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    delay_rounds: int = 3
    crashes: Tuple[CrashEvent, ...] = ()
    stalls: Tuple[StallEvent, ...] = ()

    def __post_init__(self) -> None:
        total = self.drop + self.dup + self.delay + self.corrupt
        if not 0.0 <= total <= 1.0:
            raise ValueError("message-fault rates must sum to [0, 1]")
        if self.delay_rounds < 1:
            raise ValueError("delay_rounds must be >= 1")


@dataclass
class ChaosStats:
    """What the chaos layer actually did (all counters cumulative)."""

    transmissions: int = 0  # protocol envelopes seen by the filter
    drops: int = 0
    dups: int = 0
    delays: int = 0
    corrupts: int = 0
    dead_drops: int = 0     # envelopes lost to a crashed destination
    stalled_slots: int = 0  # destinations' rounds held by a stall
    idle_rounds: int = 0    # empty rounds charged (delays, stalls, backoff)
    retransmissions: int = 0  # re-sends issued by the delivery protocol
    crashes: int = 0
    restarts: int = 0
    wipes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    The plan is *pure*: every decision is a hash of ``(seed, counter)``
    or ``(seed, event index)``, never of wall time or call order, so two
    runs that transmit the same message sequence experience the same
    faults.  Install on a machine with
    :meth:`repro.sim.machine.PIMMachine.install_fault_plan`.
    """

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        # Per-module lifecycle windows, precomputed for O(1) queries.
        self._crashes_by_mid: Dict[int, List[CrashEvent]] = {}
        for ev in spec.crashes:
            self._crashes_by_mid.setdefault(ev.mid, []).append(ev)
        self._stalls_by_mid: Dict[int, List[StallEvent]] = {}
        for ev in spec.stalls:
            self._stalls_by_mid.setdefault(ev.mid, []).append(ev)

    # -- message faults --------------------------------------------------

    def message_action(self, transmission: int) -> str:
        """The fate of the ``transmission``-th protocol envelope seen.

        One of ``deliver | drop | dup | delay | corrupt``.  Keyed on a
        transmission counter (not the sequence number) so retries of the
        same envelope draw independently.
        """
        spec = self.spec
        u = _unit(self.seed, 0x5EED, transmission)
        if u < spec.drop:
            return "drop"
        u -= spec.drop
        if u < spec.dup:
            return "dup"
        u -= spec.dup
        if u < spec.delay:
            return "delay"
        u -= spec.delay
        if u < spec.corrupt:
            return "corrupt"
        return "deliver"

    def delay_for(self, transmission: int) -> int:
        """How many rounds the ``transmission``-th envelope is held."""
        return 1 + _mix(self.seed, 0xDE1A, transmission) % self.spec.delay_rounds

    # -- module lifecycle ------------------------------------------------

    def is_dead(self, mid: int, rnd: int) -> bool:
        for ev in self._crashes_by_mid.get(mid, ()):
            if ev.at_round <= rnd and (ev.restart_round is None
                                       or rnd < ev.restart_round):
                return True
        return False

    def is_stalled(self, mid: int, rnd: int) -> bool:
        for ev in self._stalls_by_mid.get(mid, ()):
            if ev.at_round <= rnd < ev.at_round + ev.rounds:
                return True
        return False


class ChaosState:
    """Runtime state of an installed :class:`FaultPlan`.

    Owned by the machine (one per install); holds the delayed-message
    buffer, the rows stalls hold back, fired lifecycle transitions and
    fault statistics.  All
    methods are called from the engine's chaos round path only -- the
    fault-free path never touches this class.
    """

    def __init__(self, plan: FaultPlan, base_round: int) -> None:
        self.plan = plan
        self.base_round = base_round
        self.stats = ChaosStats()
        # (due_round, dest, row), rows ``(fn, args, tag, size)``; kept in
        # insertion order -- re-injection scans it in that order.
        self.delayed: List[Tuple[int, int, tuple]] = []
        # mid -> the (CPU rows, forwarded rows) a stall holds back; they
        # land ahead of that module's next traffic.
        self.held: Dict[int, tuple] = {}
        self._fired: set = set()  # (kind, event) lifecycle transitions

    # -- pending work ----------------------------------------------------

    def has_pending(self) -> bool:
        """True when chaos holds messages the drain loop must wait for
        (delayed envelopes or held rows)."""
        return bool(self.delayed or self.held)

    def describe(self, rnd: int) -> str:
        """Chaos-side context for drain/livelock diagnostics."""
        plan = self.plan
        mids = set(plan._crashes_by_mid) | set(plan._stalls_by_mid)
        dead = sorted(m for m in mids if plan.is_dead(m, rnd))
        stalled = sorted(m for m in mids if plan.is_stalled(m, rnd))
        parts = [f"chaos round {rnd}"]
        if self.delayed:
            parts.append(f"{len(self.delayed)} delayed message(s) in flight")
        if dead:
            parts.append(f"crashed modules: {dead}")
        if stalled:
            parts.append(f"stalled modules: {stalled}")
        return "; ".join(parts)

    # -- lifecycle -------------------------------------------------------

    def begin_round(self, machine: Any, rnd: int) -> None:
        """Fire module lifecycle transitions scheduled at round ``rnd``.

        Transitions are edge-triggered and idempotent (a round index may
        be observed more than once when no round is ultimately charged).
        """
        for ev in self.plan.spec.crashes:
            if ev.at_round <= rnd and ("crash", ev) not in self._fired:
                self._fired.add(("crash", ev))
                self.stats.crashes += 1
                if ev.wipe:
                    self.stats.wipes += 1
                    machine.wipe_module(ev.mid)
            if (ev.restart_round is not None and rnd >= ev.restart_round
                    and ("restart", ev) not in self._fired):
                self._fired.add(("restart", ev))
                self.stats.restarts += 1

    # -- the per-round message filter ------------------------------------

    def filter_round(self, machine: Any, rnd: int) -> None:
        """Apply the fault plan to the round staged on ``machine``.

        The staged rows are taken per destination -- held rows first,
        then the CPU stream and the forwards, each in issue order -- and
        what this round delivers is staged again as chunks, destination
        by destination (its CPU rows, its due delayed envelopes, its
        forwards), receive books included.  A stalled destination's rows
        move into :attr:`held`, a crashed one's envelopes are lost, and
        each envelope bound for a live module draws its fate in that
        order: delivered, dropped, duplicated (staged twice), delayed
        (into :attr:`delayed`) or corrupted (staged with a truthy 6th
        argument).  A hard fault leaves nothing of the round staged.
        """
        plan = self.plan
        stats = self.stats
        wiped = machine.wiped_modules
        by_dest, self.held = self.held, {}
        for q, chunks in ((0, machine._cq), (1, machine._fq)):
            for ch in chunks:
                fn = ch.fn
                for dest, args, tag, size in machine._iter_chunk(ch):
                    queues = by_dest.get(dest)
                    if queues is None:
                        queues = by_dest[dest] = ([], [])
                    queues[q].append((fn, args, tag, size))
        machine._discard_staged()

        # Delayed envelopes that come due this round draw nothing.
        due: Dict[int, list] = {}
        still: List[Tuple[int, int, tuple]] = []
        for item in self.delayed:
            when, dest, row = item
            if when > rnd:
                still.append(item)
            elif plan.is_dead(dest, rnd) or dest in wiped:
                stats.dead_drops += 1
            elif plan.is_stalled(dest, rnd):
                # Arrived at a straggler: hold one more round.
                still.append((rnd + 1, dest, row))
            else:
                due.setdefault(dest, []).append(row)
        self.delayed = still

        cpu: List[tuple] = []
        fwd: List[tuple] = []
        for mid in sorted(by_dest.keys() | due.keys()):
            queues = by_dest.get(mid, ((), ()))
            if mid in by_dest:
                if plan.is_stalled(mid, rnd):
                    stats.stalled_slots += 1
                    self.held[mid] = queues
                    continue
                if plan.is_dead(mid, rnd) or mid in wiped:
                    self._deliver_to_dead(mid, queues, wiped=mid in wiped)
                    continue
            for fn, args, tag, size in queues[0]:
                if fn == DELIVER_FN:
                    t = stats.transmissions
                    stats.transmissions += 1
                    action = plan.message_action(t)
                    if action == "drop":
                        stats.drops += 1
                        continue
                    if action == "delay":
                        stats.delays += 1
                        self.delayed.append((rnd + plan.delay_for(t), mid,
                                             (fn, args, tag, size)))
                        continue
                    if action == "dup":
                        stats.dups += 1
                        cpu.append((fn, mid, args, tag, size))
                    elif action == "corrupt":
                        stats.corrupts += 1
                        args = args + (True,)
                cpu.append((fn, mid, args, tag, size))
            for fn, args, tag, size in due.get(mid, ()):
                cpu.append((fn, mid, args, tag, size))
            for fn, args, tag, size in queues[1]:
                fwd.append((fn, mid, args, tag, size))
        for queue, rows in ((machine._cq, cpu), (machine._fq, fwd)):
            for row in rows:
                machine._stage_row(queue, *row)

    def _deliver_to_dead(self, mid: int, queues: tuple,
                         wiped: bool = False) -> None:
        """Rows arriving at a crashed (or wiped) module: envelopes are
        lost, anything else is a hard fault."""
        why = ("lost its DRAM and awaits failover" if wiped
               else "crashed (fail-stop)")
        for queue in queues:
            for row in queue:
                if row[0] == DELIVER_FN:
                    self.stats.dead_drops += 1
                else:
                    raise ModuleCrashed(
                        f"module {mid} {why} with task "
                        f"{row[0]!r} in flight to it; unprotected "
                        f"messages have no retry path", mid=mid)


# -- named fault schedules ------------------------------------------------
#
# Each builder maps (fault seed, num_modules) to a FaultPlan; module ids
# and event rounds are drawn deterministically from the seed.  These are
# the machine-level entries of the unified fault registry
# (repro.verify.faults) and the schedules the chaos harness sweeps.

def _pick_mid(seed: int, salt: int, num_modules: int) -> int:
    return _mix(seed, salt) % num_modules


def _sched_drop(seed: int, num_modules: int) -> FaultPlan:
    return FaultPlan(FaultSpec(drop=0.15), seed)


def _sched_dup_delay(seed: int, num_modules: int) -> FaultPlan:
    return FaultPlan(FaultSpec(dup=0.10, delay=0.15, delay_rounds=3), seed)


def _sched_corrupt(seed: int, num_modules: int) -> FaultPlan:
    return FaultPlan(FaultSpec(corrupt=0.12), seed)


def _sched_stall(seed: int, num_modules: int) -> FaultPlan:
    stalls = []
    for i in range(2):
        mid = _pick_mid(seed, 0x57A11 + i, num_modules)
        at = 3 + _mix(seed, 0xA7 + i) % 12
        stalls.append(StallEvent(mid=mid, at_round=at,
                                 rounds=2 + _mix(seed, 0xB0 + i) % 4))
    return FaultPlan(FaultSpec(stalls=tuple(stalls)), seed)


def _sched_crash_restart(seed: int, num_modules: int) -> FaultPlan:
    mid = _pick_mid(seed, 0xC0A5, num_modules)
    at = 4 + _mix(seed, 0xC1) % 10
    return FaultPlan(FaultSpec(crashes=(
        CrashEvent(mid=mid, at_round=at,
                   restart_round=at + 3 + _mix(seed, 0xC2) % 5),)), seed)


def _sched_crash_wipe(seed: int, num_modules: int) -> FaultPlan:
    mid = _pick_mid(seed, 0xDEAD, num_modules)
    at = 4 + _mix(seed, 0xD1) % 10
    return FaultPlan(FaultSpec(crashes=(
        CrashEvent(mid=mid, at_round=at, restart_round=at + 4,
                   wipe=True),)), seed)


def _sched_intermittent(seed: int, num_modules: int) -> FaultPlan:
    """One module flaps -- repeated short crash/restart cycles with
    state intact -- under light message loss.  The serving layer's
    circuit-breaker/failover path is aimed at exactly this shape: the
    module is *usually* back before the retry budget runs out, but not
    always."""
    mid = _pick_mid(seed, 0x17E2, num_modules)
    crashes = []
    at = 3 + _mix(seed, 0xE1) % 6
    for i in range(3):
        restart = at + 2 + _mix(seed, 0xE2 + i) % 3
        crashes.append(CrashEvent(mid=mid, at_round=at,
                                  restart_round=restart))
        at = restart + 3 + _mix(seed, 0xE5 + i) % 6
    return FaultPlan(FaultSpec(drop=0.04, crashes=tuple(crashes)), seed)


def _sched_mixed(seed: int, num_modules: int) -> FaultPlan:
    mid = _pick_mid(seed, 0x111, num_modules)
    at = 5 + _mix(seed, 0x112) % 10
    return FaultPlan(FaultSpec(
        drop=0.05, dup=0.04, delay=0.06, corrupt=0.03, delay_rounds=2,
        stalls=(StallEvent(mid=mid, at_round=at, rounds=3),)), seed)


#: Machine-level fault schedules: name -> builder(seed, num_modules).
#: Registered (collision-checked, alongside the adapter-level mutation
#: faults) in :mod:`repro.verify.faults`.
MACHINE_SCHEDULES: Dict[str, Callable[[int, int], FaultPlan]] = {
    "drop": _sched_drop,
    "dup_delay": _sched_dup_delay,
    "corrupt": _sched_corrupt,
    "stall": _sched_stall,
    "crash_restart": _sched_crash_restart,
    "crash_wipe": _sched_crash_wipe,
    "mixed": _sched_mixed,
    "intermittent": _sched_intermittent,
}


def build_schedule(name: str, seed: int, num_modules: int) -> FaultPlan:
    """Instantiate the named machine-level fault schedule."""
    builder = MACHINE_SCHEDULES.get(name)
    if builder is None:
        raise ValueError(f"unknown fault schedule {name!r}; known: "
                         f"{', '.join(sorted(MACHINE_SCHEDULES))}")
    return builder(seed, num_modules)
