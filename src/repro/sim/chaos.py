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


def deliver_envelope(ctx, seq, fn, args, inner_tag, size, corrupt=False,
                     tag=None):
    """The module side of the reliable-delivery protocol, registered
    under :data:`DELIVER_FN` when a fault plan is installed: ack the
    envelope, dedup redelivery, run the inner task."""
    if corrupt:
        # Payload failed its checksum in flight: discard without acking;
        # the sender's retry carries a fresh copy.
        ctx.charge(1)
        return
    ctx.reply(seq, tag=ACK_TAG, size=1)
    if not ctx.first_delivery(seq):
        return
    ctx._handlers[fn](ctx, *args, tag=inner_tag)


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

    A stalled module's incoming messages sit in the network: the whole
    per-destination slot is deferred to the next round (charged when it
    finally lands), modelling the UPMEM straggler-DPU effect.
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
    stalled_slots: int = 0  # per-destination slots deferred by a stall
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
    buffer, fired lifecycle transitions and fault statistics.  All
    methods are called from the engine's chaos round path only -- the
    fault-free path never touches this class.
    """

    def __init__(self, plan: FaultPlan, base_round: int) -> None:
        self.plan = plan
        self.base_round = base_round
        self.stats = ChaosStats()
        self.transmissions = 0
        # (due_round, dest, entry, size); kept in insertion order --
        # re-injection sorts by (due, insertion) implicitly via scan.
        self.delayed: List[Tuple[int, int, tuple, int]] = []
        self._fired: set = set()  # (kind, event) lifecycle transitions

    # -- pending work ----------------------------------------------------

    def has_pending(self) -> bool:
        """True when chaos holds messages the drain loop must wait for."""
        return bool(self.delayed)

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

    def filter_round(self, machine: Any, staged: Dict[int, list],
                     rnd: int) -> Dict[int, list]:
        """Apply the fault plan to one round's staged messages.

        Returns the slots to actually deliver this round.  Side effects:
        stalled slots are pushed back into ``machine._staged`` (they
        arrive in a later round), delayed envelopes move into
        :attr:`delayed`, and due delayed envelopes are re-injected.
        """
        plan = self.plan
        stats = self.stats
        out: Dict[int, list] = {}

        wiped = machine.wiped_modules

        # Re-inject delayed envelopes that come due this round.
        if self.delayed:
            still: List[Tuple[int, int, tuple, int]] = []
            for due, dest, entry, size in self.delayed:
                if due > rnd:
                    still.append((due, dest, entry, size))
                    continue
                if plan.is_dead(dest, rnd) or dest in wiped:
                    stats.dead_drops += 1
                    continue
                if plan.is_stalled(dest, rnd):
                    # Arrived at a straggler: hold one more round.
                    still.append((rnd + 1, dest, entry, size))
                    continue
                slot = out.get(dest)
                if slot is None:
                    out[dest] = [size, [entry], []]
                else:
                    slot[0] += size
                    slot[1].append(entry)
            self.delayed = still

        for mid, slot in sorted(staged.items()):
            if plan.is_stalled(mid, rnd):
                stats.stalled_slots += 1
                self._defer(machine, mid, slot)
                continue
            if plan.is_dead(mid, rnd) or mid in wiped:
                self._deliver_to_dead(mid, slot, stats,
                                      wiped=mid in wiped)
                continue
            units = slot[0]
            cpu_q: List[tuple] = []
            for entry in slot[1]:
                if entry[3] != DELIVER_FN:
                    cpu_q.append(entry)
                    continue
                units -= self._fault_entry(entry, mid, rnd, cpu_q)
            dst = out.get(mid)
            if dst is None:
                if cpu_q or slot[2]:
                    out[mid] = [units, cpu_q, slot[2]]
            else:
                dst[0] += units
                dst[1] = cpu_q + dst[1]  # delayed arrivals go after fresh
                dst[2].extend(slot[2])
                # Reorder: keep CPU-before-forward delivery order but put
                # this round's fresh sends ahead of re-injected stragglers.
                out[mid] = [dst[0], dst[1], dst[2]]
        return out

    def _fault_entry(self, entry: tuple, mid: int, rnd: int,
                     cpu_q: List[tuple]) -> int:
        """Apply a message fault to one protocol envelope.

        Appends the (possibly duplicated/corrupted) entry to ``cpu_q``
        and returns how many message units to *subtract* from the slot
        (positive for drop/delay, negative for dup).
        """
        plan = self.plan
        stats = self.stats
        size = entry[1][4]
        t = self.transmissions
        self.transmissions += 1
        stats.transmissions += 1
        action = plan.message_action(t)
        if action == "drop":
            stats.drops += 1
            return size
        if action == "delay":
            stats.delays += 1
            self.delayed.append((rnd + plan.delay_for(t), mid, entry, size))
            return size
        if action == "dup":
            stats.dups += 1
            cpu_q.append(entry)
            cpu_q.append(entry)
            return -size
        if action == "corrupt":
            stats.corrupts += 1
            handler, args, tag, fn = entry
            cpu_q.append((handler, args + (True,), tag, fn))
            return 0
        cpu_q.append(entry)
        return 0

    def _defer(self, machine: Any, mid: int, slot: list) -> None:
        """Push a stalled destination's whole slot to the next round."""
        staged = machine._staged
        nxt = staged.get(mid)
        if nxt is None:
            staged[mid] = slot
        else:
            nxt[0] += slot[0]
            nxt[1].extend(slot[1])
            nxt[2].extend(slot[2])

    def _deliver_to_dead(self, mid: int, slot: list, stats: ChaosStats,
                         wiped: bool = False) -> None:
        """Messages arriving at a crashed (or wiped) module: envelopes
        are lost, anything else is a hard fault."""
        why = ("lost its DRAM and awaits failover" if wiped
               else "crashed (fail-stop)")
        for q in (slot[1], slot[2]):
            for entry in q:
                if entry[3] == DELIVER_FN:
                    stats.dead_drops += 1
                else:
                    raise ModuleCrashed(
                        f"module {mid} {why} with task "
                        f"{entry[3]!r} in flight to it; unprotected "
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
