"""The batched-operation pipeline: an op is a name and a route.

Every bound in the paper (Theorems 4.1-4.5, 5.1-5.2) has the same shape:
CPU-side code issues a bulk-synchronous round against the PIM modules,
reads the replies, and issues the next one (PAPER.md §2).  In this
repository that code is one generator per op, its **route**, and this
module is the one driver every route runs through -- the skip-list ops,
the baselines, the collectives and the container structures share one
dispatch/transfer substrate instead of hand-rolled staging loops.

A route yields message **stages**.  A stage is an iterable of three
kinds of element, in issue order: ``send_all`` format tuples (``(dest,
fn, args, tag)`` or ``(dest, fn, args, tag, size)``), :class:`Broadcast`
markers, and :class:`Columns` -- one function's messages as parallel
lists.  What each becomes on the machine is the driver's decision alone
(see :func:`_issue`); a route never asks which engine it runs on.  After
each stage the driver issues the messages, drains the network to
quiescence, and sends the collected replies back into the generator
(``replies = yield stage``); the generator's return value is the op's
result.  CPU-side work (dedup, sort, grouping, the final reduction) is
plain code in the route, charged via ``machine.cpu``.  Between stages the
machine is quiescent, so a route may run *other* ops (nested
``run_batch``) as plain calls -- that is how composite ops (upsert's
embedded search, the LSM's delta probes) are built.

The PIM side -- the handlers the round engine runs on the modules -- is
the structure's: each structure registers its handlers once, when it is
built, and a route only names their function ids.  The driver registers
nothing.

The driver (:func:`run_batch`) owns staged-queue issue and round
draining (labelled with the op name, so a livelock report names its
originating op) and leaves all metric charging to the route and the
round engine.  A stage the machine rejects at issue time (a malformed
message, an unknown function, a bad module id) leaves nothing staged
behind.  The outermost ``run_batch`` on a machine is also one
host-memory *reclamation epoch* (:func:`batch_epoch`): the interpreter's
cyclic collector is paused for its length, so routes must not build
reference cycles among their temporaries (see the notes below).

Backends and observability hook in here: a different driver (e.g. one
that ships stages to multiprocess shards, or charges an alternative cost
model) can run any existing route unmodified, because routes never touch
the machine's message API directly.  A machine may carry a
``batch_observer`` callable (see :attr:`PIMMachine.batch_observer`);
when set, the driver snapshots the machine around every op and reports
``(name, MetricsDelta)`` after a successful run -- the per-batch metric
feed the differential-verification subsystem (:mod:`repro.verify`)
checks its cost invariants against.  Nested ops report too (inner ops
first, since they complete first); observers must not issue messages or
charge costs.

Design notes for route authors
------------------------------

- A route is a generator function taking what the op needs (the
  structure, the batch).  Calling it runs nothing: the body starts when
  the driver sends the first ``None``, inside the batch epoch.  A
  stage-free route can ``return value`` before any ``yield`` (use the
  ``if False: yield`` idiom to force generator-ness if there is no other
  yield).
- An *empty* stage is legal and free: draining a quiescent machine is a
  no-op, so conditional stages may simply yield nothing.
- Hold shared-memory allocations across stages with ``try/finally`` (or
  ``with cpu.region(...)``) inside the generator; on an exception the
  driver closes the generator, which runs the ``finally`` blocks.  Never
  yield from inside a ``finally`` -- cleanup *messages* must be a normal
  success-path stage.
- Keep a batch's temporaries acyclic.  The cyclic collector is paused
  while a batch runs, so a scratch record that points back at its
  owner, or a freed structure node that keeps its neighbour pointers, is
  a leak until some later full collection.  Index into flat lists
  instead of linking scratch objects both ways, and clear the pointer
  slots of whatever the op removes from the structure.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Dict, Generator, Iterable, Iterator, List, Optional, \
    Sequence

from repro.sim.chaos import ACK_TAG, DELIVER_FN
from repro.sim.errors import (DeliveryTimeout, MalformedMessageError,
                              UnknownHandlerError)
from repro.sim.machine import PIMMachine, check_columns

__all__ = ["Broadcast", "Columns", "backoff_rounds", "batch_epoch",
           "collector_paused", "run_batch"]

#: What :func:`run_batch` drives: a generator that yields stages, is sent
#: each stage's replies, and returns the op's result.
Route = Generator[Any, Any, Any]


class Broadcast:
    """A stage element that goes to *every* module (one copy each).

    Equivalent to :meth:`PIMMachine.broadcast`; the ``size`` is the
    accounted per-copy message size in constant-size units.
    """

    __slots__ = ("fn", "args", "tag", "size")

    def __init__(self, fn: str, args: tuple = (), tag: Any = None,
                 size: int = 1) -> None:
        self.fn = fn
        self.args = args
        self.tag = tag
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Broadcast(fn={self.fn!r}, args={self.args!r}, "
                f"tag={self.tag!r}, size={self.size!r})")


class Columns:
    """A stage element holding one function's messages as parallel
    columns: message ``i`` goes to module ``dests[i]`` with arguments
    ``(cols[0][i], cols[1][i], ...)``, no tag, size 1.

    It stands for exactly the rows :meth:`rows` spells out, in that
    order.  The columns are plain lists (they may hold any object); a
    wide homogeneous stage -- an Upsert batch's RemoteWrites -- is then
    built with a few ``append`` calls per message and issued without an
    interpreted step per message.

    Any function may be sent this way: a column receiver is accounted
    exactly like a row receiver.  A column of another length than
    ``dests`` raises :class:`~repro.sim.errors.MalformedMessageError`
    here, at construction, whichever form the driver would issue.
    """

    __slots__ = ("fn", "dests", "cols")

    def __init__(self, fn: str, dests: Sequence[int],
                 cols: Sequence[Sequence[Any]]) -> None:
        self.fn = fn
        self.dests = dests
        self.cols = tuple(cols)
        check_columns(f"Columns({fn!r})", dests, self.cols)

    def rows(self) -> Iterator[tuple]:
        """The element's messages as ``send_all`` tuples, in order."""
        return zip(self.dests, repeat(self.fn), zip(*self.cols),
                   repeat(None))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Columns(fn={self.fn!r}, {len(self.dests)} messages, "
                f"{len(self.cols)} columns)")


def backoff_rounds(attempt: int) -> int:
    """The one retry backoff curve: idle rounds waited after failed
    attempt ``attempt`` (1-based), ``min(2^(attempt - 1), 8)``.  The
    reliable-delivery protocol below waits it between delivery attempts,
    the recovery manager between in-place read retries, and the serving
    layer adds its jitter to it."""
    return min(1 << (attempt - 1), 8)


# -- reliable delivery ----------------------------------------------------
#
# With a fault plan installed (machine.install_fault_plan) the driver
# wraps every CPU->module message of every stage in a sequence-numbered
# envelope (function id repro.sim.chaos.DELIVER_FN).  The module-side
# wrapper (repro.sim.chaos.deliver_envelope, registered with the plan)
# acknowledges each arrival with a one-unit reply and executes the inner
# body exactly once (PIMModule.first_delivery dedups
# redelivery); the CPU side retries unacknowledged envelopes after each
# drain with capped exponential backoff (backoff_rounds) charged as idle
# rounds, and escalates to DeliveryTimeout when
# config.max_delivery_attempts is exhausted.  Every protocol byte is
# charged to the ordinary metrics: envelopes and retransmissions enter
# the h-relation like any message, acks are one-unit replies, and
# backoff burns rounds + sync cost.  Replies and forwards stay outside
# the protocol -- the chaos layer never faults them (see repro.sim.chaos
# for why that makes the protocol end-to-end exactly-once).


class _ReliableChannel:
    """Per-machine protocol state: sequence counter + in-flight table."""

    def __init__(self) -> None:
        self.next_seq = 0
        # seq -> [dest, fn, attempt]; populated while a stage is being
        # delivered, so drain diagnostics can tell an in-flight retry
        # from a genuinely stuck op.
        self.inflight: Dict[int, list] = {}

    def describe(self) -> str:
        parts = [f"{fn}->module {dest} (seq {seq}, retry attempt {att})"
                 for seq, (dest, fn, att) in
                 sorted(self.inflight.items())[:6]]
        more = "" if len(self.inflight) <= 6 else \
            f" (+{len(self.inflight) - 6} more)"
        return ("in-flight protocol retries, not stuck ops: "
                + ", ".join(parts) + more)


def _channel(machine: PIMMachine) -> _ReliableChannel:
    chan = getattr(machine, "_rdp", None)
    if chan is None:
        chan = machine._rdp = _ReliableChannel()
    return chan


def _reliable_issue(machine: PIMMachine,
                    stage: Optional[Iterable]) -> Dict[int, tuple]:
    """Issue one stage under the reliable-delivery protocol; returns its
    envelopes, ``seq -> send tuple``."""
    chan = _channel(machine)
    pending: Dict[int, tuple] = {}
    if stage is None:
        return pending
    handlers = machine._handlers

    def wrap(dest: int, fn: str, args: tuple, tag: Any, size: int) -> None:
        if fn not in handlers:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        seq = chan.next_seq
        chan.next_seq += 1
        pending[seq] = (dest, DELIVER_FN, (seq, fn, args, tag, size),
                        None, size)
        chan.inflight[seq] = [dest, fn, 1]

    for item in stage:
        cls = item.__class__
        if cls is Broadcast:
            for mid in range(machine.num_modules):
                wrap(mid, item.fn, item.args, item.tag, item.size)
        elif cls is Columns:
            for dest, fn, args, tag in item.rows():
                wrap(dest, fn, args, tag, 1)
        elif len(item) == 4:
            dest, fn, args, tag = item
            wrap(dest, fn, args, tag, 1)
        elif len(item) == 5:
            wrap(*item)
        else:
            raise MalformedMessageError(
                f"send_all message has {len(item)} elements; expected "
                f"(dest, fn, args, tag) or (dest, fn, args, tag, size): "
                f"{item!r}")
    if pending:
        machine.send_all(pending.values())
    return pending


def _reliable_drain(machine: PIMMachine, name: str,
                    pending: Dict[int, tuple]) -> list:
    """Drain an issued stage's envelopes to quiescence, retrying lost
    ones; returns the inner replies."""
    chan = _channel(machine)
    inner: List[Any] = []
    attempt = 1
    cfg = machine.config
    while True:
        for r in machine.drain(label=name):
            if r.tag is ACK_TAG:
                if pending.pop(r.payload, None) is not None:
                    chan.inflight.pop(r.payload, None)
            else:
                inner.append(r)
        if not pending:
            return inner
        if attempt >= cfg.max_delivery_attempts:
            # Partition the undelivered envelopes by destination
            # liveness: a message to a currently-dead module is *stuck*
            # (no retry budget would ever land it), while one to a live
            # module is an in-flight retry that merely ran out of
            # attempts under transient faults (drops, corruption).  The
            # two populations call for different operator responses
            # (failover vs a larger max_delivery_attempts), so the
            # diagnostics list them separately.
            chaos = machine._chaos
            rnd = (machine.metrics.rounds - chaos.base_round
                   if chaos is not None else 0)
            stuck: List[str] = []
            retrying: List[str] = []
            for seq, (dest, fn, _a) in sorted(chan.inflight.items()):
                if seq not in pending:
                    continue
                label = f"{fn}->module {dest} (seq {seq})"
                if dest in machine.wiped_modules or (
                        chaos is not None
                        and chaos.plan.is_dead(dest, rnd)):
                    stuck.append(label)
                else:
                    retrying.append(label)
            sections = []
            for kind, group in (("stuck on dead module(s)", stuck),
                                ("still retrying (transient faults)",
                                 retrying)):
                if not group:
                    continue
                more = ("" if len(group) <= 6
                        else f" (+{len(group) - 6} more)")
                sections.append(f"{len(group)} {kind}: "
                                f"{', '.join(group[:6])}{more}")
            for seq in pending:
                chan.inflight.pop(seq, None)
            raise DeliveryTimeout(
                f"op {name!r}: {len(pending)} message(s) undelivered "
                f"after {attempt} attempts (max_delivery_attempts="
                f"{cfg.max_delivery_attempts}): {'; '.join(sections)}",
                op=name, attempts=attempt, undelivered=len(pending),
                stuck=len(stuck), retrying=len(retrying))
        machine.idle_rounds(backoff_rounds(attempt))
        attempt += 1
        for seq in pending:
            chan.inflight[seq][2] = attempt
        chaos = machine._chaos
        if chaos is not None:
            chaos.stats.retransmissions += len(pending)
        machine.send_all(list(pending.values()))


# A column chunk costs one count of its destinations when it is staged
# and one pass over that count in the handler: ~1.7 us more than a row
# at one message (4.7 against 3.0 us, issue + drain), then ~0.22 us a
# message against the ~0.45 us that ``send_all`` and the row loop cost.
# Measured in one process on a ``write_ptr`` stage at P = 32 and P = 64
# (rows wall / columns wall, issue + drain): 0.65 at 1 message, 0.74 at
# 4, 0.82-0.84 at 8, 0.90-0.91 at 16, 0.97-0.98 at 24, 0.99-1.04 at 32,
# 1.16-1.22 at 64, 1.5-1.6 at 256, 2.15 at 6 000.  Shorter elements are
# issued as rows.
COLUMNS_CROSSOVER = 32


def _issue(machine: PIMMachine, stage: Optional[Iterable]) -> None:
    """Issue one stage: runs of send tuples via ``send_all``, broadcasts
    in place, preserving the stage's element order exactly.  A
    :class:`Columns` element of :data:`COLUMNS_CROSSOVER` messages or
    more goes through ``machine.send_cols`` -- one column chunk on
    every machine; a shorter one becomes the rows it stands for, joined
    to the surrounding run -- exactly what ``send_all`` would have been
    handed."""
    if stage is None:
        return
    run: list = []
    for item in stage:
        cls = item.__class__
        if cls is Broadcast:
            if run:
                machine.send_all(run)
                run = []
            machine.broadcast(item.fn, item.args, item.tag, item.size)
        elif cls is Columns:
            if len(item.dests) >= COLUMNS_CROSSOVER:
                if run:
                    machine.send_all(run)
                    run = []
                machine.send_cols(item.fn, item.dests, item.cols)
            else:
                run.extend(item.rows())
        else:
            run.append(item)
    if run:
        machine.send_all(run)


def _discard_stage(machine: PIMMachine) -> None:
    """Undo a stage the machine rejected part-way through its issue.

    A stage boundary is quiescent, so whatever is pending now -- staged
    messages, and under a fault plan envelopes in the protocol's
    in-flight table -- was staged by the rejected stage: drop it, unrun
    and uncharged, so the next op drains only its own messages."""
    machine._discard_staged()
    chan = getattr(machine, "_rdp", None)
    if chan is not None:
        chan.inflight.clear()


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the interpreter's cyclic collector for one reclamation epoch.

    Only an enabled collector is paused, and it is restored on every
    exit path, so a caller who had it off keeps it off and a scope
    nested inside another epoch does nothing.  Whatever the epoch
    allocated must die by reference count when it ends, which holds only
    while its code creates no reference cycles (DESIGN.md, "Host memory:
    batch epochs").  This is the one place that touches the collector:
    the batch scope below and :class:`repro.serve.Server`'s tick share
    it, and thresholds are never changed.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


@contextmanager
def batch_epoch(machine: PIMMachine) -> Iterator[None]:
    """One reclamation epoch: the outermost batch scope on ``machine``.

    The model's CPU side is batch-scoped -- shared memory is claimed and
    released per batch and only the structure outlives one -- so the
    tens of thousands of rows, replies and path records a batch keeps
    alive are all dead when it ends.  The interpreter's cyclic
    collector cannot know that: left running it promotes them and then
    walks the whole structure, in full collections that free nothing.
    The scope therefore runs under :func:`collector_paused`; scopes
    nested inside it -- composite ops, bulk construction inside an op --
    or inside a server tick find the collector off and leave it so.
    """
    with collector_paused():
        if machine._epoch_depth == 0:
            machine.batch_epochs += 1
        machine._epoch_depth += 1
        try:
            yield
        finally:
            machine._epoch_depth -= 1


def run_batch(machine: PIMMachine, name: str, route: Route) -> Any:
    """Drive the op ``name`` -- its ``route`` generator -- to completion
    and return the route's return value.

    Alternates the route's stages with network drains.  Draining an
    empty network is free, so the driver drains unconditionally after
    every stage -- the route's yield points alone determine the round
    structure.  A stage the machine rejects while it is being issued
    raises to the caller with nothing of it left staged.

    With a fault plan installed on the machine, every stage is issued
    through the reliable-delivery protocol instead (see the module
    comment above): routes are written against a perfect network and
    survive message-level faults without changes.

    The outermost call on a machine is one reclamation epoch (see
    :func:`batch_epoch`); nested calls run inside it.
    """
    # The driver is its own frame so that the replies and the route's
    # locals are already released when the epoch closes: the collector
    # comes back to the result alone.
    with batch_epoch(machine):
        return _drive(machine, name, route)


def _drive(machine: PIMMachine, name: str, route: Route) -> Any:
    observer = machine.batch_observer
    before = machine.snapshot() if observer is not None else None
    replies: Any = None
    try:
        while True:
            try:
                stage = route.send(replies)
            except StopIteration as stop:
                result = stop.value
                break
            envelopes: Optional[Dict[int, tuple]] = None
            try:
                if machine._chaos is None:
                    _issue(machine, stage)
                else:
                    envelopes = _reliable_issue(machine, stage)
            except BaseException:
                _discard_stage(machine)
                raise
            replies = (machine.drain(label=name) if envelopes is None
                       else _reliable_drain(machine, name, envelopes))
    except BaseException:
        route.close()
        raise
    if observer is not None:
        machine.batch_observer = None
        try:
            observer(name, machine.delta_since(before))
        finally:
            machine.batch_observer = observer
    return result
