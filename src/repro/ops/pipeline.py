"""The batched-operation pipeline: plan -> route -> execute -> aggregate.

Every bound in the paper (Theorems 4.1-4.5, 5.1-5.2) has the same shape:
some CPU-side planning, one or more bulk-synchronous message rounds
against the PIM modules, and a CPU-side reduction of the replies.  This
module factors that shape into a single reusable driver so the skip-list
ops, the baselines, the collectives and the container structures all
share one dispatch/transfer substrate instead of hand-rolled staging
loops.

The four phases of a :class:`BatchOp`:

- **plan** -- CPU-side preparation (dedup, sort, grouping); charged via
  ``machine.cpu`` exactly as before.  Returns an opaque plan object that
  the later phases receive.
- **route** -- a *generator* that yields message **stages**.  A stage is
  an iterable of three kinds of element, in issue order: ``send_all``
  format tuples (``(dest, fn, args, tag)`` or ``(dest, fn, args, tag,
  size)``), :class:`Broadcast` markers, and :class:`Columns` -- one
  function's messages as parallel lists.  What each becomes on the
  machine is the driver's decision alone (see :func:`_issue`); an op
  never asks which engine it runs on.  After each stage the driver
  issues the messages, drains the network to quiescence, and sends the
  collected replies back into the generator (``replies = yield
  stage``).  The generator's return
  value becomes the routed result.  Between stages the machine is
  quiescent, so a route may invoke *other* ops (nested ``run_batch``) as
  plain calls -- that is how composite ops (upsert's embedded search, the
  LSM's delta probes) are built.
- **execute** -- the PIM side: the handler functions returned by
  :meth:`BatchOp.handlers`, registered by the driver and run by the round
  engine on the modules.
- **aggregate** -- the final CPU-side reduction from the routed result to
  the op's return value.

The driver (:func:`run_batch`) owns handler registration, staged-queue
issue, round draining (labelled with the op name, so a livelock report
names its originating op) and leaves all metric charging to the phases
and the round engine -- the cost model is unchanged.  The outermost
``run_batch`` on a machine is also one host-memory *reclamation epoch*
(:func:`batch_epoch`): the interpreter's cyclic collector is paused for
its length, so ops must not build reference cycles among their
temporaries (see the notes for op authors below).

Backends and observability hook in here: a different driver (e.g. one
that ships stages to multiprocess shards, or charges an alternative cost
model) can run any existing op unmodified, because ops never touch the
machine's message API directly.  A machine may carry a
``batch_observer`` callable (see :attr:`PIMMachine.batch_observer`);
when set, the driver snapshots the machine around every op and reports
``(op.name, MetricsDelta)`` after a successful run -- the per-batch
metric feed the differential-verification subsystem (:mod:`repro.verify`)
checks its cost invariants against.  Nested ops report too (inner ops
first, since they complete first); observers must not issue messages or
charge costs.

Design notes for op authors
---------------------------

- ``route`` must be a generator function.  A stage-free op can
  ``return value`` before any ``yield`` (use the ``if False: yield``
  idiom to force generator-ness if there is no other yield).
- An *empty* stage is legal and free: draining a quiescent machine is a
  no-op, so conditional stages may simply yield nothing.
- Hold shared-memory allocations across stages with ``try/finally`` (or
  ``with cpu.region(...)``) inside the generator; on an exception the
  driver closes the generator, which runs the ``finally`` blocks.  Never
  yield from inside a ``finally`` -- cleanup *messages* must be a normal
  success-path stage.
- Keep a batch's temporaries acyclic.  The cyclic collector is paused
  while a batch runs, so a plan record that points back at its op, or a
  freed structure node that keeps its neighbour pointers, is a leak
  until some later full collection.  Index into flat lists instead of
  linking scratch objects both ways, and clear the pointer slots of
  whatever the op removes from the structure.
- Handler dicts must be stable: :meth:`PIMMachine.register` treats
  re-registration of the identical handler object as a no-op but rejects
  a different object under the same id, so :meth:`BatchOp.handlers` must
  return a cached dict (see :func:`cached_handlers`), or ``{}`` when the
  owning structure registered its handlers at construction time.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.sim.chaos import DELIVER_FN
from repro.sim.errors import (DeliveryTimeout, MalformedMessageError,
                              UnknownHandlerError)
from repro.sim.machine import Handler, PIMMachine, check_columns

__all__ = ["ACK_TAG", "BatchOp", "Broadcast", "Columns", "batch_epoch",
           "cached_handlers", "run_batch"]


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


class BatchOp:
    """One batched operation, split into its pipeline phases.

    Subclasses override the phases they need; the defaults make the
    trivial op (no handlers, plan is the batch, no stages, aggregate is
    the routed value) a no-op.
    """

    #: Human-readable op id; names the drain in livelock reports.
    name = "op"
    #: Round bound passed to ``drain`` for every stage of this op.
    max_rounds = 1_000_000

    def handlers(self) -> Dict[str, Handler]:
        """The execute phase: function-id -> handler dict to register.

        Must return a *stable* dict (same object every call) -- see the
        module docstring -- or ``{}`` when the host structure registers
        its handlers itself at construction time.
        """
        return {}

    def plan(self, machine: PIMMachine, batch: Any) -> Any:
        """CPU-side planning; returns the plan passed to route/aggregate."""
        return batch

    def route(self, machine: PIMMachine, plan: Any):
        """Generator yielding message stages; returns the routed result."""
        return plan
        yield  # pragma: no cover - marks this default as a generator

    def aggregate(self, machine: PIMMachine, plan: Any, routed: Any) -> Any:
        """Final CPU-side reduction; defaults to the routed result."""
        return routed


def cached_handlers(host: Any, key: str, factory) -> Dict[str, Handler]:
    """Create a handler dict once per ``host`` object and memoise it.

    The machine requires re-registration to present the *same* handler
    objects, so handler factories (which build fresh closures) must run
    at most once per host structure.  The cache lives on the host under
    ``_handler_cache`` (hosts are plain objects without ``__slots__``).
    """
    cache = getattr(host, "_handler_cache", None)
    if cache is None:
        cache = {}
        host._handler_cache = cache
    h = cache.get(key)
    if h is None:
        h = factory()
        cache[key] = h
    return h


# -- reliable delivery ----------------------------------------------------
#
# With a fault plan installed (machine.install_fault_plan) the driver
# wraps every CPU->module message of every stage in a sequence-numbered
# envelope (function id repro.sim.chaos.DELIVER_FN).  The module-side
# wrapper acknowledges each arrival with a one-unit reply and executes
# the inner handler exactly once (ModuleContext.first_delivery dedups
# redelivery); the CPU side retries unacknowledged envelopes after each
# drain with capped exponential backoff charged as idle rounds, and
# escalates to DeliveryTimeout when config.max_delivery_attempts is
# exhausted.  Every protocol byte is charged to the ordinary metrics:
# envelopes and retransmissions enter the h-relation like any message,
# acks are one-unit replies, and backoff burns rounds + sync cost.
# Replies and forwards stay outside the protocol -- the chaos layer
# never faults them (see repro.sim.chaos for why that makes the
# protocol end-to-end exactly-once).


class _AckTag:
    """Identity tag of protocol acknowledgements (never user-visible)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<ack>"


ACK_TAG = _AckTag()


def _deliver(ctx, seq, fn, args, inner_tag, size, corrupt=False, tag=None):
    """Module-side envelope handler: ack, dedup, run the inner task."""
    if corrupt:
        # Payload failed its checksum in flight: discard without acking;
        # the sender's retry carries a fresh copy.
        ctx.charge(1)
        return
    ctx.reply(seq, tag=ACK_TAG, size=1)
    if not ctx.first_delivery(seq):
        return
    ctx._handlers[fn](ctx, *args, tag=inner_tag)


class _ReliableChannel:
    """Per-machine protocol state: sequence counter + in-flight table."""

    def __init__(self, machine: PIMMachine) -> None:
        machine.register(DELIVER_FN, _deliver)
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
        chan = machine._rdp = _ReliableChannel(machine)
    return chan


def _reliable_stage(machine: PIMMachine, op: "BatchOp",
                    stage: Optional[Iterable]) -> list:
    """Issue one stage under the reliable-delivery protocol and drain to
    quiescence, retrying lost envelopes; returns the inner replies."""
    chan = _channel(machine)
    pending: Dict[int, tuple] = {}  # seq -> envelope send tuple
    if stage is not None:
        handlers = machine._handlers

        def wrap(dest: int, fn: str, args: tuple, tag: Any,
                 size: int) -> None:
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
    inner: List[Any] = []
    attempt = 1
    cfg = machine.config
    while True:
        for r in machine.drain(op.max_rounds, label=op.name):
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
                f"op {op.name!r}: {len(pending)} message(s) undelivered "
                f"after {attempt} attempts (max_delivery_attempts="
                f"{cfg.max_delivery_attempts}): {'; '.join(sections)}",
                op=op.name, attempts=attempt, undelivered=len(pending),
                stuck=len(stuck), retrying=len(retrying))
        backoff = min(cfg.retry_backoff_base << (attempt - 1),
                      cfg.retry_backoff_cap)
        machine.idle_rounds(backoff)
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
    more goes through ``machine.send_cols`` -- one column chunk where
    its function is chunked, the rows it stands for in their slots
    elsewhere; a shorter one becomes those rows, joined to the
    surrounding run -- exactly what ``send_all`` would have been
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


@contextmanager
def batch_epoch(machine: PIMMachine) -> Iterator[None]:
    """One reclamation epoch: the outermost batch scope on ``machine``.

    The model's CPU side is batch-scoped -- shared memory is claimed and
    released per batch and only the structure outlives one -- so the
    tens of thousands of rows, replies and path records a batch keeps
    alive are all dead when it ends.  The interpreter's cyclic
    collector cannot know that: left running it promotes them and then
    walks the whole structure, in full collections that free nothing.
    The outermost scope therefore pauses the collector (only if it was
    enabled) and restores it on every exit path; scopes nested inside
    it -- composite ops, bulk construction inside an op -- do nothing.
    Temporaries die by reference count when the batch ends, which holds
    only while the batch path creates no reference cycles (DESIGN.md,
    "Host memory: batch epochs").  This is the one place that touches
    the collector; thresholds are never changed.
    """
    paused = False
    if machine._epoch_depth == 0:
        machine.batch_epochs += 1
        paused = gc.isenabled()
        if paused:
            gc.disable()
    machine._epoch_depth += 1
    try:
        yield
    finally:
        machine._epoch_depth -= 1
        if paused:
            gc.enable()


def run_batch(machine: PIMMachine, op: BatchOp, batch: Any = None) -> Any:
    """Drive one :class:`BatchOp` to completion and return its result.

    Registers the op's handlers (idempotent), runs ``plan``, then
    alternates ``route`` stages with network drains, and finishes with
    ``aggregate``.  Draining an empty network is free, so the driver
    drains unconditionally after every stage -- the op's yield points
    alone determine the round structure.

    With a fault plan installed on the machine, every stage is issued
    through the reliable-delivery protocol instead (see the module
    comment above): ops are written against a perfect network and
    survive message-level faults without changes.

    The outermost call on a machine is one reclamation epoch (see
    :func:`batch_epoch`); nested calls run inside it.
    """
    # The driver is its own frame so that the plan, the replies and the
    # routed value are already released when the epoch closes: the
    # collector comes back to the result alone.
    with batch_epoch(machine):
        return _drive(machine, op, batch)


def _drive(machine: PIMMachine, op: BatchOp, batch: Any) -> Any:
    observer = getattr(machine, "batch_observer", None)
    before = machine.snapshot() if observer is not None else None
    handlers = op.handlers()
    if handlers:
        machine.register_all(handlers)
    plan = op.plan(machine, batch)
    gen = op.route(machine, plan)
    replies: Any = None
    try:
        while True:
            try:
                stage = gen.send(replies)
            except StopIteration as stop:
                routed = stop.value
                break
            if machine._chaos is None:
                _issue(machine, stage)
                replies = machine.drain(op.max_rounds, label=op.name)
            else:
                replies = _reliable_stage(machine, op, stage)
    except BaseException:
        gen.close()
        raise
    result = op.aggregate(machine, plan, routed)
    if observer is not None:
        machine.batch_observer = None
        try:
            observer(op.name, machine.delta_since(before))
        finally:
            machine.batch_observer = observer
    return result
