"""The array-native (columnar) round engine.

The reference engine (:class:`repro.sim.machine.PIMMachine`) stages one
pre-resolved entry tuple per message into per-destination queues and
dispatches one Python call per task.  That is exact but object-bound: the
wall-clock cost of a round is dominated by per-task allocation and
dispatch, not by the model quantities the paper charges.  This module
provides :class:`ColumnarPIMMachine`, a drop-in backend
(``PIMMachine(backend="columnar")``) in which a round is a batch
operation over flat buffers:

Columnar layout
---------------

Staged traffic is a sequence of **chunks**, each one function id's
contiguous run of messages, in two streams mirroring the reference
engine's CPU-before-forward delivery order::

    _cq (CPU-issued)   [ chunk(fn=A) | chunk(fn=B) | ... ]
    _fq (continuations) [ chunk(fn=A) | ... ]

    chunk kinds
      rows:  rows = [(dest, args, tag, size), ...]   (scalar issue path)
      cols:  dests = int array; cols = tuple of payload column arrays
             (numpy, emitted by vectorized batch handlers)
      bcast: one (args, tag, size) delivered to every module

Per-destination receive totals (the ``h``-relation's incoming half) are
accumulated *at append time* into a pooled flat counter array
(``_recv``), so a round never scans or re-buckets messages; column
chunks accumulate through one ``bincount`` per emission.

Grouped dispatch
----------------

A round groups its chunks by function id.  Functions with a **batch
handler** (:meth:`repro.sim.machine.PIMMachine.register_batch`) execute
as ONE call per function over all of its chunks -- the handler loops (or
numpy-vectorizes) over contiguous slices, charging work and sends into
flat per-module accumulators on the shared :class:`BatchRound` context.
All remaining tasks fall back to per-task scalar execution in exactly
the reference engine's order: destinations ascending, CPU-issued before
forwarded, arrival order within a queue.

Execution contract for batch handlers
-------------------------------------

Within a round, all model metrics (h, message count, per-module work
sums, the per-round PIM maximum) are order-independent, and the
per-destination multisets staged for the next round are preserved under
any execution order.  Batch handlers are therefore required to be:

- **order-insensitive** across the round's tasks (no observable
  dependence on intra-round execution order),
- **read-only with respect to shared replicated structure** (handlers
  like ``link_upper_node``, whose first executor pays different charges,
  must stay scalar), and
- **RNG-free** (the machine's seeded stream must be consumed in the
  same order as under the object engine).

The contract is not just documented -- it is *certified empirically*:
``repro.verify.differ`` replays fuzz sessions and the golden 13-workload
suite on both backends and requires bit-identical per-op metric streams
and results.

Typed fallback
--------------

Features that are inherently per-task keep the reference semantics by
falling back to the object engine, with a typed :class:`FallbackEvent`
recorded on the machine (``machine.fallback_events``):

- ``fault_plan`` -- chaos schedules and the reliable-delivery protocol
  rewrite per-destination queues in place; entered on
  :meth:`install_fault_plan`, exited on :meth:`uninstall_fault_plan`.
- ``profiler`` -- per-handler wall-time attribution needs per-task
  clock reads; entered/exited via :meth:`set_profiler`.
- ``qrqw`` / ``trace_accesses`` -- per-object access accounting is
  per-task by definition; permanent for the machine's lifetime.

Entering a fallback converts pending columnar chunks into the object
engine's staged slots (preserving per-destination arrival order);
exiting converts back.  Aggregate per-destination message units are
preserved exactly in both directions, so the model metrics are
unaffected by when a fallback triggers.

numpy is optional: without it, column chunks are never produced (batch
handlers consult :data:`HAVE_NUMPY`) and all accounting stays in plain
Python -- the backend remains available and exact, just less vectorized.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.chaos import ChaosState, FaultPlan
from repro.sim.errors import LivelockError, MalformedMessageError, \
    UnknownHandlerError
from repro.sim.machine import PIMMachine, _CPU_Q, _FWD_Q
from repro.sim.module import ModuleContext
from repro.sim.task import Reply

try:  # numpy is an accelerator, not a dependency
    import numpy as _np
except ImportError:  # pragma: no cover - the container bakes numpy in
    _np = None

HAVE_NUMPY = _np is not None

# Chunk kinds.
ROWS, COLS, BCAST = 0, 1, 2

# Fallback reasons (FallbackEvent.reason).
FALLBACK_FAULT_PLAN = "fault_plan"
FALLBACK_PROFILER = "profiler"
FALLBACK_QRQW = "qrqw"
FALLBACK_TRACE_ACCESSES = "trace_accesses"


class FallbackEvent:
    """A typed record of one columnar->object engine fallback.

    ``reason`` is one of the ``FALLBACK_*`` constants, ``detail`` a
    human-readable amplification, and ``at_round`` the machine's
    cumulative round counter when the fallback engaged.
    """

    __slots__ = ("reason", "detail", "at_round")

    def __init__(self, reason: str, detail: str, at_round: int) -> None:
        self.reason = reason
        self.detail = detail
        self.at_round = at_round

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FallbackEvent(reason={self.reason!r}, "
                f"at_round={self.at_round}, detail={self.detail!r})")


class _Chunk:
    """One function id's contiguous run of staged messages."""

    __slots__ = ("fn", "handler", "kind", "rows", "dests", "cols",
                 "args", "tag", "size")

    def __init__(self, fn: str, handler: Any, kind: int) -> None:
        self.fn = fn
        self.handler = handler
        self.kind = kind
        self.rows: Optional[list] = None   # ROWS: [(dest, args, tag, size)]
        self.dests: Any = None             # COLS: int array of destinations
        self.cols: Any = None              # COLS: tuple of payload columns
        self.args: Any = None              # BCAST: the shared args tuple
        self.tag: Any = None               # BCAST: the shared tag
        self.size: int = 1                 # COLS/BCAST: uniform message size

    def task_count(self, num_modules: int) -> int:
        if self.kind == ROWS:
            return len(self.rows)
        if self.kind == COLS:
            return len(self.dests)
        return num_modules


class ColumnarContext(ModuleContext):
    """A :class:`ModuleContext` whose forwards stage into columnar
    chunks.  Used for scalar-task execution inside columnar rounds; the
    reply path and all accounting are inherited unchanged."""

    __slots__ = ()

    def forward(self, dest: int, fn: str, args: tuple = (), tag: Any = None,
                size: int = 1) -> None:
        if not 0 <= dest < self.num_modules:
            raise ValueError(f"bad module id {dest}")
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        self.machine._stage_row(self.machine._fq, fn, handler,
                                dest, args, tag, size)
        self._sent_size += size


class BatchRound:
    """Per-round context handed to batch handlers.

    One instance lives on the machine and is re-armed each round; the
    flat per-module accumulators (:attr:`work`, :attr:`sent` --
    length-P lists indexed by module id) are pooled and slice-reset on
    re-arm, part of the zero-allocation steady state.  A batch handler:

    - reads its tasks from the chunks it is passed;
    - appends :class:`~repro.sim.task.Reply` objects to :attr:`replies`
      (bumping ``sent[mid]`` for the executing module);
    - charges local work into ``work[mid]`` and message sends into
      ``sent[mid]`` -- only for modules that received tasks this round
      (the executing module of some task; charging elsewhere violates
      the execution contract) -- or, for vectorized handlers, into flat
      per-module arrays via :meth:`add_work_array` /
      :meth:`add_sent_array`;
    - stages next-round continuations with :meth:`stage_rows` /
      :meth:`stage_cols`.

    Work values must be integer-valued (the model charges unit RAM
    instructions), which keeps float64 array summation exact and the
    cross-backend metric streams bit-identical.
    """

    __slots__ = ("machine", "num_modules", "replies", "work", "sent",
                 "_work_np", "_sent_np")

    def __init__(self, machine: "ColumnarPIMMachine") -> None:
        self.machine = machine
        self.num_modules = machine.num_modules
        self.replies: list = []
        self.work: List[float] = [0.0] * machine.num_modules
        self.sent: List[int] = [0] * machine.num_modules
        self._work_np: Any = None
        self._sent_np: Any = None

    def _arm(self, replies: list) -> None:
        self.replies = replies
        # Slice-reset the pooled accumulators (C-level copy from the zero
        # templates -- no reallocation).
        self.work[:] = self.machine._zeros_f
        self.sent[:] = self.machine._zeros_i
        self._work_np = None
        self._sent_np = None

    # -- scalar-ish accumulation ------------------------------------------

    def reply(self, mid: int, payload: Any, tag: Any = None,
              size: int = 1) -> None:
        """Emit one reply from module ``mid`` (accounts the send)."""
        self.replies.append(Reply(payload, tag, mid))
        self.sent[mid] += size

    # -- vectorized accumulation ------------------------------------------

    def add_work_array(self, work: Any) -> None:
        """Fold a length-P float array of per-module work charges in."""
        if self._work_np is None:
            self._work_np = work.astype("float64", copy=True)
        else:
            self._work_np += work

    def add_sent_array(self, sent: Any) -> None:
        """Fold a length-P int array of per-module sent units in."""
        if self._sent_np is None:
            self._sent_np = sent.astype("int64", copy=True)
        else:
            self._sent_np += sent

    # -- staging continuations --------------------------------------------

    def stage_rows(self, fn: str, rows: list) -> None:
        """Stage continuation rows ``[(dest, args, tag, size), ...]``
        for the next round (receive accounting included).  The sender
        side must be charged by the handler via :attr:`sent`."""
        self.machine._stage_fwd_rows(fn, rows)

    def stage_cols(self, fn: str, dests: Any, cols: Tuple[Any, ...],
                   size: int = 1) -> None:
        """Stage a column chunk of continuations (numpy path)."""
        self.machine._stage_fwd_cols(fn, dests, cols, size)


class ColumnarPIMMachine(PIMMachine):
    """The array-native backend behind ``PIMMachine(backend="columnar")``.

    Public surface, metrics and reply semantics are identical to the
    base class; see the module docstring for the execution model and
    the fallback rules.
    """

    def __init__(self, num_modules: Optional[int] = None,
                 config: Any = None, **kwargs: Any) -> None:
        super().__init__(num_modules, config, **kwargs)
        P = self.num_modules
        # Columnar staging state (see module docstring).
        self._cq: List[_Chunk] = []
        self._fq: List[_Chunk] = []
        self._recv: List[int] = [0] * P
        self._recv_spare: Optional[List[int]] = None  # pooled buffer
        self._recv_np: Any = None
        self._active: List[int] = []
        self._bcast_units: int = 0
        self._incoming_total: int = 0
        self._bct = BatchRound(self)
        # Zero templates for slice-resetting the pooled flat accumulators
        # on the (numpy) accounting path.
        self._zeros_f: List[float] = [0.0] * P
        self._zeros_i: List[int] = [0] * P
        # Shared all-zero receive vector for rounds with no row-staged
        # traffic (never mutated -- arithmetic on it allocates fresh).
        self._zero_np: Any = (_np.zeros(P, dtype="int64")
                              if _np is not None else None)
        # Deferred per-module batch work (float64 vector): the numpy
        # accounting path accumulates here instead of touching P module
        # objects per round; folded into ``module.work`` lazily at
        # measurement points (``_sync_pim_work``).  Integer-valued
        # charges keep the float64 sums exact, so the deferral cannot
        # perturb the metric stream.
        self._work_acc: Any = None
        # Scalar execution inside columnar rounds uses contexts whose
        # forward() stages into chunks; the inherited _contexts remain
        # in use for fallback (object-engine) rounds.
        self._ccontexts: List[ColumnarContext] = [
            ColumnarContext(self, m) for m in self.modules
        ]
        #: Typed fallback history (list of :class:`FallbackEvent`).
        self.fallback_events: List[FallbackEvent] = []
        self._fallback_reasons: set = set()
        if self.qrqw:
            self._enter_fallback(
                FALLBACK_QRQW,
                "qrqw contention accounting is per-task by definition")
        if self.config.trace_accesses:
            self._enter_fallback(
                FALLBACK_TRACE_ACCESSES,
                "per-object access tracing is per-task by definition")

    @property
    def backend(self) -> str:
        return "columnar"

    @property
    def columnar_active(self) -> bool:
        """True when rounds execute on the columnar path (no fallback
        reason is currently engaged)."""
        return not self._fallback_reasons

    # -- fallback machinery -------------------------------------------------

    def _enter_fallback(self, reason: str, detail: str) -> None:
        if reason in self._fallback_reasons:
            return
        first = not self._fallback_reasons
        self._fallback_reasons.add(reason)
        self.fallback_events.append(
            FallbackEvent(reason, detail, self.metrics.rounds))
        if first:
            self._columnar_to_staged()

    def _exit_fallback(self, reason: str) -> None:
        if reason not in self._fallback_reasons:
            return
        self._fallback_reasons.discard(reason)
        if not self._fallback_reasons:
            self._staged_to_columnar()

    def _columnar_to_staged(self) -> None:
        """Convert pending chunks into object-engine staged slots,
        preserving per-destination arrival order and aggregate units."""
        staged = self._staged
        for q, chunks in ((_CPU_Q, self._cq), (_FWD_Q, self._fq)):
            for ch in chunks:
                for dest, args, tag, size in self._iter_chunk(ch):
                    slot = staged.get(dest)
                    if slot is None:
                        slot = staged[dest] = [0, [], []]
                    slot[0] += size
                    slot[q].append((ch.handler, args, tag, ch.fn))
        self._reset_staging()

    def _staged_to_columnar(self) -> None:
        """Convert object-engine staged slots back into chunks.

        Per-entry sizes inside a slot are not individually recorded by
        the object engine (only the slot total), so sizes are assigned
        to preserve the slot's aggregate units exactly: every row gets
        size 1 and the first row absorbs the remainder.  All model
        metrics depend only on the aggregates.
        """
        staged = self._staged
        self._staged = {}
        for mid in sorted(staged):
            slot = staged[mid]
            entries = len(slot[_CPU_Q]) + len(slot[_FWD_Q])
            extra = slot[0] - entries  # remainder of aggregate units
            for q, out in ((_CPU_Q, self._cq), (_FWD_Q, self._fq)):
                for handler, args, tag, fn in slot[q]:
                    size = 1 + extra
                    extra = 0
                    self._stage_row(out, fn, handler, mid, args, tag, size)

    def _iter_chunk(self, ch: _Chunk):
        """Yield ``(dest, args, tag, size)`` rows of any chunk kind."""
        if ch.kind == ROWS:
            yield from ch.rows
        elif ch.kind == COLS:
            size = ch.size
            dests = ch.dests.tolist()
            cols = [c.tolist() for c in ch.cols]
            for i, dest in enumerate(dests):
                yield dest, tuple(c[i] for c in cols), None, size
        else:  # BCAST
            for mid in range(self.num_modules):
                yield mid, ch.args, ch.tag, ch.size

    # -- staging helpers ----------------------------------------------------

    def _reset_staging(self) -> None:
        self._cq = []
        self._fq = []
        recv = self._recv
        for mid in self._active:
            recv[mid] = 0
        self._active = []
        self._recv_np = None
        self._bcast_units = 0
        self._incoming_total = 0

    def _stage_row(self, queue: List[_Chunk], fn: str, handler: Any,
                   dest: int, args: tuple, tag: Any, size: int) -> None:
        """Append one message row (receive accounting included)."""
        recv = self._recv
        if recv[dest] == 0:
            self._active.append(dest)
        recv[dest] += size
        self._incoming_total += size
        if queue:
            tail = queue[-1]
            if tail.fn == fn and tail.kind == ROWS:
                tail.rows.append((dest, args, tag, size))
                return
        ch = _Chunk(fn, handler, ROWS)
        ch.rows = [(dest, args, tag, size)]
        queue.append(ch)

    def _stage_fwd_rows(self, fn: str, rows: list) -> None:
        """Bulk-append continuation rows (used by batch handlers)."""
        if not rows:
            return
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        recv = self._recv
        active = self._active
        inc = 0
        for dest, _args, _tag, size in rows:
            if recv[dest] == 0:
                active.append(dest)
            recv[dest] += size
            inc += size
        self._incoming_total += inc
        fq = self._fq
        if fq:
            tail = fq[-1]
            if tail.fn == fn and tail.kind == ROWS:
                tail.rows.extend(rows)
                return
        ch = _Chunk(fn, handler, ROWS)
        ch.rows = rows
        fq.append(ch)

    def _stage_cols_into(self, queue: List[_Chunk], fn: str, dests: Any,
                         cols: Tuple[Any, ...], size: int) -> None:
        """Stage one vectorized column chunk (receive accounting
        included) into ``queue``."""
        if _np is None:
            raise RuntimeError("column chunks require numpy; "
                               "check repro.sim.fastpath.HAVE_NUMPY")
        n = len(dests)
        if n == 0:
            return
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at forward time)")
        # bincount yields a fresh int64 vector we own -- adopt it.
        counts = _np.bincount(dests, minlength=self.num_modules)
        if size != 1:
            counts *= size
        if self._recv_np is None:
            self._recv_np = counts
        else:
            self._recv_np += counts
        self._incoming_total += n * size
        ch = _Chunk(fn, handler, COLS)
        ch.dests = dests
        ch.cols = tuple(cols)
        ch.size = size
        queue.append(ch)

    def _stage_fwd_cols(self, fn: str, dests: Any, cols: Tuple[Any, ...],
                        size: int = 1) -> None:
        """Stage a vectorized column chunk of continuations."""
        self._stage_cols_into(self._fq, fn, dests, cols, size)

    @property
    def can_send_cols(self) -> bool:
        """Whether :meth:`send_cols` is usable right now.

        False while the engine runs in scalar fallback (profiling, no
        numpy): there the round loop never dispatches batch handlers,
        and a column chunk's args are only meaningful to those.
        Callers must also keep column sends off the reliable-delivery
        protocol (chaos plans wrap every CPU-issued *scalar* message in
        an envelope; a column chunk would bypass that accounting).
        """
        return _np is not None and not self._fallback_reasons

    def send_cols(self, fn: str, dests: Any, cols: Tuple[Any, ...],
                  size: int = 1) -> None:
        """Issue one CPU-side batch of messages as a column chunk.

        The vectorized twin of :meth:`send_all` for homogeneous batches:
        ``dests`` (int64 array) and the parallel ``cols`` arrays land as
        one chunk that ``fn``'s registered batch handler consumes
        natively next round.  Receive accounting (h-relation units,
        task counts) is identical to sending the rows one by one, so
        metric streams do not depend on which form a caller uses.  Only
        available on the columnar engine outside scalar fallback --
        check :attr:`can_send_cols` first.
        """
        if not self.can_send_cols:
            raise RuntimeError(
                "send_cols unavailable: columnar engine is in scalar "
                f"fallback ({[e.reason for e in self._fallback_reasons]})"
                if self._fallback_reasons else
                "send_cols unavailable: numpy is not importable")
        self._stage_cols_into(self._cq, fn, dests, cols, size)

    # -- message issue (columnar overrides) ---------------------------------

    def send(self, dest: int, fn: str, args: tuple = (), tag: Any = None,
             size: int = 1) -> None:
        if self._fallback_reasons:
            super().send(dest, fn, args, tag, size)
            return
        if not 0 <= dest < self.num_modules:
            raise ValueError(f"bad module id {dest}")
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        self._stage_row(self._cq, fn, handler, dest, args, tag, size)

    def send_all(self, messages: Any) -> None:
        if self._fallback_reasons:
            super().send_all(messages)
            return
        n = self.num_modules
        handlers = self._handlers
        cq = self._cq
        recv = self._recv
        active = self._active
        inc = 0
        tail = cq[-1] if cq else None
        if tail is not None and tail.kind != ROWS:
            tail = None
        for msg in messages:
            if len(msg) == 4:
                dest, fn, args, tag = msg
                size = 1
            elif len(msg) == 5:
                dest, fn, args, tag, size = msg
                if type(size) is not int or size < 1:
                    raise MalformedMessageError(
                        f"send_all message {(dest, fn)} has invalid size "
                        f"{size!r}: the optional 5th element must be a "
                        f"positive int (constant-size message units)")
            else:
                raise MalformedMessageError(
                    f"send_all message has {len(msg)} elements; expected "
                    f"(dest, fn, args, tag) or (dest, fn, args, tag, size): "
                    f"{msg!r}")
            if not 0 <= dest < n:
                raise ValueError(f"bad module id {dest}")
            if recv[dest] == 0:
                active.append(dest)
            recv[dest] += size
            inc += size
            if tail is not None and tail.fn == fn:
                tail.rows.append((dest, args, tag, size))
                continue
            handler = handlers.get(fn)
            if handler is None:
                raise UnknownHandlerError(
                    f"no handler for {fn!r} (resolved at send time)")
            tail = _Chunk(fn, handler, ROWS)
            tail.rows = [(dest, args, tag, size)]
            cq.append(tail)
        self._incoming_total += inc

    def broadcast(self, fn: str, args: tuple = (), tag: Any = None,
                  size: int = 1) -> None:
        if self._fallback_reasons:
            super().broadcast(fn, args, tag, size)
            return
        handler = self._handlers.get(fn)
        if handler is None:
            raise UnknownHandlerError(
                f"no handler for {fn!r} (resolved at send time)")
        ch = _Chunk(fn, handler, BCAST)
        ch.args = args
        ch.tag = tag
        ch.size = size
        self._cq.append(ch)
        self._bcast_units += size
        self._incoming_total += size * self.num_modules

    # -- round execution ----------------------------------------------------

    def step(self) -> List[Reply]:
        if self._fallback_reasons:
            return super().step()
        if not (self._cq or self._fq):
            return []
        return self._columnar_round()

    def _columnar_round(self) -> List[Reply]:
        P = self.num_modules
        cq = self._cq
        fq = self._fq
        recv = self._recv
        active = self._active
        recv_np = self._recv_np
        bcast_units = self._bcast_units
        incoming_total = self._incoming_total
        # Install fresh staging (pooled recv buffer) for the messages
        # this round's handlers emit toward the NEXT round.
        spare = self._recv_spare
        if spare is None:
            spare = [0] * P
        else:
            self._recv_spare = None
        self._cq = []
        self._fq = []
        self._recv = spare
        self._active = []
        self._recv_np = None
        self._bcast_units = 0
        self._incoming_total = 0

        replies: List[Reply] = []
        batch_handlers = self._batch_handlers
        by_fn: Dict[str, List[_Chunk]] = {}
        slots: Dict[int, list] = {}
        tasks = 0
        bcast_all = False
        for chunks, q in ((cq, _CPU_Q), (fq, _FWD_Q)):
            for ch in chunks:
                tasks += ch.task_count(P)
                if ch.fn in batch_handlers:
                    lst = by_fn.get(ch.fn)
                    if lst is None:
                        by_fn[ch.fn] = [ch]
                    else:
                        lst.append(ch)
                else:
                    if ch.kind == BCAST:
                        bcast_all = True
                    qi = 0 if q == _CPU_Q else 1
                    for dest, args, tag, _size in self._iter_chunk(ch):
                        pair = slots.get(dest)
                        if pair is None:
                            pair = slots[dest] = ([], [])
                        pair[qi].append((ch.handler, args, tag))

        # Scalar tasks first, in the reference engine's order: module id
        # ascending, CPU-issued before forwarded, arrival order within.
        modules = self.modules
        scalar_sent: Optional[Dict[int, int]] = None
        if slots:
            ccontexts = self._ccontexts
            scalar_sent = {}
            for mid in sorted(slots):
                cpu_q, fwd_q = slots[mid]
                ctx = ccontexts[mid]
                ctx._replies = replies
                ctx._sent_size = 0
                modules[mid].round_work = 0.0
                for handler, args, tag in cpu_q:
                    handler(ctx, *args, tag=tag)
                for handler, args, tag in fwd_q:
                    handler(ctx, *args, tag=tag)
                scalar_sent[mid] = ctx._sent_size

        # Grouped dispatch: one call per function id over its chunks.
        bct = self._bct
        bct._arm(replies)
        for fn, fn_chunks in by_fn.items():
            batch_handlers[fn](bct, fn_chunks)

        # Scalar handlers that inline their forwards straight into the
        # object engine's staging dict (ops_search does) are absorbed
        # into next-round chunks here; aggregate units are preserved.
        if self._staged:
            self._staged_to_columnar()

        # -- round accounting (exact; see module docstring) ----------------
        # Batch charges are folded into cumulative per-module work here
        # (scalar charges already went through ctx.charge) and the pooled
        # flat accumulators are zeroed in the same pass -- round_work keeps
        # mirroring the object engine's "last active round" reading.
        work_np = bct._work_np
        sent_np = bct._sent_np
        bwork = bct.work
        bsent = bct.sent
        if recv_np is not None or work_np is not None or sent_np is not None:
            h, round_pim_max, sent_total = self._finish_np(
                recv, recv_np, bcast_units, scalar_sent, slots,
                bwork, bsent, work_np, sent_np, active)
        else:
            h = 0
            round_pim_max = 0.0
            sent_total = 0
            mids = range(P) if (bcast_units or bcast_all) else active
            scalar = scalar_sent is not None
            for mid in mids:
                s = bsent[mid]
                w = bwork[mid]
                if w:
                    module = modules[mid]
                    module.work += w
                    if scalar and mid in slots:
                        module.round_work += w
                        w = module.round_work
                    else:
                        module.round_work = w
                elif scalar and mid in slots:
                    w = modules[mid].round_work
                r = recv[mid] + bcast_units
                if r == 0:
                    continue
                if scalar:
                    s += scalar_sent.get(mid, 0)
                sent_total += s
                hm = r + s
                if hm > h:
                    h = hm
                if w > round_pim_max:
                    round_pim_max = w

        metrics = self.metrics
        metrics.io_time += h
        metrics.rounds += 1
        metrics.messages += incoming_total + sent_total
        metrics.sync_cost += self._log_p
        metrics.pim_time += round_pim_max
        self.tasks_executed += tasks
        if self._trace_rounds:
            self.tracer.log_round(metrics.rounds - 1, h,
                                  incoming_total + sent_total,
                                  round_pim_max, tasks)
        # Return the consumed recv buffer to the pool, zeroed.
        for mid in active:
            recv[mid] = 0
        if self._recv_spare is None:
            self._recv_spare = recv
        return replies

    def _finish_np(self, recv, recv_np, bcast_units, scalar_sent, slots,
                   bwork, bsent, work_np, sent_np, active):
        """Vectorized round accounting (any numpy accumulator present).

        Also flushes the batch work charges into the modules (the
        pure-python branch of ``_columnar_round`` does the same inline).
        The pooled flat lists are only converted when they can hold
        charges: row-delivered tasks imply a non-empty ``active`` set, so
        with ``active`` and ``slots`` both empty a cheap all-zero scan
        decides whether the lists can be skipped entirely (a handler may
        still have walked a column chunk via ``_iter_chunk`` and charged
        the lists directly).
        """
        modules = self.modules
        if active:
            rv = _np.asarray(recv, dtype="int64")
            if recv_np is not None:
                rv = rv + recv_np
        elif recv_np is not None:
            rv = recv_np
        else:
            rv = self._zero_np
        if bcast_units:
            rv = rv + bcast_units
        lists_live = (bool(active) or bool(slots)
                      or any(bsent) or any(bwork))
        if lists_live:
            sv = _np.asarray(bsent, dtype="int64")
            if sent_np is not None:
                sv = sv + sent_np
            if scalar_sent:
                for mid, s in scalar_sent.items():
                    sv[mid] += s
            wv = _np.asarray(bwork, dtype="float64")
            if work_np is not None:
                wv = wv + work_np
        else:
            sv = sent_np
            wv = work_np
        # h: senders are receivers under the execution contract, so the
        # max of rv+sv over all modules IS the max over receiving ones
        # (and an all-quiet round maxes to 0 either way).
        if sv is None:
            h = int(rv.max())
            sent_total = 0
        else:
            h = int((rv + sv).max())
            sent_total = int(sv.sum())
        # Per-module round totals for the PIM-time max: batch charges plus
        # the scalar charges already sitting in round_work.
        if wv is None:
            return h, 0.0, sent_total
        wtot = wv
        if slots:
            wtot = wv.copy()
            for mid in slots:
                wtot[mid] += modules[mid].round_work
        round_pim_max = float(wtot.max())
        # Defer the per-module flush: one vector add per round instead of
        # a python loop over charged modules.  ``wv`` is freshly built
        # (or owned by the round's BatchRound, which forgets it on the
        # next arm), so adopting or mutating it is safe.
        acc = self._work_acc
        if acc is None:
            self._work_acc = wv
        else:
            acc += wv
        return h, round_pim_max, sent_total

    def _flush_work_acc(self) -> None:
        """Fold the deferred batch-work vector into the module objects."""
        acc = self._work_acc
        if acc is None:
            return
        self._work_acc = None
        modules = self.modules
        for mid in _np.nonzero(acc)[0].tolist():
            modules[mid].work += float(acc[mid])

    def _sync_pim_work(self) -> None:
        self._flush_work_acc()
        super()._sync_pim_work()

    # -- drain / pending ----------------------------------------------------

    def drain(self, max_rounds: int = 1_000_000,
              label: Optional[str] = None) -> List[Reply]:
        if self._fallback_reasons:
            return super().drain(max_rounds, label)
        # A fault plan always holds a fallback reason, so chaos-held
        # messages cannot be pending here: the staging queues alone
        # decide quiescence, and rounds run without the step() detour.
        replies: List[Reply] = []
        rounds = 0
        while self._cq or self._fq or self._staged:
            if rounds >= max_rounds:
                raise LivelockError(
                    self._livelock_report(rounds, max_rounds, label))
            replies.extend(self._columnar_round())
            rounds += 1
        return replies

    @property
    def pending(self) -> bool:
        if self._cq or self._fq or self._staged:
            return True
        chaos = self._chaos
        return chaos is not None and chaos.has_pending()

    def _pending_stats(self) -> tuple:
        """Chunk-aware pending diagnostics (same shape as the base)."""
        pending: Dict[int, int] = {}
        by_fn: Dict[str, int] = {}
        for chunks in (self._cq, self._fq):
            for ch in chunks:
                if ch.kind == ROWS:
                    by_fn[ch.fn] = by_fn.get(ch.fn, 0) + len(ch.rows)
                    for dest, _args, _tag, _size in ch.rows:
                        pending[dest] = pending.get(dest, 0) + 1
                elif ch.kind == COLS:
                    by_fn[ch.fn] = by_fn.get(ch.fn, 0) + len(ch.dests)
                    for dest in ch.dests.tolist():
                        pending[dest] = pending.get(dest, 0) + 1
                else:  # BCAST
                    by_fn[ch.fn] = by_fn.get(ch.fn, 0) + self.num_modules
                    for mid in range(self.num_modules):
                        pending[mid] = pending.get(mid, 0) + 1
        if self._staged:
            base_pending, base_by_fn = super()._pending_stats()
            for mid, cnt in base_pending.items():
                pending[mid] = pending.get(mid, 0) + cnt
            for fn, cnt in base_by_fn.items():
                by_fn[fn] = by_fn.get(fn, 0) + cnt
        return dict(sorted(pending.items())), by_fn

    # -- fallback triggers --------------------------------------------------

    def set_profiler(self, profiler: Optional[Any]) -> None:
        super().set_profiler(profiler)
        if self._profiler is not None:
            self._enter_fallback(
                FALLBACK_PROFILER,
                "per-handler wall-time attribution requires per-task "
                "clock reads")
        else:
            self._exit_fallback(FALLBACK_PROFILER)

    def install_fault_plan(self, plan: FaultPlan) -> ChaosState:
        self._enter_fallback(
            FALLBACK_FAULT_PLAN,
            "chaos schedules and reliable delivery rewrite per-"
            "destination queues in place")
        try:
            return super().install_fault_plan(plan)
        except Exception:
            # Plan rejected (e.g. pending delayed messages): restore the
            # columnar path rather than stranding the machine.
            self._exit_fallback(FALLBACK_FAULT_PLAN)
            raise

    def uninstall_fault_plan(self) -> Optional[ChaosState]:
        chaos = super().uninstall_fault_plan()
        self._exit_fallback(FALLBACK_FAULT_PLAN)
        return chaos

    def wipe_module(self, mid: int) -> None:
        super().wipe_module(mid)
        self._ccontexts[mid].reset_replay_guard()
