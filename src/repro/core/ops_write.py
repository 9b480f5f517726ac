"""RemoteWrite and sentinel-growth handlers shared by Upsert and Delete.

A ``RemoteWrite`` is performed by sending a write task to the module that
owns the target node (paper §3.2).  Writes to replicated nodes (sentinels,
upper-part nodes) are broadcast to every module; the handler's mutation is
idempotent (it stores a fixed value), so replaying it per replica is safe
and each replica's work is charged on its own module.  The simulator
keeps one object per replicated node, so the batch body applies a
broadcast write once and charges every module its unit; where the
broadcast arrives as rows (the reference oracle's slot tasks, a fault
plan's envelopes) each module's row replays it.

No write-path task replies: the round's barrier is what tells the CPU
side a write has landed (DESIGN.md §19), so a write is one message in
its round's h-relation.

A batch's writers collect their writes as three parallel lists (node,
field, value) and hand them to :func:`write_stage`, which builds the
route stage: the writes to owned nodes as :class:`~repro.ops.Columns`,
each write to a replicated node as a :class:`~repro.ops.Broadcast`.
:func:`write_message` builds a single write's stage element, and
:func:`remote_write` wraps one in its own one-stage op for callers
(tests, diagnostics) that want the write applied immediately.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.core.node import NODE_WORDS, Node, UPPER
from repro.core.structure import SkipListStructure
from repro.ops import Broadcast, Columns, run_batch
from repro.sim.fastpath import BCAST, COLS

_FIELDS = frozenset(("left", "right", "up", "down", "local_left",
                     "local_right"))


def _check_fields(fields: Iterable[str]) -> None:
    """Reject a bad pointer field before any write it travels with is
    applied."""
    if not _FIELDS.issuperset(fields):
        bad = next(f for f in fields if f not in _FIELDS)
        raise ValueError(f"bad pointer field {bad!r}")


def make_handlers(sl: SkipListStructure) -> None:
    def batch_write_ptr(bct, chunks):
        # One RemoteWrite per row.  A broadcast write targets a
        # replicated node, which the simulator keeps as ONE object: the
        # mutation stores a fixed value, so it is applied once and every
        # module is charged (and touches) its replica's unit.  The
        # round's fields are checked before its first write, so a bad
        # one cannot leave the structure half-written.
        for ch in chunks:
            if ch.kind == COLS:
                _check_fields(ch.cols[1])
            elif ch.kind == BCAST:
                _check_fields((ch.args[1],))
            else:
                _check_fields([args[1] for _mid, args, _tag, _size
                               in ch.rows])
        work = bct.work
        tracing = bct.tracing
        for ch in chunks:
            if ch.kind == COLS:
                # Every module's unit of work per write is the count of
                # the destinations the engine took at issue time.
                for node, field, value in zip(*ch.cols):
                    setattr(node, field, value)
                for mid, k in ch.counts.items():
                    work[mid] += k
                if tracing:
                    for mid, node in zip(ch.dests, ch.cols[0]):
                        bct.touch(mid, node.nid)
            elif ch.kind == BCAST:
                setattr(*ch.args)
                for mid in range(bct.num_modules):
                    work[mid] += 1
                    if tracing:
                        bct.touch(mid, ch.args[0].nid)
            else:
                for mid, args, _tag, _size in ch.rows:
                    setattr(*args)
                    work[mid] += 1
                    if tracing:
                        bct.touch(mid, args[0].nid)

    def batch_grow(bct, chunks):
        # Idempotent shared mutation; every module charges its replica's
        # share of the new sentinel storage.  The first executor pays the
        # growth's charges, the rest pay none: rows run in slot order, so
        # the first is the oracle's.
        modules = bct.machine.modules
        work = bct.work
        mid = 0

        def charge(w):  # reads ``mid`` when called: the row's module
            work[mid] += w

        for mid, (target_level, added_levels), _tag, _size in \
                bct.rows_in_slot_order(chunks):
            sl.grow_to_level(target_level, charge)
            modules[mid].alloc_words(added_levels * NODE_WORDS)

    sl.machine.register(sl.fn_write_ptr, batch_write_ptr)
    sl.machine.register(f"{sl.name}:grow", batch_grow)


def write_message(sl: SkipListStructure, node: Node, field: str,
                  value: Optional[Node]) -> Union[tuple, Broadcast]:
    """Build the RemoteWrite of ``node.field = value`` as a stage element.

    Owned nodes get one message to their owner; replicated nodes get a
    broadcast (one message per module, an h=1 relation contribution each).
    """
    fn = sl.fn_write_ptr
    if node.owner == UPPER:
        return Broadcast(fn, (node, field, value))
    return (node.owner, fn, (node, field, value), None)


def write_stage(sl: SkipListStructure, nodes: List[Node], fields: List[str],
                values: List[Optional[Node]]) -> list:
    """The route stage of the RemoteWrites ``nodes[i].fields[i] =
    values[i]``, in order: every run of writes to owned nodes is one
    :class:`~repro.ops.Columns` element, every write to a replicated
    node (a lower-level sentinel: a handful per batch) a
    :class:`~repro.ops.Broadcast` in its place."""
    fn = sl.fn_write_ptr
    owners = [node.owner for node in nodes]
    stage: list = []
    lo, n = 0, len(owners)
    while lo < n:
        try:
            hi = owners.index(UPPER, lo)
        except ValueError:
            hi = n
        if hi > lo:
            stage.append(Columns(fn, owners[lo:hi], (
                nodes[lo:hi], fields[lo:hi], values[lo:hi])))
        if hi < n:
            stage.append(Broadcast(fn, (nodes[hi], fields[hi], values[hi])))
        lo = hi + 1
    return stage


def _remote_write_route(sl, node, field, value):
    yield [write_message(sl, node, field, value)]


def remote_write(sl: SkipListStructure, node: Node, field: str,
                 value: Optional[Node]) -> None:
    """Apply one RemoteWrite of ``node.field = value`` (issue + drain)."""
    run_batch(sl.machine, f"{sl.name}:remote_write",
              _remote_write_route(sl, node, field, value))
