"""RemoteWrite and sentinel-growth handlers shared by Upsert and Delete.

A ``RemoteWrite`` is performed by sending a write task to the module that
owns the target node (paper §3.2).  Writes to replicated nodes (sentinels,
upper-part nodes) are broadcast to every module; the handler's mutation is
idempotent (it stores a fixed value), so replaying it per replica is safe
and each replica's work is charged on its own module.  The simulator
keeps one object per replicated node, so the chunk handler applies a
broadcast write once and charges every module its unit; the scalar
handler (reference oracle, fallbacks) replays it per module.

Writers build their messages with :func:`write_message` and yield them in
a :class:`~repro.ops.BatchOp` route stage; :func:`remote_write` wraps a
single write in its own one-stage op for callers (tests, diagnostics)
that want the write applied immediately.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.core.node import NODE_WORDS, Node, UPPER
from repro.core.structure import SkipListStructure
from repro.ops import BatchOp, Broadcast, cached_handlers, run_batch
from repro.sim.fastpath import BCAST
from repro.sim.task import Reply

_FIELDS = ("left", "right", "up", "down", "local_left", "local_right")
ACK = ("ack",)
"""The acknowledgement payload of every write-path task."""


def make_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    def apply_write(node, field, value):
        if field not in _FIELDS:
            raise ValueError(f"bad pointer field {field!r}")
        setattr(node, field, value)

    def h_write_ptr(ctx, node, field, value, tag=None):
        ctx.charge(1)
        ctx.touch(node.nid)
        apply_write(node, field, value)
        ctx.reply(ACK, tag=tag)

    def batch_write_ptr(bct, chunks):
        # One RemoteWrite per row.  A broadcast write targets a
        # replicated node, which the simulator keeps as ONE object: the
        # mutation stores a fixed value, so it is applied once and every
        # module is charged its replica's unit and sends its own ack.
        work = bct.work
        sent = bct.sent
        rep_append = bct.replies.append
        for ch in chunks:
            if ch.kind == BCAST:
                apply_write(*ch.args)
                tag = ch.tag
                for mid in range(bct.num_modules):
                    work[mid] += 1
                    sent[mid] += 1
                    rep_append(Reply(ACK, tag, mid))
                continue
            for mid, args, tag, _size in bct.rows_of(ch):
                apply_write(*args)
                work[mid] += 1
                sent[mid] += 1
                rep_append(Reply(ACK, tag, mid))

    def h_grow(ctx, target_level, added_levels, tag=None):
        # Idempotent shared mutation; every module charges its replica's
        # share of the new sentinel storage.  Scalar only: the first
        # executor pays the growth's charges, the rest pay none.
        sl.grow_to_level(target_level, ctx.charge)
        ctx.module.alloc_words(added_levels * NODE_WORDS)
        ctx.reply(ACK, tag=tag)

    sl.machine.register_batch(sl.fn_write_ptr, batch_write_ptr)

    return {
        sl.fn_write_ptr: h_write_ptr,
        f"{sl.name}:grow": h_grow,
    }


def handlers_for(sl: SkipListStructure) -> Dict[str, Any]:
    """The write/grow handler dict, created once per structure."""
    return cached_handlers(sl, "write", lambda: make_handlers(sl))


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


class _RemoteWriteOp(BatchOp):
    def __init__(self, sl: SkipListStructure) -> None:
        self.sl = sl
        self.name = f"{sl.name}:remote_write"

    def handlers(self):
        return handlers_for(self.sl)

    def route(self, machine, plan):
        node, field, value = plan
        yield [write_message(self.sl, node, field, value)]


def remote_write(sl: SkipListStructure, node: Node, field: str,
                 value: Optional[Node]) -> None:
    """Apply one RemoteWrite of ``node.field = value`` (issue + drain)."""
    run_batch(sl.machine, _RemoteWriteOp(sl), (node, field, value))
