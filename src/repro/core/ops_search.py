"""The skip-list search walk (shared by Successor/Predecessor/Upsert).

A search for key ``k`` finds the leaf holding the largest key <= ``k``
(the predecessor leaf; the successor is that leaf or its right neighbor).
The upper part is replicated, so the descent from the root to the
upper-part leaf is local on whatever module executes it (``search_entry``)
and costs ``O(log n)`` whp local work.  Entering the lower part, every hop
to a node owned by a different module is a ``TaskSend`` continuation --
one message, one round -- realizing the paper's "push each query one node
further per step" execution; runs of same-module (or replicated sentinel)
nodes are walked locally.

``record`` is the highest level a search streams back to shared memory:
every visited lower-part node at or below it costs one constant-size
message, and ``-1`` records nothing.  Stage 1 of the batched Successor
saves the pivots' whole lower-part paths this way (``record = h_low -
1``); a batched Insert's other searches send only the levels their
operation keeps -- "the last ``l_i`` nodes" of §4.3 -- so nothing is
streamed that the CPU side would drop.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.core.node import Node, UPPER
from repro.core.structure import SkipListStructure
from repro.sim.task import Reply


def make_handlers(sl: SkipListStructure) -> None:
    """Register the search walk's batch bodies on ``sl``'s machine.

    ``search_step`` (the hottest function in the whole simulator) walks
    each task's run of locally-available nodes (this module's, plus
    replicated sentinels), then either forwards it to the next owner or
    replies ``("done", opid, pred_leaf, pred_right)``.  Work is charged
    once per run (same total as per-node charging).  The walk is
    read-only over the shared structure, order-insensitive and draws no
    RNG, so it keeps the batch-handler execution contract.
    """
    fn_step = sl.fn_search_step

    def _walk_batch(bct, mid, x, key, opid, record):
        """Walk one task from ``x``, streaming back the levels up to
        ``record`` and touching every node when ``bct.tracing``;
        returns a forward row or None."""
        replies = bct.replies
        work = bct.work
        sent = bct.sent
        tracing = bct.tracing
        hops = 0
        # A step right stays on the level, a step down is one level
        # lower: the level is tracked, not re-read per node.
        level = x.level
        while True:
            hops += 1
            if tracing:
                bct.touch(mid, x.nid)
            r = x.right
            if level <= record:
                replies.append(Reply(("path", opid, x, level, r), None, mid))
                sent[mid] += 1
            if r is not None and r.key <= key:
                nxt = r
            elif level > 0:
                nxt = x.down
                level -= 1
            else:
                work[mid] += hops
                replies.append(Reply(("done", opid, x, r), None, mid))
                sent[mid] += 1
                return None
            owner = nxt.owner
            if owner == UPPER or owner == mid:
                x = nxt
            else:
                work[mid] += hops
                sent[mid] += 1
                return (owner, (nxt, key, opid, record), None, 1)

    def batch_search_step(bct, chunks):
        work = bct.work
        sent = bct.sent
        rows_of = bct.rows_of
        rep_append = bct.replies.append
        # A recording task takes ``_walk_batch``, and on a traced
        # machine every task does (``record`` is at least -1): the plain
        # walk below checks nothing for tracing.
        floor = -2 if bct.tracing else -1
        out: list = []
        out_append = out.append
        for ch in chunks:
            for mid, args, _tag, _size in rows_of(ch):
                x, key, opid, record = args
                if record > floor:
                    fwd = _walk_batch(bct, mid, x, key, opid, record)
                    if fwd is not None:
                        out_append(fwd)
                    continue
                # Hot path: the recording-free walk, inlined per task.
                hops = 0
                while True:
                    hops += 1
                    r = x.right
                    if r is not None and r.key <= key:
                        nxt = r
                    elif x.level > 0:
                        nxt = x.down
                    else:
                        work[mid] += hops
                        rep_append(Reply(("done", opid, x, r), None, mid))
                        sent[mid] += 1
                        break
                    owner = nxt.owner
                    if owner == UPPER or owner == mid:
                        x = nxt
                    else:
                        work[mid] += hops
                        out_append((owner, (nxt, key, opid, record), None, 1))
                        sent[mid] += 1
                        break
        if out:
            bct.stage_rows(fn_step, out)

    def batch_search_entry(bct, chunks):
        # The upper-part descent is local (every node on it is
        # replicated) and touches nothing.
        work = bct.work
        sent = bct.sent
        rows_of = bct.rows_of
        out: list = []
        out_append = out.append
        for ch in chunks:
            for mid, args, _tag, _size in rows_of(ch):
                key, opid, record = args
                u, steps = sl.upper_descend_steps(key)
                work[mid] += steps
                x = u.down
                if x.owner == UPPER or x.owner == mid:
                    fwd = _walk_batch(bct, mid, x, key, opid, record)
                    if fwd is not None:
                        out_append(fwd)
                else:
                    sent[mid] += 1
                    out_append((x.owner, (x, key, opid, record), None, 1))
        if out:
            bct.stage_rows(fn_step, out)

    machine = sl.machine
    machine.register(fn_step, batch_search_step)
    machine.register(sl.fn_search_entry, batch_search_entry)


def search_message(sl: SkipListStructure, key: Hashable, opid: Any,
                   record: int = -1,
                   start: Optional[Node] = None) -> tuple:
    """Build the message that launches one search: from ``start`` (a
    lower-part hint node) if given, else from the root on a random
    module.  ``record`` is the highest level whose visited nodes are
    streamed back (``-1``: none; ``sl.h_low - 1``: the whole lower-part
    path).

    The destination draw consumes the machine's seeded RNG stream at
    *build* time, so callers must construct messages in launch order.
    The returned tuple is ``send_all`` format, ready to be yielded in a
    route stage (:mod:`repro.ops`).
    """
    if type(record) is not int:
        # ``False`` would compare as level 0 and record every leaf.
        raise TypeError(f"record is a level (-1 for none), not {record!r}")
    machine = sl.machine
    if start is not None:
        dest = start.owner if start.owner != UPPER else machine.random_module()
        return (dest, sl.fn_search_step, (start, key, opid, record), None)
    return (machine.random_module(), sl.fn_search_entry,
            (key, opid, record), None)
