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

from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.core.node import Node, UPPER
from repro.core.structure import SkipListStructure
from repro.sim.task import Reply


def make_handlers(sl: SkipListStructure) -> None:
    """Register the search walk's batch bodies on ``sl``'s machine.

    ``search_step`` (the hottest function in the whole simulator) walks
    each task's run of locally-available nodes (this module's, plus
    replicated sentinels), then either forwards it to the next owner or
    answers ``"done"`` with its predecessor leaf and that leaf's right
    neighbour.  Work is charged once per run (same total as per-node
    charging).  The walk is read-only over the shared structure,
    order-insensitive and draws no RNG, so it keeps the batch-handler
    execution contract.

    Both bodies read row chunks and column chunks through one loop
    (``bct.flat_rows``), forward a call's continuations as one column
    chunk (``bct.stage_cols``: node, key, opid and record columns) and
    answer in at most two column replies a call, each still charged a
    message a row (see :func:`walk_columns`).
    """
    fn_step = sl.fn_search_step

    def walk(bct, runs, fwd):
        """Walk every task of ``runs`` (iterables of ``(dest, x, key,
        opid, record)`` tuples) from its node ``x``, streaming
        back the levels up to ``record`` and touching every node when
        ``bct.tracing``; forwards join ``fwd`` (the five forward
        columns, or None) and are staged at the end.  The reply and
        forward columns are made on first use: a slot task of the
        reference oracle runs this for one row."""
        work = bct.work
        sent = bct.sent
        tracing = bct.tracing
        # A recording task takes the level-tracking walk, and on a
        # traced machine every task does (``record`` is at least -1):
        # the plain walk checks nothing for tracing.
        floor = -2 if tracing else -1
        f_dest = f_node = f_key = f_opid = f_rec = None
        if fwd is not None:
            f_dest, f_node, f_key, f_opid, f_rec = fwd
        d_src = d_opid = d_pred = d_right = None
        p_src = p_opid = p_node = p_level = p_right = None
        for rows in runs:
            for mid, x, key, opid, record in rows:
                hops = 0
                if record > floor:
                    # A step right stays on the level, a step down is
                    # one level lower: the level is tracked, not re-read
                    # per node.
                    level = x.level
                    while True:
                        hops += 1
                        if tracing:
                            bct.touch(mid, x.nid)
                        r = x.right
                        if level <= record:
                            if p_src is None:
                                p_src, p_opid, p_node, p_level, p_right = \
                                    [], [], [], [], []
                                bct.replies.append(Reply(
                                    ("path", p_opid, p_node, p_level,
                                     p_right), None, p_src))
                            p_src.append(mid)
                            p_opid.append(opid)
                            p_node.append(x)
                            p_level.append(level)
                            p_right.append(r)
                            sent[mid] += 1
                        if r is not None and r.key <= key:
                            nxt = r
                        elif level > 0:
                            nxt = x.down
                            level -= 1
                        else:
                            nxt = None
                            break
                        owner = nxt.owner
                        if owner != UPPER and owner != mid:
                            break
                        x = nxt
                else:
                    # Hot path: the recording-free walk.
                    while True:
                        hops += 1
                        r = x.right
                        if r is not None and r.key <= key:
                            nxt = r
                        elif x.level > 0:
                            nxt = x.down
                        else:
                            nxt = None
                            break
                        owner = nxt.owner
                        if owner != UPPER and owner != mid:
                            break
                        x = nxt
                work[mid] += hops
                sent[mid] += 1
                if nxt is None:
                    if d_src is None:
                        d_src, d_opid, d_pred, d_right = [], [], [], []
                        bct.replies.append(Reply(
                            ("done", d_opid, d_pred, d_right), None, d_src))
                    d_src.append(mid)
                    d_opid.append(opid)
                    d_pred.append(x)
                    d_right.append(r)
                else:
                    if f_dest is None:
                        f_dest, f_node, f_key, f_opid, f_rec = \
                            [], [], [], [], []
                    f_dest.append(owner)
                    f_node.append(nxt)
                    f_key.append(key)
                    f_opid.append(opid)
                    f_rec.append(record)
        if f_dest:
            bct.stage_cols(fn_step, f_dest, (f_node, f_key, f_opid, f_rec))

    def batch_search_step(bct, chunks):
        walk(bct, map(bct.flat_rows, chunks), None)

    def batch_search_entry(bct, chunks):
        # The upper-part descent is local (every node on it is
        # replicated) and touches nothing; a task whose lower-part start
        # is owned elsewhere is forwarded from here, unwalked.
        work = bct.work
        sent = bct.sent
        starts: list = []
        fwd = None
        for ch in chunks:
            for mid, key, opid, record in bct.flat_rows(ch):
                u, steps = sl.upper_descend_steps(key)
                work[mid] += steps
                x = u.down
                owner = x.owner
                if owner == UPPER or owner == mid:
                    starts.append((mid, x, key, opid, record))
                    continue
                sent[mid] += 1
                if fwd is None:
                    fwd = ([], [], [], [], [])
                for col, value in zip(fwd, (owner, x, key, opid, record)):
                    col.append(value)
        walk(bct, (starts,), fwd)

    machine = sl.machine
    machine.register(fn_step, batch_search_step)
    machine.register(sl.fn_search_entry, batch_search_entry)


def walk_columns(replies: Iterable[Reply]) -> Tuple[tuple, tuple]:
    """The one reader of the walk's replies: ``(done, path)``, the
    ``"done"`` columns ``(opids, preds, rights)`` -- each op's
    predecessor leaf and its right neighbour -- and the ``"path"``
    columns ``(opids, nodes, levels, rights)`` -- every streamed-back
    node -- each joined over ``replies`` in order, so an op's path
    nodes keep the order its walk visited them in.

    A body call answers in one column reply per kind (payload: the
    kind, then those columns; ``src``: the replying modules, a row
    each), a row per message the model charges."""
    done: tuple = ([], [], [])
    path: tuple = ([], [], [], [])
    for r in replies:
        kind, *cols = r.payload
        if kind == "done":
            into = done
        elif kind == "path":
            into = path
        else:
            raise ValueError(f"not a reply of the search walk: {r!r}")
        for dst, col in zip(into, cols):
            dst.extend(col)
    return done, path


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
