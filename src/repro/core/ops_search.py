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

When ``record`` is set, every visited lower-part node is streamed back to
shared memory (one constant-size message per node), which is how stage 1
of the batched Successor saves the pivots' lower-part search paths.

Vectorized wavefront (arena storage)
------------------------------------
With the arena storage backend (:mod:`repro.core.storage`) the structure
is additionally held as flat index-addressed arrays, and the per-round
batch kernels below advance the *whole* frontier of in-flight searches
with numpy gathers instead of per-task Python pointer chasing: one
``right[cur]`` / ``key_i64[right]`` gather and one compare per wavefront
step replaces one Python loop iteration per task.  Searches that cross
to another module are re-staged as *column* chunks
(``BatchRound.stage_cols``) -- arena row index, int64 target and integer
opid -- so an in-flight search stays array-shaped from round to round
and only touches Python when it finishes (one ``done`` reply per op).

Rows that cannot vectorize (path recording, non-int64 keys or opids,
nodes not arena-resident) fall back to the scalar per-row loop;
accounting (work, message counts, rounds) is charged identically on both
paths, so the metric streams stay bit-identical across storages
-- certified by ``repro.verify.differ``'s cross-storage replay.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

import numpy as _np

from repro.core.node import Node, UPPER
from repro.core.probes import ABOVE_ALL, AboveAll, BELOW_ALL, BelowAll
from repro.core.storage import I64_MAX, I64_MIN
from repro.core.structure import SkipListStructure
from repro.ops import cached_handlers
from repro.sim.fastpath import COLS
from repro.sim.task import Reply

VEC_MIN = 16
"""Minimum vector-eligible rows per round before the numpy path engages
(below this the per-row Python loop wins on setup cost)."""


def _target_i64(key: Any) -> Optional[int]:
    """Map a search target onto the arena's int64 key order, or None.

    Plain ints strictly inside the int64 range compare identically in
    either representation.  ``BELOW_ALL`` maps to int64-min: no stored
    non-sentinel key compares <= it, and sentinels never appear as
    right-targets.  ``ABOVE_ALL`` maps to int64-max: every stored key
    compares <= it (stored keys are strictly inside the range, else the
    arena reports ``vector_ok == False``).  Everything else -- JustBelow
    probes, tuples, strings -- walks the scalar path.
    """
    if type(key) is int and I64_MIN < key < I64_MAX:
        return key
    if isinstance(key, BelowAll):
        return I64_MIN
    if isinstance(key, AboveAll):
        return I64_MAX
    return None


def _key_from_i64(t: int) -> Any:
    """Invert :func:`_target_i64` (column rows falling back to scalar)."""
    if t == I64_MIN:
        return BELOW_ALL
    if t == I64_MAX:
        return ABOVE_ALL
    return t


def make_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    """PIM-side handlers for the search walk on ``sl``.

    ``lower_walk`` is registered directly as the ``search_step`` handler
    (the hottest function in the whole simulator): it walks the run of
    locally-available nodes (this module's, plus replicated sentinels),
    then either forwards to the next owner or replies
    ``("done", opid, pred_leaf, pred_right)``.  Work is charged once per
    run (same total as per-node charging) and per-node touches are
    skipped entirely when neither tracing nor qrqw needs them.
    """
    fn_step = sl.fn_search_step

    def lower_walk(ctx, x, key, opid, record, tag=None):
        hops = 0
        tracing = ctx.tracing
        while True:
            hops += 1
            if tracing:
                ctx.touch(x.nid)
            if record:
                ctx.reply(("path", opid, x, x.level, x.right), size=1)
            r = x.right
            if r is not None and r.key <= key:
                nxt = r
            elif x.level > 0:
                nxt = x.down
            else:
                module = ctx.module
                module.work += hops
                module.round_work += hops
                # Inlined ctx.reply: the "done" reply ends every search.
                ctx._replies.append(Reply(("done", opid, x, r),
                                          None, ctx.mid))
                ctx._sent_size += 1
                return
            owner = nxt.owner
            if owner == UPPER or owner == ctx.mid:
                x = nxt
            else:
                module = ctx.module
                module.work += hops
                module.round_work += hops
                # ctx.forward(owner, fn_step, ...) inlined, staged
                # directly into the destination's slot: the continuation
                # handler is this function and the destination comes
                # from the placement hash, so the per-hop registry lookup
                # and bounds check are skipped.  (This scalar walk only
                # runs for search steps that are themselves in slots --
                # a scalar fallback, the reference oracle -- and a slot
                # entry always runs scalar, so the chain stays in slots.)
                staged = ctx.machine._staged
                entry = (lower_walk, (nxt, key, opid, record), None, fn_step)
                slot = staged.get(owner)
                if slot is None:
                    staged[owner] = [1, [], [entry]]
                else:
                    slot[0] += 1
                    slot[2].append(entry)
                ctx._sent_size += 1
                return

    def h_search_entry(ctx, key, opid, record, tag=None):
        # Upper-part descent is local: all touched nodes are replicated.
        u = sl.upper_descend(key, ctx.charge)
        x = u.down  # first lower-part node on the path
        if x.owner == UPPER or x.owner == ctx.mid:
            lower_walk(ctx, x, key, opid, record)
        else:
            ctx.forward(x.owner, fn_step, (x, key, opid, record))

    # -- batch variants (array-native rounds) -----------------------------
    #
    # One call per round over all of the round's search tasks, mirroring
    # the scalar handlers' charges/replies/forwards exactly.  The walk is
    # read-only over the shared structure, order-insensitive and draws no
    # RNG, so it satisfies the batch-handler execution contract (certified
    # bit-identical by repro.verify.differ).  Inert during a scalar
    # fallback and on the reference oracle.

    def _walk_batch(bct, mid, x, key, opid, record, hops):
        """Walk one task from ``x``; returns a forward row or None.

        ``hops`` pre-counts nodes already attributed (0 for a step task).
        Work/sent/reply accounting mirrors ``lower_walk`` exactly.
        """
        replies = bct.replies
        work = bct.work
        sent = bct.sent
        while True:
            hops += 1
            if record:
                replies.append(Reply(("path", opid, x, x.level, x.right),
                                     None, mid))
                sent[mid] += 1
            r = x.right
            if r is not None and r.key <= key:
                nxt = r
            elif x.level > 0:
                nxt = x.down
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

    def _scalar_step_rows(bct, rows, out_append):
        """The per-row walk over a list of step rows (object-path hot
        loop, and the fallback for rows the vector walk cannot take)."""
        work = bct.work
        sent = bct.sent
        rep_append = bct.replies.append
        for mid, args, _tag, _size in rows:
            x, key, opid, record = args
            if record:
                fwd = _walk_batch(bct, mid, x, key, opid, record, 0)
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

    def _cols_to_rows(arena, ch):
        """Reconstruct scalar step rows from one of our column chunks
        (fallback when a round is too small to vectorize)."""
        nodes = arena.nodes
        return [(mid, (nodes[aid], _key_from_i64(tgt), opid, False),
                 None, 1)
                for mid, aid, tgt, opid in zip(ch.dests.tolist(),
                                               ch.cols[0].tolist(),
                                               ch.cols[1].tolist(),
                                               ch.cols[2].tolist())]

    def _vector_lower(bct, arena, work_acc, sent_acc, fwd_parts,
                      mids, aids, tgts, opids):
        """Advance a whole wavefront of recording-free lower walks.

        Arrays are parallel per in-flight row: ``mids`` the executing
        module, ``aids`` the current arena row, ``tgts`` the int64
        search target, ``opids`` the integer opid.  Each loop iteration
        is one synchronized step of every row: gather the
        right-successor, compare against the target, go right / go down
        / finish -- exactly the per-row scalar automaton, so per-module
        work and message counts land identically.  Every row enters
        with zero hops and all rows advance in lockstep, so the per-row
        hop count is one uniform scalar.  Rows crossing to another
        module accumulate into ``fwd_parts`` (staged as one column chunk
        by the caller); only finished rows touch Python.
        """
        rep_append = bct.replies.append
        nodes = arena.nodes
        right = arena.right
        down = arena.down
        level = arena.level
        owner = arena.owner
        key_i64 = arena.key_i64
        where = _np.where
        bincount = _np.bincount
        P = bct.num_modules
        hops = 0
        while mids.size:
            hops += 1
            r = right[aids]
            # Absent successors are -1: the wrapped gather reads a valid
            # row, and every lane it feeds is masked off by ``r >= 0``
            # (or by ``~done`` for the owner gather below).
            go = (r >= 0) & (key_i64[r] <= tgts)
            done = ~go & (level[aids] == 0)
            nxt = where(go, r, down[aids])
            own = owner[nxt]
            cross = ~done & (own != UPPER) & (own != mids)
            fin = done | cross
            if fin.any():
                cnt = bincount(mids[fin], minlength=P)
                work_acc += cnt * float(hops)
                sent_acc += cnt
                if done.any():
                    for m, o, a, ri in zip(mids[done].tolist(),
                                           opids[done].tolist(),
                                           aids[done].tolist(),
                                           r[done].tolist()):
                        rep_append(Reply(
                            ("done", o, nodes[a],
                             nodes[ri] if ri >= 0 else None), None, m))
                if cross.any():
                    fwd_parts.append((own[cross], nxt[cross], tgts[cross],
                                      opids[cross]))
                keep = ~fin
                aids = nxt[keep]
                mids = mids[keep]
                tgts = tgts[keep]
                opids = opids[keep]
            else:
                aids = nxt

    def _stage_fwd_parts(bct, fwd_parts):
        if not fwd_parts:
            return
        if len(fwd_parts) == 1:
            d, a, t, o = fwd_parts[0]
        else:
            d = _np.concatenate([p[0] for p in fwd_parts])
            a = _np.concatenate([p[1] for p in fwd_parts])
            t = _np.concatenate([p[2] for p in fwd_parts])
            o = _np.concatenate([p[3] for p in fwd_parts])
        bct.stage_cols(fn_step, d, (a, t, o), 1)

    def batch_search_step(bct, chunks):
        out: list = []
        out_append = out.append
        arena = sl.storage.arena
        vec_ready = arena is not None and arena.vector_ok
        col_parts: list = []   # (dests, aids, tgts, opids) from COLS chunks
        scal: list = []
        vec: list = []
        vtgt: list = []
        for ch in chunks:
            if ch.kind == COLS:
                # One of our own column chunks from the previous round.
                if vec_ready:
                    col_parts.append((ch.dests, ch.cols[0], ch.cols[1],
                                      ch.cols[2]))
                else:  # pragma: no cover - storage cannot change mid-op
                    scal.extend(_cols_to_rows(arena, ch))
                continue
            rows = bct.rows_of(ch)
            if not vec_ready:
                scal.extend(rows)
                continue
            for row in rows:
                x, key, opid, record = row[1]
                t = None
                if not record and x.aid >= 0 and type(opid) is int:
                    t = _target_i64(key)
                if t is None:
                    scal.append(row)
                else:
                    vec.append(row)
                    vtgt.append(t)
        if not col_parts and len(vec) < VEC_MIN:
            scal.extend(vec)
            vec = []
        if scal:
            _scalar_step_rows(bct, scal, out_append)
        if vec or col_parts:
            if vec:
                n = len(vec)
                col_parts.append((
                    _np.fromiter((r[0] for r in vec), _np.int64, n),
                    _np.fromiter((r[1][0].aid for r in vec), _np.int64, n),
                    _np.array(vtgt, _np.int64),
                    _np.fromiter((r[1][2] for r in vec), _np.int64, n)))
            if len(col_parts) == 1:
                mids, aids, tgts, opids = col_parts[0]
            else:
                mids = _np.concatenate([p[0] for p in col_parts])
                aids = _np.concatenate([p[1] for p in col_parts])
                tgts = _np.concatenate([p[2] for p in col_parts])
                opids = _np.concatenate([p[3] for p in col_parts])
            work_acc = _np.zeros(bct.num_modules, _np.float64)
            sent_acc = _np.zeros(bct.num_modules, _np.int64)
            fwd_parts: list = []
            _vector_lower(bct, arena, work_acc, sent_acc, fwd_parts,
                          mids, aids, tgts, opids)
            bct.add_work_array(work_acc)
            bct.add_sent_array(sent_acc)
            _stage_fwd_parts(bct, fwd_parts)
        if out:
            bct.stage_rows(fn_step, out)

    def _scalar_entry_rows(bct, rows, out_append):
        work = bct.work
        sent = bct.sent
        for mid, args, _tag, _size in rows:
            key, opid, record = args
            u, steps = sl.upper_descend_steps(key)
            work[mid] += steps
            x = u.down
            if x.owner == UPPER or x.owner == mid:
                fwd = _walk_batch(bct, mid, x, key, opid, record, 0)
                if fwd is not None:
                    out_append(fwd)
            else:
                sent[mid] += 1
                out_append((x.owner, (x, key, opid, record), None, 1))

    def batch_search_entry(bct, chunks):
        out: list = []
        out_append = out.append
        arena = sl.storage.arena
        root = sl.root
        use_vec = (arena is not None and arena.vector_ok
                   and sl.h_low >= 1 and root.aid >= 0)
        scal: list = []
        vec: list = []
        vtgt: list = []
        for ch in chunks:
            rows = bct.rows_of(ch)
            if not use_vec:
                scal.extend(rows)
                continue
            for row in rows:
                key, opid, record = row[1]
                t = None
                if not record and type(opid) is int:
                    t = _target_i64(key)
                if t is None:
                    scal.append(row)
                else:
                    vec.append(row)
                    vtgt.append(t)
        if len(vec) < VEC_MIN:
            scal.extend(vec)
            vec = []
        if scal:
            _scalar_entry_rows(bct, scal, out_append)
        if vec:
            n = len(vec)
            right = arena.right
            down = arena.down
            level = arena.level
            owner = arena.owner
            key_i64 = arena.key_i64
            where = _np.where
            bincount = _np.bincount
            P = bct.num_modules
            h_low = sl.h_low
            mids = _np.fromiter((r[0] for r in vec), _np.int64, n)
            tgts = _np.array(vtgt, _np.int64)
            opids = _np.fromiter((r[1][1] for r in vec), _np.int64, n)
            cur = _np.full(n, root.aid, _np.int64)
            # The descent's initial charge; right/down steps add 1 each,
            # the h_low exit is free -- exactly upper_descend's charges.
            # Every row starts at the root and steps in lockstep, so the
            # accumulated charge is one uniform scalar.
            wch = 1.0
            work_acc = _np.zeros(P, _np.float64)
            sent_acc = _np.zeros(P, _np.int64)
            fwd_parts: list = []
            low_parts: list = []
            while cur.size:
                r = right[cur]
                # -1 gathers wrap to a valid row; masked off by r >= 0.
                go = (r >= 0) & (key_i64[r] <= tgts)
                exit_ = ~go & (level[cur] == h_low)
                nxt = where(go, r, down[cur])
                if exit_.any():
                    em = mids[exit_]
                    work_acc += bincount(em, minlength=P) * wch
                    xd = nxt[exit_]  # the upper leaf's down pointer
                    xt = tgts[exit_]
                    xi = opids[exit_]
                    xo = owner[xd]
                    local = (xo == UPPER) | (xo == em)
                    if local.any():
                        low_parts.append((em[local], xd[local],
                                          xt[local], xi[local]))
                    if not local.all():
                        rem = ~local
                        sent_acc += bincount(em[rem], minlength=P)
                        fwd_parts.append((xo[rem], xd[rem],
                                          xt[rem], xi[rem]))
                    keep = ~exit_
                    cur = nxt[keep]
                    mids = mids[keep]
                    tgts = tgts[keep]
                    opids = opids[keep]
                else:
                    cur = nxt
                wch += 1.0
            if low_parts:
                if len(low_parts) == 1:
                    lm, la, lt, lo = low_parts[0]
                else:
                    lm = _np.concatenate([p[0] for p in low_parts])
                    la = _np.concatenate([p[1] for p in low_parts])
                    lt = _np.concatenate([p[2] for p in low_parts])
                    lo = _np.concatenate([p[3] for p in low_parts])
                _vector_lower(bct, arena, work_acc, sent_acc, fwd_parts,
                              lm, la, lt, lo)
            bct.add_work_array(work_acc)
            bct.add_sent_array(sent_acc)
            _stage_fwd_parts(bct, fwd_parts)
        if out:
            bct.stage_rows(fn_step, out)

    machine = sl.machine
    machine.register_batch(fn_step, batch_search_step)
    machine.register_batch(sl.fn_search_entry, batch_search_entry)

    return {
        sl.fn_search_entry: h_search_entry,
        fn_step: lower_walk,
    }


def handlers_for(sl: SkipListStructure) -> Dict[str, Any]:
    """The search-walk handler dict, created once per structure."""
    return cached_handlers(sl, "search", lambda: make_handlers(sl))


def search_message(sl: SkipListStructure, key: Hashable, opid: Any,
                   record: bool = False,
                   start: Optional[Node] = None) -> tuple:
    """Build the message that launches one search: from ``start`` (a
    lower-part hint node) if given, else from the root on a random
    module.

    The destination draw consumes the machine's seeded RNG stream at
    *build* time, so callers must construct messages in launch order.
    The returned tuple is ``send_all`` format, ready to be yielded in a
    :class:`~repro.ops.BatchOp` route stage.
    """
    machine = sl.machine
    if start is not None:
        dest = start.owner if start.owner != UPPER else machine.random_module()
        return (dest, sl.fn_search_step, (start, key, opid, record), None)
    return (machine.random_module(), sl.fn_search_entry,
            (key, opid, record), None)
