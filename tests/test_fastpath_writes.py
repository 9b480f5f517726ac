"""Parity of the chunked write path and point ops with the oracle.

``write_ptr``, ``pt_get``, ``pt_update``, ``ups_try_update``,
``ups_insert_lower``, ``ups_upper_prepare``, ``del_mark`` and
``del_mark_node`` run as batch handlers on the engine
(:class:`~repro.sim.machine.PIMMachine`) and as per-task handlers on
:class:`~repro.sim.machine.ReferencePIMMachine`.  Each test drives the
same messages into one skip list on each, steps both in lockstep, and
requires, round by round, equal replies (as multisets), per-module
work, ``h``, messages and next-round staging.

A batch's RemoteWrites cross the ``repro.ops`` boundary as a
:class:`~repro.ops.Columns` stage element, which the driver turns into a
column chunk on the engine and into the rows it stands for on the
oracle.  ``TestWriteColumns`` holds the two forms to each other --
alone, beside a broadcast write, under a fault plan -- and a
Hypothesis property replays fuzzed Upsert / Delete sessions through the
shipped driver and through a rows-only one kept here as the spec.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.node import Node
from repro.core.ops_range import _cut_pieces
from repro.core.ops_search import search_message, walk_columns
from repro.core.ops_successor import rides
from repro.core.ops_upsert import _build_towers
from repro.core.ops_write import write_message, write_stage
from repro.ops import Broadcast, Columns, pipeline, run_batch
from repro.ops.pipeline import COLUMNS_CROSSOVER, _issue
from repro.sim.chaos import FaultPlan, FaultSpec, build_schedule
from repro.sim.errors import MalformedMessageError
from repro.sim.fastpath import BCAST, COLS, ROWS
from repro.sim.task import reply_rows
from repro.workloads import build_items
from tests.conftest import DETERMINISTIC, ENGINES
from tests.test_fastpath import (
    _assert_install_refused,
    _record_slots,
    _staging,
)

P = 8
STRIDE = 1000


@pytest.fixture
def pair():
    """The same 200-key skip list on the oracle and on the engine."""
    lists = []
    for engine in ("object", "columnar"):
        machine = ENGINES[engine](num_modules=P, seed=42, trace_rounds=True)
        sl = PIMSkipList(machine)
        sl.build(build_items(200, stride=STRIDE))
        lists.append(sl)
    assert lists[1].machine.columnar_active
    return lists


def _norm(x):
    """Nodes are distinct objects on the two sides: compare them by
    (key, level), through any nesting of tuples."""
    if isinstance(x, Node):
        return ("node", repr(x.key), x.level)
    if isinstance(x, (tuple, list)):
        return tuple(_norm(e) for e in x)
    return x


def _replies(replies):
    """Each reply as comparable ``(src, tag, payload)`` rows: a column
    reply expands into the rows it holds (``reply_rows``), the tag as
    its repr and the payload normalised."""
    return [(src, repr(tag), _norm(payload))
            for src, tag, payload in reply_rows(replies)]


def _norm_staging(machine):
    return _staging(machine, norm=_norm)


def _lockstep(obj, col, ordered=False):
    """Step both machines to quiescence, comparing every round; returns
    the number of rounds.  ``ordered`` also requires the engine's reply
    *stream* to equal the oracle's, element for element."""
    rounds = 0
    while obj.pending or col.pending:
        assert _norm_staging(obj) == _norm_staging(col)
        got_obj, got_col = _replies(obj.step()), _replies(col.step())
        if ordered:
            assert got_obj == got_col
        assert sorted(got_obj) == sorted(got_col)
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()
        assert ([m.work for m in obj.modules]
                == [m.work for m in col.modules])
        assert ([m.words_used for m in obj.modules]
                == [m.words_used for m in col.modules])
        assert obj.tracer.rounds[-1] == col.tracer.rounds[-1]
        rounds += 1
    assert col.columnar_active
    assert obj.tasks_executed == col.tasks_executed
    return rounds


def _chunked_fns(machine):
    return {ch.fn for q in (machine._cq, machine._fq) for ch in q}


def _upper_node_with_two_successors(s):
    for u in s.iter_level(s.h_low):
        if u.right is not None and u.right.right is not None:
            return u
    raise AssertionError("fixture too small: no upper run of three")


class TestWritePtr:
    def _writes(self, sl):
        """Row writes to owned leaves plus one broadcast write to an
        upper node: each splices the target's right neighbour out."""
        s = sl.struct
        u = _upper_node_with_two_successors(s)
        leaves = list(s.iter_level(0))[10:40:3]
        targets = leaves + [u]
        return targets, [write_message(s, n, "right", n.right.right)
                         for n in targets]

    def test_rows_and_broadcast_to_upper_node(self, pair):
        """(a): the broadcast write runs once, charges P units, sends P
        acks."""
        want = []
        for sl in pair:
            targets, msgs = self._writes(sl)
            want.append([(n, n.right.right) for n in targets])
            _issue(sl.machine, msgs)
        obj, col = (sl.machine for sl in pair)
        assert {ch.kind for ch in col._cq} == {ROWS, BCAST}
        before = col.tasks_chunked
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked - before == len(want[1]) - 1 + P
        for sl, writes in zip(pair, want):
            for node, value in writes:
                assert node.right is value

    def test_mixed_with_scalar_upper_link(self, pair):
        """(b): one round with ``write_ptr`` and ``ups_upper_link``, both
        chunked: the link runs its rows in slot order, so its first
        executor pays the descent, as on the oracle."""
        for sl in pair:
            s = sl.struct
            _targets, msgs = self._writes(sl)
            node = s.make_upper_node(55 * STRIDE + 1, s.h_low)
            _issue(sl.machine, msgs)
            sl.machine.broadcast(f"{s.name}:ups_upper_link", (node,))
        obj, col = (sl.machine for sl in pair)
        assert col._cq
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked == col.tasks_executed

    def test_fault_plan_refused_with_write_chunks_pending(self, pair):
        """(d): installing a fault plan with write rows and a broadcast
        write pending raises and moves nothing; the round then runs
        chunked and equals the oracle's."""
        for sl in pair:
            _issue(sl.machine, self._writes(sl)[1])
        obj, col = (sl.machine for sl in pair)
        _assert_install_refused(col, norm=_norm)
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked > 0

    def test_bad_field_rejected_in_the_chunk_loop(self, pair):
        """A bad field in the last write of a chunk -- a row chunk, then
        a column chunk -- raises with no pointer moved: the fields are
        checked before the first write, not inside the loop that
        applies them."""
        sl = pair[1]
        s, machine = sl.struct, sl.machine
        nodes = list(s.iter_level(0))[:6]
        fields = ["right"] * 5 + ["key"]
        values = [None] * 6
        pointers = [(n.left, n.right, n.key) for n in nodes]
        for kind in (ROWS, COLS):
            if kind == ROWS:
                machine.send_all((n.owner, s.fn_write_ptr, (n, f, v), None)
                                 for n, f, v in zip(nodes, fields, values))
            else:
                machine.send_cols(s.fn_write_ptr, [n.owner for n in nodes],
                                  (nodes, fields, values))
            assert [ch.kind for ch in machine._cq] == [kind]
            with pytest.raises(ValueError, match="bad pointer field 'key'"):
                machine.step()
            assert [(n.left, n.right, n.key) for n in nodes] == pointers


def _rows_of_stage(stage):
    """A stage with every :class:`Columns` element spelled out as the
    ``send_all`` rows it stands for, in place."""
    return [row for item in stage
            for row in (item.rows() if item.__class__ is Columns
                        else (item,))]


def _rows_only_issue(machine, stage):
    """The driver's issue step as it was before ``Columns`` existed
    (PR 20's ``_issue``, verbatim) over :func:`_rows_of_stage`: the
    executable spec of what a column element must amount to."""
    if stage is None:
        return
    run = []
    for item in _rows_of_stage(stage):
        if item.__class__ is Broadcast:
            if run:
                machine.send_all(run)
                run = []
            machine.broadcast(item.fn, item.args, item.tag, item.size)
        else:
            run.append(item)
    if run:
        machine.send_all(run)


def _stage_route(stage):
    """Issues one prebuilt stage and returns its replies."""
    return (yield stage)


class TestWriteColumns:
    N = 2 * COLUMNS_CROSSOVER

    def _stage(self, sl, with_broadcast=False):
        """``N`` writes to owned leaves -- each splices its right
        neighbour out -- as one stage, a broadcast write to an upper
        node in the middle of it if asked; returns ``(stage, [(node,
        value written)])``."""
        s = sl.struct
        targets = list(s.iter_level(0))[5:5 + 2 * self.N:2]
        if with_broadcast:
            targets.insert(self.N // 2, _upper_node_with_two_successors(s))
        writes = [(n, n.right.right) for n in targets]
        stage = write_stage(s, targets, ["right"] * len(targets),
                            [value for _n, value in writes])
        return stage, writes

    @staticmethod
    def _assert_written(*written):
        for writes in written:
            for node, value in writes:
                assert node.right is value

    @pytest.mark.parametrize("with_broadcast", [False, True])
    def test_columns_on_the_engine_rows_on_the_oracle(self, pair,
                                                      with_broadcast):
        """One stage, issued by the driver on both machines: a column
        chunk (two around the broadcast, order kept) on each, run as
        one on the engine and unstaged at round time into the rows it
        stands for on the oracle; one round, equal in every count."""
        written = []
        for sl in pair:
            stage, writes = self._stage(sl, with_broadcast)
            written.append(writes)
            _issue(sl.machine, stage)
        obj, col = (sl.machine for sl in pair)
        assert [ch.kind for ch in col._cq] == (
            [COLS, BCAST, COLS] if with_broadcast else [COLS])
        assert [ch.kind for ch in obj._cq] == [ch.kind for ch in col._cq]
        slots = _record_slots(obj)
        before = col.tasks_chunked
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked - before == self.N + P * with_broadcast
        assert len(slots) == 1 and len(slots[0]) == P
        assert sum(len(slot[1]) for slot in slots[0].values()) \
            == self.N + P * with_broadcast
        self._assert_written(*written)

    @pytest.mark.parametrize("with_broadcast", [False, True])
    def test_columns_equal_rows_on_the_engine(self, with_broadcast):
        """The same writes as a column element and as rows, both on the
        engine: one round with equal replies, work, ``h`` and messages."""
        lists = []
        for form in ("rows", "columns"):
            sl = PIMSkipList(PIMMachine(num_modules=P, seed=42,
                                        trace_rounds=True))
            sl.build(build_items(200, stride=STRIDE))
            stage, writes = self._stage(sl, with_broadcast)
            _issue(sl.machine,
                   _rows_of_stage(stage) if form == "rows" else stage)
            lists.append((sl, writes))
        rows, cols = (sl.machine for sl, _writes in lists)
        assert {ch.kind for ch in rows._cq} <= {ROWS, BCAST}
        assert COLS in {ch.kind for ch in cols._cq}
        assert _norm_staging(rows) == _norm_staging(cols)
        assert sorted(_replies(rows.step())) == sorted(_replies(cols.step()))
        assert not rows.pending and not cols.pending
        assert rows.snapshot().as_dict() == cols.snapshot().as_dict()
        assert ([m.work for m in rows.modules]
                == [m.work for m in cols.modules])
        assert rows.tracer.rounds[-1] == cols.tracer.rounds[-1]
        assert rows.tasks_chunked == cols.tasks_chunked
        self._assert_written(*(writes for _sl, writes in lists))

    def test_short_element_is_issued_as_rows(self, pair):
        """Under the crossover a column chunk's fixed cost is not paid."""
        sl = pair[1]
        s = sl.struct
        nodes = list(s.iter_level(0))[:COLUMNS_CROSSOVER - 1]
        _issue(sl.machine, write_stage(s, nodes, ["right"] * len(nodes),
                                       [n.right for n in nodes]))
        assert [ch.kind for ch in sl.machine._cq] == [ROWS]

    def test_fault_plan_refused_with_a_column_chunk_pending(self, pair):
        """Installing a fault plan with a column chunk pending (and the
        rows it stands for in the oracle's slots) raises and moves
        nothing on either machine; the round then equals the oracle's."""
        written = []
        before = pair[1].machine.tasks_chunked
        for sl in pair:
            stage, writes = self._stage(sl, with_broadcast=True)
            written.append(writes)
            _issue(sl.machine, stage)
        obj, col = (sl.machine for sl in pair)
        assert COLS in {ch.kind for ch in col._cq}
        for machine in (obj, col):
            _assert_install_refused(machine, norm=_norm)
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked - before == self.N + P
        self._assert_written(*written)

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_under_a_fault_plan_columns_are_the_rows(self, engine):
        """With a fault plan installed a column element rides the
        reliable-delivery envelopes row by row: the same sequence
        numbers, so the same faults, retries, metrics and pointers as
        the rows form."""
        spec = FaultSpec(drop=0.15, dup=0.1, delay=0.1, corrupt=0.05)
        outcomes = []
        for form in ("rows", "columns"):
            sl = PIMSkipList(ENGINES[engine](num_modules=P, seed=42))
            sl.build(build_items(200, stride=STRIDE))
            stage, writes = self._stage(sl, with_broadcast=True)
            chaos = sl.machine.install_fault_plan(FaultPlan(spec, seed=5))
            replies = run_batch(
                sl.machine, "test:stage",
                _stage_route(_rows_of_stage(stage) if form == "rows"
                             else stage))
            self._assert_written(writes)
            outcomes.append((chaos.stats.as_dict(), _replies(replies),
                             sl.machine.snapshot().as_dict()))
        assert outcomes[0] == outcomes[1]
        stats = outcomes[0][0]
        assert stats["drops"] and stats["dups"] and stats["retransmissions"]


# -- fuzzed write sessions: the shipped driver against the rows-only one ------

KEY_SPACE = 400


@st.composite
def write_sessions(draw):
    """A few Upsert / Delete batches over a small key space: wide enough
    to cross the column crossover, narrow enough to stay under it, with
    duplicates, updates of stored keys, deletes of missing ones and
    runs of adjacent victims."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    width = st.sampled_from([1, 8, 60, 150])
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        keys = [rng.randrange(KEY_SPACE) for _ in range(draw(width))]
        if draw(st.booleans()):
            start = rng.randrange(KEY_SPACE)
            ops.append(("delete",
                        keys + list(range(start, start + draw(width)))))
        else:
            ops.append(("upsert", [(k, i) for i, k in enumerate(keys)]))
    return (draw(st.sampled_from([1, 2, 8, 16])),
            draw(st.sampled_from([0, 30, 200])), draw(st.integers(0, 3)), ops)


def _run_session(p, n, seed, ops):
    sl = PIMSkipList(PIMMachine(num_modules=p, seed=seed))
    sl.build(build_items(n, stride=2))
    trace = []
    for op, payload in ops:
        before = sl.machine.snapshot()
        result = sl.apply_batch(op, payload)
        trace.append((result, sl.machine.delta_since(before).as_dict()))
        sl.struct.check_integrity()
    stored = [(leaf.key, leaf.value) for leaf in sl.struct.iter_level(0)]
    return trace, stored, sl.machine.rng.random()


@DETERMINISTIC
@given(write_sessions())
def test_write_sessions_equal_the_rows_only_driver(session):
    """Results, structure and every op's ``MetricsDelta``: what the
    column boundary must not change."""
    got = _run_session(*session)
    with mock.patch.object(pipeline, "_issue", _rows_only_issue):
        want = _run_session(*session)
    assert got == want


class TestPointOps:
    KEYS = [3 * STRIDE, 4 * STRIDE, 4 * STRIDE, 17, 150 * STRIDE, -5,
            199 * STRIDE]

    def test_pt_get(self, pair):
        for sl in pair:
            s = sl.struct
            sl.machine.send_all(
                (s.leaf_owner(k), f"{s.name}:pt_get", (k,), i)
                for i, k in enumerate(self.KEYS))
        obj, col = (sl.machine for sl in pair)
        assert _chunked_fns(col) == {"skiplist:pt_get"}
        assert _lockstep(obj, col) == 1

    @pytest.mark.parametrize("fn", ["pt_update", "ups_try_update"])
    def test_update(self, pair, fn):
        for sl in pair:
            s = sl.struct
            sl.machine.send_all(
                (s.leaf_owner(k), f"{s.name}:{fn}", (k, ("v", i)), None)
                for i, k in enumerate(self.KEYS))
        obj, col = (sl.machine for sl in pair)
        assert _chunked_fns(col) == {f"skiplist:{fn}"}
        assert _lockstep(obj, col) == 1
        for sl in pair:
            got = sl.batch_get(self.KEYS)
            assert got == [("v", 0), ("v", 2), ("v", 2), None, ("v", 4),
                           None, ("v", 6)]


class TestUpsertInstall:
    def test_insert_lower_and_upper_prepare(self, pair):
        """Towers reaching the upper part: lower nodes delivered as
        rows (leaves join their module's list and table), upper nodes
        prepared by broadcast -- every replica its own storage and its
        own next-leaf slot, so that one runs P times."""
        new_keys = [k * STRIDE + 7 for k in (5, 60, 61, 120)]
        for sl in pair:
            s = sl.struct
            _, _, lower, upper = _build_towers(
                s, [(k, -k) for k in new_keys],
                [s.h_low + (i % 2) for i in range(len(new_keys))])
            nodes = lower + upper
            sl.machine.send_all(
                (n.owner, f"{s.name}:ups_insert_lower", (n,), None)
                for n in nodes if not s.is_upper_level(n.level))
            for n in nodes:
                if s.is_upper_level(n.level):
                    sl.machine.broadcast(f"{s.name}:ups_upper_prepare", (n,))
        obj, col = (sl.machine for sl in pair)
        assert _chunked_fns(col) == {"skiplist:ups_insert_lower",
                                     "skiplist:ups_upper_prepare"}
        assert _lockstep(obj, col) == 1
        for sl in pair:
            s = sl.struct
            for k in new_keys:
                ml = s.mlocal(s.leaf_owner(k))
                leaf = ml.table.lookup(k)
                assert leaf is not None and leaf.value == -k
                assert leaf.local_left is None or leaf.local_left.key < k


class TestDeleteMarking:
    def test_mark_forwards_mark_node_chunks(self, pair):
        """(c): ``del_mark`` runs chunked and forwards ``del_mark_node``
        chunks; both reply streams equal the oracle's in order (the CPU
        side contracts the marked nodes in reply order)."""
        keys = [k * STRIDE for k in range(20, 80, 3)] + [21, 150 * STRIDE]
        chunked, executed = (pair[1].machine.tasks_chunked,
                             pair[1].machine.tasks_executed)
        for sl in pair:
            s = sl.struct
            assert any(leaf.up_chain for leaf in s.iter_level(0)
                       if leaf.key in keys)
            sl.machine.send_all(
                (s.leaf_owner(k), f"{s.name}:del_mark", (k,), None)
                for k in keys)
        obj, col = (sl.machine for sl in pair)
        assert _chunked_fns(col) == {"skiplist:del_mark"}
        got = [_replies(m.step()) for m in (obj, col)]
        assert got[0] == got[1]
        assert sum(r[2][0] == "notfound" for r in got[1]) == 1
        assert _chunked_fns(col) == _chunked_fns(obj) \
            == {"skiplist:del_mark_node"}
        slots = _record_slots(obj)
        assert _lockstep(obj, col, ordered=True) == 1
        # The oracle ran the forwards from its slots' forward queues.
        assert slots[0] and all(not cpu and fwd
                                for _units, cpu, fwd in slots[0].values())
        assert (col.tasks_chunked - chunked
                == col.tasks_executed - executed)

    def test_whole_ops_leave_equal_structures(self, pair):
        """The ops end to end, every function chunked on the engine:
        equal results, metrics and contents."""
        fresh = [(k * STRIDE + 3, k) for k in range(0, 200, 5)]
        for sl in pair:
            assert sl.batch_upsert(fresh + [(4 * STRIDE, "x")]).inserted \
                == len(fresh)
            assert sl.batch_get([3, 4 * STRIDE]) == [0, "x"]
            stats = sl.batch_delete([k for k, _ in fresh[::2]] + [1])
            assert (stats.deleted, stats.not_found) == (len(fresh[::2]), 1)
            sl.struct.check_integrity()
        obj, col = (sl.machine for sl in pair)
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()
        assert (pair[0].struct.keys_in_order()
                == pair[1].struct.keys_in_order())
        assert col.tasks_chunked == col.tasks_executed > 0
        assert col.columnar_active


@pytest.mark.parametrize("riders", [3, 40])
def test_successor_riders(pair, riders):
    """Successor keys in an Upsert's group -- a few ride its recording
    search, many run as their own batch after it: equal answers,
    metrics, RNG state and contents on the oracle and the engine."""
    rng = random.Random(riders)
    fresh = [(k * STRIDE + 7, k) for k in rng.sample(range(200), 12)]
    keys = [rng.randrange(-50, 200 * STRIDE + 50) for _ in range(riders)]
    seen = []
    for sl in pair:
        before = sl.machine.snapshot()
        out = sl.apply_group([("upsert", fresh), ("successor", keys)])
        sl.struct.check_integrity()
        seen.append((out, sl.machine.delta_since(before),
                     sl.machine.rng.getstate(), sl.struct.keys_in_order()))
    assert seen[0] == seen[1]
    assert len(seen[1][0][1]) == riders


class TestWalkColumns:
    """The search walk forwards a body call's continuations as one
    column chunk and answers in at most one ``"done"`` and one
    ``"path"`` column reply a call; its rows equal the oracle's, round
    by round, recording or not."""

    def _launch(self, sl, record):
        s = sl.struct
        keys = [k * STRIDE + k % 3 for k in range(0, 200, 7)] + [-9, 10 ** 6]
        sl.machine.send_all(
            search_message(s, k, opid=i,
                           record=min(record, s.h_low - 1) if i % 2 else -1)
            for i, k in enumerate(keys))
        return keys

    @pytest.mark.parametrize("record", [-1, 0, 99])
    def test_walk_rows_equal_the_oracle(self, pair, record):
        for sl in pair:
            self._launch(sl, record)
        obj, col = (sl.machine for sl in pair)
        forwards = []
        while obj.pending or col.pending:
            assert _norm_staging(obj) == _norm_staging(col)
            got_obj, got_col = obj.step(), col.step()
            assert sorted(_replies(got_obj)) == sorted(_replies(got_col))
            assert obj.snapshot().as_dict() == col.snapshot().as_dict()
            # One reply per kind and body call on the engine.
            kinds = [r.payload[0] for r in got_col]
            assert len(kinds) == len(set(kinds))
            assert all(r.src.__class__ is list for r in got_col)
            forwards.append([ch.kind for ch in col._fq])
        assert any(forwards)
        assert all(kinds == [COLS] for kinds in forwards if kinds)

    def test_the_reader_answers_every_search(self, pair):
        """``walk_columns`` folds the drained replies into one done row
        per search, and the path rows of each recording search in the
        order its walk visited them (levels descending)."""
        sl = pair[1]
        keys = self._launch(sl, 99)
        (opids, preds, rights), (p_ops, _nodes, levels, _r) = walk_columns(
            sl.machine.drain())
        assert sorted(opids) == list(range(len(keys)))
        for opid, pred in zip(opids, preds):
            want = max((k for k, _ in build_items(200, stride=STRIDE)
                        if k <= keys[opid]), default=None)
            assert (None if pred.is_sentinel else pred.key) == want
        assert p_ops and all(opid % 2 for opid in p_ops)
        for opid in set(p_ops):
            mine = [lvl for o, lvl in zip(p_ops, levels) if o == opid]
            assert mine == sorted(mine, reverse=True)

    def test_stage_cols_books_and_refusals(self, pair):
        """A forward staged as columns books the receive units its rows
        would; a bad module id or a short column stages nothing."""
        col = pair[1].machine
        bct = col._bct
        fn = pair[1].struct.fn_search_step
        node = pair[1].struct.sentinels[0]
        bct.stage_cols(fn, [1, 3, 1], ([node] * 3, [5] * 3, [0, 1, 2],
                                      [-1] * 3))
        (ch,) = col._fq
        assert ch.kind == COLS and ch.counts == {1: 2, 3: 1}
        assert col._recv[1] == 2 and col._recv[3] == 1
        assert col._incoming_total == 3
        books = (list(col._recv), list(col._active), col._incoming_total)
        for dests in ([2, 0, P], [4, -1]):
            with pytest.raises(ValueError, match="bad module id"):
                n = len(dests)
                bct.stage_cols(fn, dests, ([node] * n, [5] * n,
                                           list(range(n)), [-1] * n))
            assert (list(col._recv), list(col._active),
                    col._incoming_total) == books
        with pytest.raises(MalformedMessageError):
            bct.stage_cols(fn, [0, 1], ([node], [5, 5], [0, 1], [-1, -1]))
        assert len(col._fq) == 1
        col._discard_staged()


def _riding_group(engine, restaged):
    """An Upsert with Successor and Range riders on an 8-module,
    512-key skip list under the ``mixed`` schedule; counts into
    ``restaged`` the messages of the column chunks each filtered round
    found forwarded (the filter stages every survivor again as rows)."""
    machine = ENGINES[engine](num_modules=8, seed=11)
    sl = PIMSkipList(machine)
    sl.build(build_items(512, stride=4))
    chaos = machine.install_fault_plan(build_schedule("mixed", 1, 8))
    stream = []
    machine.batch_observer = lambda op, delta: stream.append((op, delta))
    filter_round = chaos.filter_round

    def counting(m, rnd):
        restaged[engine] += sum(len(ch.dests) for ch in m._fq
                                if ch.kind == COLS)
        filter_round(m, rnd)
        assert all(ch.kind == ROWS for q in (m._cq, m._fq) for ch in q)

    chaos.filter_round = counting
    rng = random.Random(3)
    fresh = [(4 * k + 1, k) for k in rng.sample(range(512), 8)]
    riders = [rng.randrange(2048) for _ in range(4)]
    ranges = [(lo, lo + 30) for lo in rng.sample(range(2048), 2)]
    assert rides(sl.struct, len(fresh), len(riders))
    assert rides(sl.struct, len(fresh) + len(riders),
                 len(_cut_pieces(ranges)[0]))
    tasks = machine.tasks_executed, machine.tasks_chunked
    results = sl.apply_group([("upsert", fresh), ("successor", riders),
                              ("range", ranges)])
    sl.check_integrity()
    return {"results": results, "stream": stream,
            "faults": chaos.stats.as_dict(),
            "tasks": (machine.tasks_executed - tasks[0],
                      machine.tasks_chunked - tasks[1])}


def test_column_forwards_under_a_fault_plan():
    """Under a plan the walk's forwards are column chunks until the
    filter takes them apart: engine and oracle still agree on results,
    the per-op metric stream and the faults fired, and every task the
    engine runs is chunked."""
    restaged = {"object": 0, "columnar": 0}
    ref = _riding_group("object", restaged)
    eng = _riding_group("columnar", restaged)
    for key in ("results", "stream", "faults"):
        assert eng[key] == ref[key], key
    assert eng["results"][1] is not None and eng["results"][2]
    executed, chunked = eng["tasks"]
    assert chunked == executed > 0
    assert restaged["columnar"] == restaged["object"] > 0
