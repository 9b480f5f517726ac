"""Parity of the chunked write path and point ops with the oracle.

``write_ptr``, ``pt_get``, ``pt_update``, ``ups_try_update``,
``ups_insert_lower``, ``ups_upper_prepare``, ``del_mark`` and
``del_mark_node`` run as batch handlers on the engine
(:class:`~repro.sim.machine.PIMMachine`) and as per-task handlers on
:class:`~repro.sim.machine.ReferencePIMMachine`.  Each test drives the
same messages into one skip list on each, steps both in lockstep, and
requires, round by round, equal replies (as multisets), per-module
work, ``h``, messages and next-round staging.
"""

from __future__ import annotations

import pytest

from repro import PIMSkipList
from repro.core.node import Node
from repro.core.ops_upsert import _build_towers
from repro.core.ops_write import write_message
from repro.ops.pipeline import _issue
from repro.sim.fastpath import BCAST, ROWS
from repro.sim.profiling import HandlerProfile
from repro.workloads import build_items
from tests.conftest import ENGINES
from tests.test_fastpath import _staging

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
    return [(r.src, repr(r.tag), _norm(r.payload)) for r in replies]


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
    assert col.columnar_active and col.fallback_events == []
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
        assert not col._staged
        before = col.tasks_chunked
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked - before == len(want[1]) - 1 + P
        for sl, writes in zip(pair, want):
            for node, value in writes:
                assert node.right is value

    def test_mixed_with_scalar_upper_link(self, pair):
        """(b): one round with chunked ``write_ptr`` and the scalar-only
        ``ups_upper_link`` (its first executor pays the descent)."""
        for sl in pair:
            s = sl.struct
            _targets, msgs = self._writes(sl)
            node = s.make_upper_node(55 * STRIDE + 1, s.h_low)
            _issue(sl.machine, msgs)
            sl.machine.broadcast(f"{s.name}:ups_upper_link", (node,))
        obj, col = (sl.machine for sl in pair)
        assert col._cq and len(col._staged) == P
        assert _lockstep(obj, col) == 1
        assert col.tasks_chunked < col.tasks_executed

    def test_fallback_with_write_chunks_pending(self, pair):
        """(d): entering a fallback moves the pending write chunks into
        slots once, with the same units, and the drained result is the
        oracle's."""
        for sl in pair:
            _issue(sl.machine, self._writes(sl)[1])
        obj, col = (sl.machine for sl in pair)
        before = _norm_staging(col)
        col.set_profiler(HandlerProfile())
        assert not (col._cq or col._fq)
        assert _norm_staging(col) == before == _norm_staging(obj)
        col.set_profiler(None)
        assert sorted(_replies(col.drain())) == sorted(_replies(obj.drain()))
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()
        assert col.tasks_chunked == 0

    def test_bad_field_rejected_in_the_chunk_loop(self, pair):
        sl = pair[1]
        leaf = next(sl.struct.iter_level(0))
        sl.machine.send(leaf.owner, sl.struct.fn_write_ptr,
                        (leaf, "key", None))
        assert sl.machine._cq
        with pytest.raises(ValueError, match="bad pointer field"):
            sl.machine.step()


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
            towers = _build_towers(
                s, [(k, -k) for k in new_keys],
                [s.h_low + (i % 2) for i in range(len(new_keys))])
            nodes = [n for t in towers for n in t.nodes]
            sl.machine.send_all(
                (n.owner, f"{s.name}:ups_insert_lower", (n,), None)
                for n in nodes if not s.is_upper_level(n.level))
            for n in nodes:
                if s.is_upper_level(n.level):
                    sl.machine.broadcast(f"{s.name}:ups_upper_prepare", (n,))
        obj, col = (sl.machine for sl in pair)
        assert _chunked_fns(col) == {"skiplist:ups_insert_lower",
                                     "skiplist:ups_upper_prepare"}
        assert not col._staged
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
        assert _chunked_fns(col) == {"skiplist:del_mark_node"}
        assert not col._staged and obj._staged
        assert _lockstep(obj, col, ordered=True) == 1
        assert col.tasks_chunked == col.tasks_executed

    def test_whole_ops_leave_equal_structures(self, pair):
        """The ops end to end, chunk handlers and scalar ones mixed as
        the pipeline mixes them: equal results, metrics and contents."""
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
        assert 0 < col.tasks_chunked < col.tasks_executed
        assert col.fallback_events == []
