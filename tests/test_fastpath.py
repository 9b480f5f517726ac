"""Tests for the array-native half of the round engine.

:class:`~repro.sim.machine.PIMMachine` must be *observationally
equivalent* to the per-task reference oracle
(:class:`~repro.sim.machine.ReferencePIMMachine`): same replies, same
model metrics, bit for bit.  These tests pin that equivalence where it
is easiest to break -- rounds mixing row, column and broadcast chunks,
golden metrics, chaos, drain diagnostics, a profiled session -- plus the
absence of any engine-selection surface, the one registration (a batch
body for every function), what runs the per-task loop (the oracle
alone: not a fault plan, installed on a quiescent machine, nor qrqw or
access tracing) and the one staging form, whose round-time slots must
be the issue log's.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.node import Node
from repro.core.skiplist import PIMSkipList
from repro.core.storage import STORAGE_ENV_VAR
from repro.core.structure import SkipListStructure
from repro.sim.chaos import FaultPlan, FaultSpec
from repro.sim.config import BACKEND_ENV_VAR, MachineConfig
from repro.sim.errors import LivelockError
from repro.sim.fastpath import BCAST, COLS, ROWS
from repro.sim.machine import PIMMachine, ReferencePIMMachine
from repro.sim.profiling import HandlerProfile
from repro.sim.task import Reply
from repro.workloads import build_items, zipf_batch
from tests.conftest import DETERMINISTIC, ENGINES
from tests.test_golden_metrics import (
    GOLDEN_PATH,
    _skiplist_workloads,
    compute_all,
)

P = 8


def _echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x * 2, tag)


def _relay(bct, chunks):
    """Forward ``hops`` times, three modules on each time, then reply:
    each task's continuation keeps its tag."""
    out = []
    for mid, (x, hops), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        if hops <= 0:
            bct.reply(mid, x, tag)
        else:
            bct.sent[mid] += 1
            out.append(((mid + 3) % bct.num_modules, (x + 1, hops - 1), tag,
                        1))
    bct.stage_rows("relay", out)


def _loop(bct, chunks):
    out = []
    for mid, (n,), _tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.sent[mid] += 1
        out.append(((mid + 1) % bct.num_modules, (n + 1,), None, 1))
    bct.stage_rows("loop", out)


def _batch_walk(bct, chunks):
    """``walk``: hop to the next module ``rem`` times, then hand the op
    to ``echo``.  A column chunk (CPU-issued: list columns) is charged
    from its ``counts`` and read column by column, a row chunk row by
    row; both answer with row forwards, the continuation to ``echo``
    through ``stage_rows`` too."""
    P_ = bct.num_modules
    rows_out, echo_out = [], []
    for ch in chunks:
        if ch.kind == COLS:
            for mid, k in ch.counts.items():
                bct.work[mid] += 2 * k
                bct.sent[mid] += k
            for mid, rem, opid in zip(ch.dests, *ch.cols):
                if rem > 0:
                    rows_out.append(((mid + 1) % P_, (rem - 1, opid),
                                     None, 1))
                else:
                    echo_out.append(((mid + 1) % P_, (opid,), opid, 1))
            continue
        for mid, (rem, opid), _tag, _size in ch.rows:
            bct.work[mid] += 2
            bct.sent[mid] += 1
            if rem > 0:
                rows_out.append(((mid + 1) % P_, (rem - 1, opid), None, 1))
            else:
                echo_out.append(((mid + 1) % P_, (opid,), opid, 1))
    if rows_out:
        bct.stage_rows("walk", rows_out)
    if echo_out:
        bct.stage_rows("echo", echo_out)


def _batch_ping(bct, chunks):
    """``ping``: a broadcast chunk on the engine, one row a task on the
    oracle."""
    for ch in chunks:
        for mid, _args, tag, _size in bct.rows_of(ch):
            bct.work[mid] += 1
            bct.reply(mid, ("ping", mid), tag=tag)


def _machine(engine="columnar", **kwargs):
    machine = ENGINES[engine](num_modules=P, seed=42, **kwargs)
    for fn, body in (("echo", _echo), ("relay", _relay), ("loop", _loop),
                     ("walk", _batch_walk), ("ping", _batch_ping)):
        machine.register(fn, body)
    return machine


def _staging(machine, norm=tuple):
    """Next-round staging as ``{mid: sorted (fn, args) tasks}`` plus the
    per-module receive units, read from the chunks.  ``norm`` maps an
    args tuple to its comparable form."""
    tasks = {}
    units = {}
    for chunks in (machine._cq, machine._fq):
        for ch in chunks:
            for dest, args, _tag, size in machine._iter_chunk(ch):
                units[dest] = units.get(dest, 0) + size
                tasks.setdefault(dest, []).append((ch.fn, norm(args)))
    return ({mid: sorted(v, key=repr) for mid, v in sorted(tasks.items())},
            dict(sorted(units.items())))


def _record_slots(machine):
    """The slots each of ``machine``'s per-task rounds runs, one dict a
    round, in order: ``_run_round`` wrapped to keep its argument."""
    seen = []
    run = machine._run_round

    def recording(slots):
        seen.append(slots)
        return run(slots)

    machine._run_round = recording
    return seen


def _mixed_workload(machine):
    """Echoes, multi-hop forwards, an uneven send_all, and rounds that
    mix row, column and broadcast chunks -- returns (replies, final
    snapshot dict).  Reply order is compared only where each module
    gets one task (bodies are order-insensitive by contract, so the
    other drains compare their sorted replies)."""
    machine.send_all([(m, "echo", (m,), m) for m in range(P)])
    replies = machine.drain()
    machine.send_all([(m % P, "relay", (m, 1 + m % 4), m)
                      for m in range(3 * P)])
    relayed = sorted(machine.drain(), key=repr)
    for m in range(P // 2):
        machine.send(m, "echo", (100 + m,))
    replies += machine.drain()
    _issue_mixed_round(machine)
    mixed = sorted(machine.drain(), key=repr)
    return (replies, relayed, mixed), machine.snapshot().as_dict()


def _issue_mixed_round(machine):
    """One round's worth of every staging form: rows for ``relay`` /
    ``echo``, rows and (on the engine) a column chunk for ``walk``, one
    broadcast, sizes > 1."""
    machine.send_all(
        [(m % P, "relay", (m, m % 3), m) for m in range(P + 3)]
        + [(m % P, "walk", (m % 4, 100 + m), None) for m in range(2 * P)]
        + [(3, "echo", (7,), "big", 5), (3, "walk", (2, 99), None, 2)])
    col = [(m % 5, 1 + m % 3, 200 + m) for m in range(12)]
    machine.send_cols("walk", [c[0] for c in col],
                      ([c[1] for c in col], [c[2] for c in col]))
    machine.broadcast("ping", tag="b")
    machine.send(6, "walk", (0, 77))


# ----------------------------------------------------------------------
# one engine, no selection surface
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_default_engine_is_array_native(self):
        machine = PIMMachine(P)
        assert machine.columnar_active
        assert type(machine) is PIMMachine

    def test_unknown_backend_rejected(self):
        """There is no ``backend`` argument any more: the constructor
        and the config reject it like any other unknown name."""
        for name in ("object", "columnar", "vectorized"):
            with pytest.raises(TypeError, match="backend"):
                PIMMachine(P, backend=name)
            with pytest.raises(TypeError, match="backend"):
                MachineConfig(num_modules=P, backend=name)

    def test_env_var_changes_nothing(self, monkeypatch):
        for value in ("object", "columnar", "vectorized"):
            monkeypatch.setenv(BACKEND_ENV_VAR, value)
            machine = PIMMachine(P, seed=0)
            assert type(machine) is PIMMachine
            assert machine.columnar_active
            assert machine.backend == "columnar"  # a label, not a switch

    def test_storage_env_var_changes_nothing(self, monkeypatch):
        """The skip list has one storage, the ``Node`` graph: with the
        old selector set it builds and answers to the golden metrics,
        and a node carries no row index of a second layout."""
        monkeypatch.setenv(STORAGE_ENV_VAR, "arena")
        assert "aid" not in Node.__slots__
        with open(GOLDEN_PATH) as f:
            golden = json.load(f)
        actual: dict = {}
        _skiplist_workloads(actual)
        assert len(actual) == 7
        for label, (delta, _ops) in actual.items():
            assert delta == golden[label], label

    def test_storage_argument_rejected(self):
        with pytest.raises(TypeError, match="storage"):
            PIMSkipList(PIMMachine(P), storage="arena")
        with pytest.raises(TypeError, match="storage"):
            SkipListStructure(PIMMachine(P), storage="object")

    def test_reference_class_runs_the_scalar_loop(self, monkeypatch):
        """The oracle stages chunks as the engine does, unstages each
        round into slots and runs each task as its function's body over
        the task's one row."""
        machine = _machine("object")
        assert not machine.columnar_active
        assert machine.backend == "object"
        monkeypatch.setattr(
            machine, "_array_round",
            lambda: pytest.fail("array round on the reference oracle"))
        calls = []

        def body(bct, chunks):
            calls.append([(ch.kind, len(ch.rows)) for ch in chunks])
            _batch_ping(bct, chunks)

        monkeypatch.setitem(machine._handlers, "ping", body)
        _issue_mixed_round(machine)
        assert {ch.kind for ch in machine._cq} == {ROWS, COLS, BCAST}
        slots = _record_slots(machine)
        assert machine.drain()
        assert all(entry[0] is machine._handlers[entry[3]]
                   for slot in slots[0].values()
                   for queue in slot[1:] for entry in queue)
        assert sum(len(q) for slot in slots[0].values() for q in slot[1:]) \
            == (P + 3) + 2 * P + 2 + 12 + P + 1
        assert machine.tasks_chunked == 0
        assert calls == [[(ROWS, 1)]] * P

    def test_register_batch_collision(self):
        """``register`` is the one registration: the identical body is a
        no-op, a second body for an id is refused."""
        machine = _machine()
        assert not hasattr(machine, "register_batch")
        assert not hasattr(machine, "register_all")
        machine.register("walk", _batch_walk)  # idempotent
        assert machine._handlers["walk"] is _batch_walk
        with pytest.raises(ValueError, match="already registered"):
            machine.register("walk", lambda bct, chunks: None)
        with pytest.raises(ValueError, match="already registered"):
            machine.register("echo", _batch_walk)
        assert machine._handlers["echo"] is _echo

    def test_no_function_has_two_implementations(self):
        """A census over one machine carrying every class that registers
        module functions: every registered function is a batch body --
        a callable of ``(bct, chunks)``, none taking a ``ctx``, a no-op
        over no chunks -- and a fault-free session of all of them runs
        every task chunked."""
        import inspect

        from tests.test_fastpath_census import SESSIONS

        machine = PIMMachine(P, seed=0)
        for session in SESSIONS.values():
            session(machine)
        assert machine.tasks_chunked == machine.tasks_executed > 0
        assert machine.columnar_active
        assert len(machine._handlers) == 142
        before = machine.snapshot()
        for fn, body in machine._handlers.items():
            params = list(inspect.signature(body).parameters)
            assert params == ["bct", "chunks"], (fn, params)
            body(machine._bct, [])
        assert machine.snapshot() == before and not machine.pending

    def test_register_batch_runs_one_row_per_slot_task_on_the_oracle(self):
        """On the oracle a body runs per slot task: every task is one
        call over a one-row chunk, and its work, sends and replies reach
        the task's module and the round."""
        machine = _machine("object")
        calls = []

        def batch_double(bct, chunks):
            calls.append([(ch.kind, ch.rows) for ch in chunks])
            for ch in chunks:
                for mid, (x,), tag, _size in bct.rows_of(ch):
                    bct.work[mid] += 3
                    bct.reply(mid, 2 * x, tag=tag)

        machine.register("double", batch_double)
        machine.send(1, "double", (4,), tag="a")
        machine.send(1, "double", (5,), tag="b")
        replies = machine.drain()
        assert [(r.payload, r.tag, r.src) for r in replies] \
            == [(8, "a", 1), (10, "b", 1)]
        assert calls == [[(ROWS, [(1, (4,), "a", 1)])],
                         [(ROWS, [(1, (5,), "b", 1)])]]
        assert machine.modules[1].work == 6
        assert machine.metrics.io_time == 4  # 2 in + 2 replies
        assert machine.tasks_chunked == 0

    def test_fault_free_server_session_never_falls_back(self):
        import asyncio

        from repro.serve import Server, ServerConfig

        machines = []

        def standby():
            machines.append(PIMMachine(P, seed=3))
            return PIMSkipList(machines[-1])

        async def scenario():
            sl = standby()
            sl.build([(k, k) for k in range(0, 200, 2)])
            server = Server(sl, standby, ServerConfig())
            await server.start()
            got = await asyncio.gather(
                server.submit("a", "get", [4, 5]),
                server.submit("b", "successor", [6, 150]),
                server.submit("a", "upsert", [(7, 70)]),
                server.submit("b", "delete", [8]))
            await server.stop()
            return got

        got = asyncio.run(scenario())
        assert got[0] == [4, None] and got[1] == [(6, 6), (150, 150)]
        assert all(m.columnar_active for m in machines)
        assert machines[0].tasks_chunked > 0


# ----------------------------------------------------------------------
# observational equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["object", "columnar", "fault plan"])
def test_a_drained_round_leaves_no_reply_on_the_context(engine):
    """Once ``drain`` has returned, the machine's one round context
    holds none of the rounds' replies (they would stay alive until the
    next round): not after mixed rounds, not after a skip-list Get, on
    the engine, on the oracle and under a fault plan."""
    machine = _machine("columnar" if engine == "fault plan" else engine)
    if engine == "fault plan":
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
    _issue_mixed_round(machine)
    assert machine.drain()
    items = build_items(200, stride=10)
    sl = PIMSkipList(machine)
    sl.build(items)
    assert sl.batch_get([k for k, _ in items[:50]]) \
        == [v for _, v in items[:50]]
    bct = machine._bct
    for name in type(bct).__slots__:
        held = getattr(bct, name)
        assert not (isinstance(held, list)
                    and any(isinstance(x, Reply) for x in held)), name
    assert bct.replies == []


class TestBackendParity:
    def test_mixed_workload_bit_identical(self):
        obj = _mixed_workload(_machine("object"))
        col = _mixed_workload(_machine("columnar"))
        assert obj[0] == col[0]  # replies (order included where defined)
        assert obj[1] == col[1]  # full metrics snapshot

    def test_mixed_round_staging_parity(self):
        """A round mixing row, column and broadcast chunks of four
        functions: round by round the engine and the oracle agree on
        replies, per-module work, ``h``, messages, next-round staging
        and the pending diagnostics."""
        obj, col = _machine("object"), _machine("columnar")
        for machine in (obj, col):
            _issue_mixed_round(machine)
        assert col._cq
        kinds = {ch.kind for ch in col._cq}
        assert kinds == {ROWS, COLS, BCAST}
        rounds = 0
        while obj.pending or col.pending:
            assert _staging(obj) == _staging(col)
            assert obj._pending_stats() == col._pending_stats()
            assert (obj._livelock_report(rounds, 99, "x")
                    == col._livelock_report(rounds, 99, "x"))
            got = {name: sorted(m.step(), key=repr)
                   for name, m in (("object", obj), ("columnar", col))}
            assert got["object"] == got["columnar"]
            assert obj.snapshot().as_dict() == col.snapshot().as_dict()
            assert ([m.work for m in obj.modules]
                    == [m.work for m in col.modules])
            assert (obj.tracer.rounds[-1] == col.tracer.rounds[-1])
            rounds += 1
        assert rounds >= 5
        assert col.columnar_active

    def test_module_bound_charges_reach_the_round_maximum(self):
        """A body may hand ``module.charge`` to module-local structures
        (the cuckoo table holds one; a baseline's local skip list too):
        those charges must land in the round's PIM maximum next to
        ``bct.work`` charges, on a row, column or broadcast receiver."""

        def batch_meter(bct, chunks):
            modules = bct.machine.modules
            for ch in chunks:
                for mid, (units,), tag, _size in bct.rows_of(ch):
                    if mid % 2:
                        bct.work[mid] += units + 1
                    else:  # what a local structure would do
                        modules[mid].charge(units)
                        bct.work[mid] += 1
                    bct.reply(mid, units, tag=tag)

        def lockstep(obj, col):
            while obj.pending or col.pending:
                got = [sorted(m.step(), key=repr) for m in (obj, col)]
                assert got[0] == got[1]
                assert obj.snapshot().as_dict() == col.snapshot().as_dict()
                assert ([m.work for m in obj.modules]
                        == [m.work for m in col.modules])
                assert obj.tracer.rounds[-1] == col.tracer.rounds[-1]

        obj, col = _machine("object"), _machine("columnar")
        for machine in (obj, col):
            machine.register("meter", batch_meter)
            # Stale round_work on a broadcast-only receiver (out-of-round
            # charging) must not leak into the round either.
            machine.modules[5].charge(1000)
            machine.send_all(
                [(1, "meter", (30,), "a"), (1, "meter", (2,), "b"),
                 (2, "echo", (1,), "s"),
                 (4, "meter", (7,), "c"), (4, "echo", (2,), "t"),
                 (6, "meter", (50,), "d")])
            machine.broadcast("meter", (3,), tag="all")
        assert col._cq
        lockstep(obj, col)
        # A broadcast alone: every even module charges the callback.
        for machine in (obj, col):
            machine.broadcast("meter", (8,), tag="solo")
        assert [ch.kind for ch in col._cq] == [BCAST]
        lockstep(obj, col)
        # The first round's maximum sits on module 6, charged through
        # its module's callback, plus the broadcast's (callback) charge;
        # the second round's is any module's charge of the broadcast.
        assert col.metrics.pim_time == ((50 + 1) + (3 + 1)) + (8 + 1)
        assert col.tasks_chunked == col.tasks_executed == 6 + 2 * P
        assert obj.tasks_executed == 6 + 2 * P
        assert obj.tasks_chunked == 0

        # A round of nothing but one column chunk: its receivers are in
        # the books like row receivers, so the callback's charges are
        # the round's maximum (module 6: two messages).
        before = col.metrics.pim_time
        col.send_cols("meter", [6, 3, 6], ([40, 9, 5],))
        obj.send_all([(6, "meter", (40,), None), (3, "meter", (9,), None),
                      (6, "meter", (5,), None)])
        assert [ch.kind for ch in col._cq] == [COLS]
        lockstep(obj, col)
        assert col.metrics.pim_time - before == (40 + 1) + (5 + 1)
        assert col.tasks_chunked == 6 + 2 * P + 3

    def test_column_send_to_scalar_only_function_lands_in_slots(self):
        """Under a fault plan a column batch is staged as one chunk; the
        chaos filter stages its rows again, receive units included,
        which the engine runs chunked and the oracle unstages into its
        rows' slots."""
        for engine in ENGINES:
            machine = _machine(engine)
            state = machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
            machine.send_cols("echo", [1, 1, 5], ([10, 11, 12],), size=2)
            assert [ch.kind for ch in machine._cq] == [COLS]
            state.filter_round(machine, 0)
            assert [ch.kind for ch in machine._cq] == [ROWS]
            assert {mid: machine._recv[mid] for mid in machine._active} \
                == {1: 4, 5: 2}
            slots = _record_slots(machine) if engine == "object" else None
            assert sorted(r.payload for r in machine.drain()) \
                == [20, 22, 24]
            if slots is None:
                assert machine.tasks_chunked == machine.tasks_executed == 3
            else:
                assert {mid: slot[0] for mid, slot in slots[0].items()} \
                    == {1: 4, 5: 2}

    def test_send_cols_on_the_oracle_stages_the_rows(self):
        """On the reference oracle a column send is the rows it stands
        for: the round-time slots equal those of ``send_all`` of
        :meth:`Columns.rows` -- entries, order and units -- behind the
        traffic already there, for two functions alike."""
        from repro.ops import Columns

        got = []
        for form in ("cols", "rows"):
            machine = _machine("object")
            machine.send_all([(m % P, "echo", (m,), m) for m in range(P + 2)])
            for fn, dests, cols in (
                    ("walk", [3, 0, 3, 7, 3], ([1, 0, 2, 0, 1],
                                              [10, 11, 12, 13, 14])),
                    ("echo", [5, 5, 2], ([20, 21, 22],))):
                if form == "cols":
                    machine.send_cols(fn, dests, cols)
                else:
                    machine.send_all(Columns(fn, dests, cols).rows())
            slots = _record_slots(machine)
            replies = machine.drain()
            # Each entry carries its machine's own body: compare the
            # function ids, and that they resolve to that body.
            staged = {}
            for mid, (units, *queues) in slots[0].items():
                for queue in queues:
                    assert all(body is machine._handlers[fn]
                               for body, _args, _tag, fn in queue)
                staged[mid] = [units] + [[entry[1:] for entry in queue]
                                         for queue in queues]
            got.append((staged, replies, machine.snapshot()))
        assert got[0] == got[1]

    def test_scalar_only_round_is_the_scalar_loop(self):
        """The engine never unstages a round into slots: it has no
        per-task loop to enter, and every task runs in a body call."""
        machine = _machine()
        assert not hasattr(machine, "_run_round")
        assert not hasattr(machine, "_take_slots")
        machine.send_all([(m, "relay", (m, 2), m) for m in range(P)])
        machine.broadcast("echo", (1,))
        assert [ch.kind for ch in machine._cq] == [ROWS, BCAST]
        assert len(machine.drain()) == 2 * P
        assert machine.tasks_chunked == machine.tasks_executed == 4 * P

    def test_golden_metrics_under_columnar(self):
        """All golden workloads (skip list, baselines, collectives,
        qrqw, containers) run on the engine must match the checked-in
        golden values exactly -- those were produced by the per-task
        loop and no golden file has been regenerated since."""
        assert PIMMachine(P).columnar_active
        with open(GOLDEN_PATH) as f:
            golden = json.load(f)
        actual = compute_all()
        assert sorted(actual) == sorted(golden)
        for label in golden:
            assert actual[label] == golden[label], \
                f"columnar metrics drifted for {label}"

    def test_golden_metrics_on_the_reference_oracle(self, monkeypatch):
        """The same workloads on the per-task loop: the golden values
        (the batched ranges and the PIM-tree's chunked read functions
        included) belong to the model, not to an engine."""
        import tests.test_golden_metrics as golden_suite
        monkeypatch.setattr(golden_suite, "PIMMachine", ReferencePIMMachine)
        with open(GOLDEN_PATH) as f:
            assert compute_all() == json.load(f)

    def test_drain_max_rounds_diagnostics_parity(self):
        """A livelocked forwarding cycle must exhaust ``max_rounds`` with
        the *same* diagnostic report on both backends: same pending
        handler ids, same per-module queue depths."""
        msgs = {}
        for backend in ENGINES:
            machine = _machine(backend)
            machine.send(0, "loop", (0,))
            with pytest.raises(LivelockError) as exc:
                machine.drain(max_rounds=5, label="cycle")
            msgs[backend] = str(exc.value)
        assert msgs["object"] == msgs["columnar"]
        assert "cycle" in msgs["columnar"]
        assert "loop" in msgs["columnar"]


# ----------------------------------------------------------------------
# the profiler times the shipped path
# ----------------------------------------------------------------------

def _session(engine, profiler=None, **config):
    """A get / successor / upsert / delete / range session at P = 16 on
    a machine built with ``config``, profiled from the first batch on if
    ``profiler`` is given; returns (results, MetricsDelta,
    tasks_chunked, tasks run, columnar_active, the per-op MetricsDelta
    stream, the per-round access counts keyed by node id from the
    structure's first sentinel, an offset two sessions share)."""
    machine = ENGINES[engine](num_modules=16, seed=5, **config)
    sl = PIMSkipList(machine)
    sl.build(build_items(400, stride=10))
    machine.set_profiler(profiler)
    stream = []
    machine.batch_observer = lambda op, delta: stream.append((op, delta))
    before, tasks = machine.snapshot(), machine.tasks_executed
    rng = random.Random(3)
    keys = [rng.randrange(4000) for _ in range(64)]
    results = [
        sl.apply_batch("get", keys),
        sl.apply_batch("successor", keys),
        sl.apply_batch("upsert", [(k * 10 + 5, k) for k in range(0, 400, 7)]),
        sl.apply_batch("delete", [k * 10 for k in range(0, 400, 5)]),
        sl.apply_batch("range", [(k, k + 300) for k in keys[:12]]),
    ]
    access = machine.tracer.access
    base = sl.struct.sentinels[0].nid
    return (results, machine.delta_since(before), machine.tasks_chunked,
            machine.tasks_executed - tasks, machine.columnar_active, stream,
            [Counter({nid - base: k for nid, k in access.round_counter(i)
                      .items()}) for i in range(access.num_rounds)])


class TestProfiledEngine:
    def test_profiled_session_runs_chunked(self):
        """Attaching the profiler changes no routing: the profiled
        session keeps its chunks (the unprofiled ``tasks_chunked``), its
        replies and its ``MetricsDelta``, and its per-function call
        counts are the profiled reference oracle's task counts."""
        prof, ref_prof = HandlerProfile(), HandlerProfile()
        profiled = _session("columnar", prof)
        assert profiled == _session("columnar", None)
        results, delta, chunked, tasks, active, _stream, _access = profiled
        assert active and chunked > 0
        ref = _session("object", ref_prof)
        assert ref[:2] == (results, delta) and ref[2] == 0
        assert prof.calls == ref_prof.calls
        assert sum(prof.calls.values()) == tasks
        assert set(prof.seconds) == set(prof.calls)


# ----------------------------------------------------------------------
# what runs the per-task loop
# ----------------------------------------------------------------------

def _assert_install_refused(machine, norm=tuple):
    """``install_fault_plan`` with messages pending raises and moves
    nothing: the same chunks, slots, units and routing, and no plan."""
    def state():
        return (_staging(machine, norm), machine._pending_stats(),
                [(ch.fn, ch.kind) for q in (machine._cq, machine._fq)
                 for ch in q],
                machine._incoming_total, machine.columnar_active)

    before = state()
    with pytest.raises(RuntimeError, match="messages pending"):
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
    assert machine._chaos is None
    assert state() == before


class TestChaosFallback:
    def test_fault_plan_triggers_typed_fallback(self):
        """Under an installed fault plan every round on the engine runs
        chunked, as it does after the plan comes off: the engine has no
        per-task loop to fall back to, and ``columnar_active`` and
        ``backend`` are labels of the machine's class."""
        machine = _machine()
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        assert machine.columnar_active
        assert machine.backend == "columnar"  # identity, not engine state
        assert not hasattr(machine, "_run_round")
        _issue_mixed_round(machine)
        assert {ch.kind for ch in machine._cq} == {ROWS, COLS, BCAST}
        machine.drain()
        assert machine.tasks_chunked == machine.tasks_executed > 0
        machine.uninstall_fault_plan()
        assert machine.columnar_active
        _issue_mixed_round(machine)
        assert machine._cq
        tasks = machine.tasks_executed
        machine.drain()
        assert machine.tasks_chunked == machine.tasks_executed > tasks

    def test_fault_plan_refused_with_messages_pending(self):
        """Row, column and broadcast chunks (on the oracle too), then
        one message, then forwarded continuations: each time the install
        raises and moves nothing, the machine drains to the oracle's
        result, and a quiescent machine accepts the plan."""
        obj, col = _machine("object"), _machine("columnar")
        for machine in (obj, col):
            _issue_mixed_round(machine)
        assert {ch.kind for ch in col._cq} == {ROWS, COLS, BCAST}
        assert [(ch.fn, ch.kind) for ch in obj._cq] \
            == [(ch.fn, ch.kind) for ch in col._cq]
        for machine in (obj, col):
            _assert_install_refused(machine)
        assert sorted(col.drain(), key=repr) == sorted(obj.drain(), key=repr)
        for machine in (obj, col):
            machine.send(2, "echo", (1,))
            _assert_install_refused(machine)
            machine.drain()
            machine.send(2, "walk", (2, 5))
            machine.step()  # the walk's next hop is forwarded
            assert machine.pending and not machine._cq
            _assert_install_refused(machine)
            machine.drain()
            machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
            assert machine.columnar_active == (machine is col)
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()

    def test_uninstall_refused_with_messages_pending(self):
        """``uninstall_fault_plan`` with a message staged under the plan
        raises and moves nothing: the plan's protocol or its held rows
        would otherwise be cut off.  Drained -- chunked, as every round
        under the plan -- the plan comes off."""
        machine = _machine()
        plan = FaultPlan(FaultSpec(), seed=0)
        machine.install_fault_plan(plan)
        machine.send(2, "echo", (1,))
        before = _staging(machine)
        with pytest.raises(RuntimeError, match="messages pending"):
            machine.uninstall_fault_plan()
        assert machine._chaos is not None
        assert _staging(machine) == before
        assert [r.payload for r in machine.drain()] == [2]
        assert machine.tasks_chunked == machine.tasks_executed == 1
        assert machine.uninstall_fault_plan().plan is plan
        assert machine.columnar_active

    def test_behaviour_parity_under_faults(self):
        """With an identical seeded fault plan the engine (the plan
        filters its chunks and every round runs chunked) and the oracle
        (every round unstaged into slots) observe the same faults, emit
        the same replies and account the same metrics."""
        spec = FaultSpec(drop=0.15, dup=0.1, delay=0.1, delay_rounds=2)
        results = {}
        for backend in ENGINES:
            machine = _machine(backend)
            machine.install_fault_plan(FaultPlan(spec, seed=7))
            results[backend] = _mixed_workload(machine)
        assert results["object"] == results["columnar"]

    def test_qrqw_and_access_tracing_run_chunked(self):
        """qrqw and access tracing, fixed when the machine is built,
        route to chunks like a plain machine: a skip-list session runs
        as many tasks chunked as it does there, and equals the reference
        oracle with the same config -- results, per-op MetricsDelta
        stream and per-round access counts."""
        plain_results, _, plain_chunked, *_ = _session("columnar")
        assert plain_chunked > 0
        for config in ({"contention_model": "qrqw"},
                       {"trace_accesses": True},
                       {"contention_model": "qrqw", "trace_accesses": True}):
            results, _, chunked, tasks, active, stream, access = \
                _session("columnar", **config)
            ref = _session("object", **config)
            assert active and chunked == plain_chunked
            assert ref[2] == 0 and ref[3] == tasks
            assert results == ref[0] == plain_results
            assert stream == ref[5]
            assert access == ref[6]
            assert any(access) == config.get("trace_accesses", False)

    def test_qrqw_hot_key_queue_is_charged_on_chunks(self):
        """A Zipf hot-key session of a function that queues three
        accesses on its key's object per unit of work: under qrqw the
        hot object's queue, not the charged work, bounds its rounds, on
        chunks as on the oracle's slots."""

        def batch_hammer(bct, chunks):
            for ch in chunks:
                for mid, (key,), tag, _size in bct.rows_of(ch):
                    bct.work[mid] += 1
                    if bct.tracing:
                        for _ in range(3):
                            bct.touch(mid, ("key", key))
                    bct.reply(mid, key, tag=tag)

        def run(engine, **config):
            machine = ENGINES[engine](num_modules=P, seed=1, **config)
            machine.register("hammer", batch_hammer)
            rounds = []
            for seed in range(4):
                keys = zipf_batch(48, range(64), alpha=1.2, seed=seed)
                machine.send_all([(key % P, "hammer", (key,), None)
                                  for key in keys])
                replies = sorted(machine.step(), key=repr)
                rounds.append((replies, machine.snapshot().as_dict()))
            return rounds, machine.tasks_chunked

        qrqw, chunked = run("columnar", contention_model="qrqw")
        assert (qrqw, 0) == run("object", contention_model="qrqw")
        plain, plain_chunked = run("columnar")
        assert chunked == plain_chunked == 4 * 48
        # Every round's maximum is its hottest queue: three times the
        # hot key's tasks, above the work of the module that holds it.
        for (_, q), (_, w), prev_q, prev_w in zip(
                qrqw, plain, [{"pim_time": 0.0}] + [r for _, r in qrqw],
                [{"pim_time": 0.0}] + [r for _, r in plain]):
            assert (q["pim_time"] - prev_q["pim_time"]
                    > w["pim_time"] - prev_w["pim_time"])


# ----------------------------------------------------------------------
# the differential oracle's backend check
# ----------------------------------------------------------------------

class TestBackendEquivalenceCheck:
    def _stream_for(self, session, impl="skiplist"):
        """The engine's per-op metric stream for ``session``."""
        from repro.verify.adapters import build_implementations
        from repro.verify.fuzz import initial_items_for

        sl = build_implementations(
            [impl], seed=session.seed,
            items=initial_items_for(session), num_modules=P)[0]
        assert sl.machine.columnar_active
        stream = []
        sl.machine.batch_observer = lambda op, d: stream.append((op, d))
        for batch in session.batches:
            sl.apply(batch.op, batch.payload)
        sl.machine.batch_observer = None
        return stream

    def test_fuzz_session_certified_across_backends(self):
        from repro.verify.differ import verify_session
        from repro.verify.fuzz import fuzz_session

        session = fuzz_session(17, num_batches=4, batch_size=8)
        report = verify_session(session, impls=["skiplist"], num_modules=P)
        assert report.ok, [str(d) for d in report.violations]

    def test_reference_skiplist_is_on_the_oracle(self):
        from repro.verify.adapters import (CROSS_ENGINE_IMPLS,
                                           reference_adapter)

        assert CROSS_ENGINE_IMPLS == ("skiplist", "pimtree")
        for impl in CROSS_ENGINE_IMPLS:
            ref = reference_adapter(impl, 0, [(1, 1)], P)
            assert ref.name == impl
            assert type(ref.machine) is ReferencePIMMachine

    def test_pimtree_replayed_across_backends(self):
        """The PIM-tree's chunked read functions are certified per op:
        its session is replayed on the reference oracle too, and a
        doctored stream is a ``[backend]`` divergence on ``pimtree``."""
        from repro.verify.differ import (SessionReport,
                                         _check_backend_equivalence,
                                         verify_session)
        from repro.verify.fuzz import fuzz_session

        session = fuzz_session(17, num_batches=6, batch_size=8)
        report = verify_session(session, impls=["pimtree"], num_modules=P)
        assert report.ok, [str(d) for d in report.violations]

        stream = self._stream_for(session, "pimtree")
        assert {op for op, _ in stream} >= {"pimtree:batch_get"}
        op, delta = stream[0]
        report = SessionReport(seed=session.seed, num_modules=P,
                               impls=("pimtree",),
                               num_batches=len(session.batches))
        _check_backend_equivalence(report, session, P,
                                   [(op + "!", delta)] + stream[1:],
                                   impl="pimtree")
        assert [(d.kind, d.impl) for d in report.violations] \
            == [("backend", "pimtree")]

    def test_check_flags_doctored_stream(self):
        """Mutation test: the cross-engine check must detect a metric
        stream that does not match the reference oracle's."""
        from repro.verify.differ import (SessionReport,
                                         _check_backend_equivalence)
        from repro.verify.fuzz import fuzz_session

        session = fuzz_session(17, num_batches=3, batch_size=8,
                               read_only=True)
        stream = self._stream_for(session)

        def fresh_report():
            return SessionReport(seed=session.seed, num_modules=P,
                                 impls=("skiplist",),
                                 num_batches=len(session.batches))

        report = fresh_report()
        _check_backend_equivalence(report, session, P, stream)
        assert report.ok  # the genuine stream certifies clean

        doctored = list(stream)
        op, delta = doctored[0]
        doctored[0] = (op + "!", delta)
        report = fresh_report()
        _check_backend_equivalence(report, session, P, doctored)
        assert not report.ok
        assert report.violations[0].kind == "backend"

        report = fresh_report()
        _check_backend_equivalence(report, session, P, stream[:-1])
        assert not report.ok
        assert "pipeline ops" in report.violations[0].detail


# ----------------------------------------------------------------------
# staging: one form on every machine, slots built at round time
# ----------------------------------------------------------------------

_DEST = st.integers(0, P - 1)
_SIZE = st.integers(1, 3)
_FN = st.sampled_from(("f0", "f1", "f2"))
_ROW = st.tuples(_DEST, _FN, _SIZE)
ISSUE_LOGS = st.lists(st.one_of(
    st.tuples(st.just("send"), _ROW),
    st.tuples(st.just("send_all"), st.lists(_ROW, max_size=6)),
    st.tuples(st.just("broadcast"), _FN, _SIZE),
    st.tuples(st.just("send_cols"), _FN, st.lists(_DEST, max_size=6),
              _SIZE),
    st.tuples(st.just("forward"), _FN,
              st.lists(st.tuples(_DEST, _SIZE), max_size=6)),
), max_size=12)


def _nop(bct, chunks):
    pass


def _issue_log(machine, log):
    """Issue ``log`` on ``machine`` -- forwards through ``stage_rows``,
    as a body stages them -- and return the slots built straight from
    it: ``{mid: [units, cpu (fn, args, tag), forward (fn, args, tag)]}``
    in issue order.  Every message's args are its issue serial."""
    want = {}
    serial = iter(range(1 << 20))

    def expect(q, dest, fn, args, tag, size):
        slot = want.setdefault(dest, [0, [], []])
        slot[0] += size
        slot[q].append((fn, args, tag))

    for item in log:
        kind = item[0]
        if kind == "send":
            dest, fn, size = item[1]
            args = (next(serial),)
            machine.send(dest, fn, args, tag="s", size=size)
            expect(1, dest, fn, args, "s", size)
        elif kind == "send_all":
            msgs = []
            for dest, fn, size in item[1]:
                args = (next(serial),)
                msgs.append((dest, fn, args, None) if size == 1
                            else (dest, fn, args, None, size))
                expect(1, dest, fn, args, None, size)
            machine.send_all(msgs)
        elif kind == "broadcast":
            _, fn, size = item
            args = (next(serial),)
            machine.broadcast(fn, args, tag="b", size=size)
            for mid in range(P):
                expect(1, mid, fn, args, "b", size)
        elif kind == "send_cols":
            _, fn, dests, size = item
            xs = [next(serial) for _ in dests]
            machine.send_cols(fn, dests, (xs,), size=size)
            for dest, x in zip(dests, xs):
                expect(1, dest, fn, (x,), None, size)
        else:
            _, fn, rows = item
            out = []
            for dest, size in rows:
                args = (next(serial),)
                out.append((dest, args, "f", size))
                expect(2, dest, fn, args, "f", size)
            machine._bct.stage_rows(fn, out)
    return want


def _plain_slots(machine, slots):
    """Round-time slots with each entry ``(fn, args, tag)``, after
    checking that its body is the machine's handler for ``fn``."""
    out = {}
    for mid, (units, *queues) in slots.items():
        for queue in queues:
            assert all(body is machine._handlers[fn]
                       for body, _args, _tag, fn in queue)
        out[mid] = [units] + [[(fn, args, tag)
                               for _body, args, tag, fn in queue]
                              for queue in queues]
    return out


class TestStaging:
    @DETERMINISTIC
    @given(ISSUE_LOGS)
    def test_round_time_slots_are_the_issue_log(self, log):
        """Any interleaving of the issue paths: the slots a round builds
        are the per-destination lists of the issue log -- CPU entries
        before forwards, each in issue order, units the sum of sizes --
        on the engine (the oracle's ``_take_slots`` over the engine's
        chunks, after its receive books are read against the log) and on
        the oracle (what its round runs)."""
        machine = ENGINES["columnar"](num_modules=P, seed=0)
        oracle = ENGINES["object"](num_modules=P, seed=0)
        for m in (machine, oracle):
            for fn in ("f0", "f1", "f2"):
                m.register(fn, _nop)
        want = _issue_log(machine, log)
        assert _issue_log(oracle, log) == want
        units = {mid: slot[0] for mid, slot in want.items()}
        books = [machine._recv[mid] + machine._bcast_units
                 for mid in range(P)]
        assert {mid: k for mid, k in enumerate(books) if k} == units
        assert machine._incoming_total == sum(units.values())
        assert machine.pending == bool(want)
        assert _plain_slots(
            machine, ReferencePIMMachine._take_slots(machine)) == want
        assert not machine.pending and machine._incoming_total == 0
        assert machine._recv == [0] * P and not machine._active
        slots = _record_slots(oracle)
        oracle.step()
        assert [_plain_slots(oracle, rnd) for rnd in slots] \
            == ([want] if want else [])
        assert not oracle.pending
