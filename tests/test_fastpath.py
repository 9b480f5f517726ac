"""Tests for the array-native half of the round engine.

:class:`~repro.sim.machine.PIMMachine` must be *observationally
equivalent* to the per-task reference oracle
(:class:`~repro.sim.machine.ReferencePIMMachine`): same replies, same
model metrics, bit for bit.  These tests pin that equivalence where it
is easiest to break -- mixed slot/chunk rounds, golden metrics, chaos,
drain diagnostics, a profiled session -- plus the absence of any
engine-selection surface and what keeps messages in slots (qrqw, access
tracing, a fault plan installed on a quiescent machine).
"""

from __future__ import annotations

import json
import random

import pytest

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
from repro.workloads import build_items
from tests.conftest import ENGINES
from tests.test_golden_metrics import (
    GOLDEN_PATH,
    _skiplist_workloads,
    compute_all,
)

P = 8


def _echo(ctx, x, tag=None):
    ctx.charge(1)
    ctx.reply(x * 2, tag=tag)


def _relay(ctx, x, hops, tag=None):
    ctx.charge(1)
    if hops <= 0:
        ctx.reply(x, tag=tag)
    else:
        ctx.forward((ctx.mid + 3) % ctx.machine.num_modules,
                     "relay", (x + 1, hops - 1), tag=tag)


def _loop(ctx, n, tag=None):
    ctx.charge(1)
    ctx.forward((ctx.mid + 1) % ctx.machine.num_modules, "loop", (n + 1,))


def _walk(ctx, rem, opid, tag=None):
    """Batch-handled below: hop to the next module ``rem`` times, then
    hand the op to the scalar-only ``echo``."""
    ctx.charge(2)
    nxt = (ctx.mid + 1) % ctx.machine.num_modules
    if rem > 0:
        ctx.forward(nxt, "walk", (rem - 1, opid))
    else:
        ctx.forward(nxt, "echo", (opid,), tag=opid)


def _ping(ctx, tag=None):
    ctx.charge(1)
    ctx.reply(("ping", ctx.mid), tag=tag)


def _batch_walk(bct, chunks):
    """``_walk`` over a round's chunks.  A column chunk (CPU-issued:
    list columns) is charged from its ``counts`` and read column by
    column, a row chunk row by row; both answer with row forwards, the
    scalar-only continuation through ``stage_rows`` too (which must land
    in slots)."""
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
    for ch in chunks:
        assert ch.kind == BCAST
        for mid in range(bct.num_modules):
            bct.work[mid] += 1
            bct.reply(mid, ("ping", mid), tag=ch.tag)


def _machine(engine="columnar", **kwargs):
    machine = ENGINES[engine](num_modules=P, seed=42, **kwargs)
    machine.register("echo", _echo)
    machine.register("relay", _relay)
    machine.register("loop", _loop)
    machine.register("walk", _walk)
    machine.register("ping", _ping)
    machine.register_batch("walk", _batch_walk)
    machine.register_batch("ping", _batch_ping)
    return machine


def _staging(machine, norm=tuple):
    """Next-round staging as ``{mid: sorted (fn, args) tasks}`` plus the
    per-module receive units -- slots and chunks alike.  ``norm`` maps
    an args tuple to its comparable form."""
    tasks = {}
    units = {}
    for mid, slot in machine._staged.items():
        units[mid] = units.get(mid, 0) + slot[0]
        for queue in (slot[1], slot[2]):
            for _handler, args, _tag, fn in queue:
                tasks.setdefault(mid, []).append((fn, norm(args)))
    for chunks in (machine._cq, machine._fq):
        for ch in chunks:
            for dest, args, _tag, size in machine._iter_chunk(ch):
                units[dest] = units.get(dest, 0) + size
                tasks.setdefault(dest, []).append((ch.fn, norm(args)))
    return ({mid: sorted(v, key=repr) for mid, v in sorted(tasks.items())},
            dict(sorted(units.items())))


def _mixed_workload(machine):
    """Scalar echoes, multi-hop forwards, an uneven send_all, and rounds
    that mix slots with row, column and broadcast chunks -- returns
    (replies, final snapshot dict).  Reply order is compared only where
    no batch handler runs (batch handlers are order-insensitive by
    contract, so mixed rounds compare the sorted replies)."""
    replies = []
    machine.send_all([(m, "echo", (m,), m) for m in range(P)])
    replies += machine.drain()
    machine.send_all([(m % P, "relay", (m, 1 + m % 4), m)
                      for m in range(3 * P)])
    replies += machine.drain()
    for m in range(P // 2):
        machine.send(m, "echo", (100 + m,))
    replies += machine.drain()
    mixed = []
    _issue_mixed_round(machine)
    mixed += machine.drain()
    return (replies, sorted(mixed, key=repr)), machine.snapshot().as_dict()


def _issue_mixed_round(machine):
    """One round's worth of every staging form: rows for the scalar-only
    ``relay``/``echo``, rows and (on the engine) a column chunk for the
    batch-handled ``walk``, one batch-handled broadcast, sizes > 1."""
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
        for label, delta in actual.items():
            assert delta == golden[label], label

    def test_storage_argument_rejected(self):
        with pytest.raises(TypeError, match="storage"):
            PIMSkipList(PIMMachine(P), storage="arena")
        with pytest.raises(TypeError, match="storage"):
            SkipListStructure(PIMMachine(P), storage="object")

    def test_reference_class_runs_the_scalar_loop(self, monkeypatch):
        machine = _machine("object")
        assert not machine.columnar_active
        assert machine.backend == "object"
        monkeypatch.setattr(
            machine, "_array_round",
            lambda: pytest.fail("array round on the reference oracle"))
        for fn in ("walk", "ping"):  # registered, never dispatched
            monkeypatch.setitem(
                machine._batch_handlers, fn,
                lambda bct, chunks: pytest.fail("batch handler dispatched"))
        _issue_mixed_round(machine)
        assert not (machine._cq or machine._fq)  # slots only
        assert machine.drain()

    def test_register_batch_collision(self):
        machine = _machine()

        def batch_a(bct, chunks):
            pass

        machine.register_batch("echo", batch_a)
        machine.register_batch("echo", batch_a)  # idempotent
        with pytest.raises(ValueError, match="already registered"):
            machine.register_batch("echo", lambda bct, chunks: None)

    def test_register_batch_inert_on_object_backend(self):
        machine = _machine("object")
        called = []
        machine.register_batch("echo", lambda bct, chunks: called.append(1))
        machine.send(0, "echo", (1,))
        (reply,) = machine.drain()
        assert reply.payload == 2
        assert not called

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

class TestBackendParity:
    def test_mixed_workload_bit_identical(self):
        obj = _mixed_workload(_machine("object"))
        col = _mixed_workload(_machine("columnar"))
        assert obj[0] == col[0]  # replies (order included where scalar)
        assert obj[1] == col[1]  # full metrics snapshot

    def test_mixed_round_staging_parity(self):
        """A round mixing slots with row, column and broadcast chunks:
        round by round the engine and the oracle agree on replies,
        per-module work, ``h``, messages, next-round staging and the
        pending diagnostics."""
        obj, col = _machine("object"), _machine("columnar")
        for machine in (obj, col):
            _issue_mixed_round(machine)
        assert col._staged and col._cq  # slots AND chunks pending
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
        """A batch handler may hand ``module.charge`` to module-local
        structures (the cuckoo table holds one) on a module that
        receives row or column traffic: those charges must land in the
        round's PIM maximum on modules with no slot traffic, next to
        ``bct.work`` charges and next to slot charges."""

        def meter(ctx, units, tag=None):
            ctx.charge(1)
            ctx.module.charge(units)  # what a local structure would do
            ctx.reply(units, tag=tag)

        def batch_meter(bct, chunks):
            modules = bct.machine.modules
            for ch in chunks:
                for mid, (units,), tag, _size in bct.rows_of(ch):
                    if ch.kind == BCAST:  # charged through bct only
                        bct.work[mid] += units + 1
                    else:
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
            machine.register("meter", meter)
            machine.register_batch("meter", batch_meter)
            # Stale round_work on a broadcast-only receiver (out-of-round
            # charging) must not leak into the round either.
            machine.modules[5].charge(1000)
            machine.send_all(
                [(1, "meter", (30,), "a"), (1, "meter", (2,), "b"),  # chunk
                 (2, "echo", (1,), "s"),                             # slot
                 (4, "meter", (7,), "c"), (4, "echo", (2,), "t")])   # both
            machine.broadcast("meter", (3,), tag="all")
        assert col._cq and col._staged
        lockstep(obj, col)
        # The maximum sits on module 1, which has no slot: two metered
        # rows and the broadcast one, each with its own unit.
        assert col.metrics.pim_time == (30 + 1) + (2 + 1) + (3 + 1)
        assert col.tasks_chunked == 3 + P
        assert col.tasks_executed == obj.tasks_executed == 5 + P
        assert obj.tasks_chunked == 0

        # A round of nothing but one column chunk: its receivers are in
        # the books like row receivers, so the callback's charges are
        # the round's maximum (module 6: two messages).
        before = col.metrics.pim_time
        col.send_cols("meter", [6, 3, 6], ([40, 9, 5],))
        obj.send_all([(6, "meter", (40,), None), (3, "meter", (9,), None),
                      (6, "meter", (5,), None)])
        assert [ch.kind for ch in col._cq] == [COLS] and not col._staged
        lockstep(obj, col)
        assert col.metrics.pim_time - before == (40 + 1) + (5 + 1)
        assert col.tasks_chunked == 3 + P + 3

    def test_column_send_to_scalar_only_function_lands_in_slots(self):
        """Chunks are for batch handlers only: a column batch for a
        function without one is bucketed into slots at issue time."""
        machine = _machine()
        machine.send_cols("echo", [1, 1, 5], ([10, 11, 12],), size=2)
        assert not machine._cq
        assert {mid: slot[0] for mid, slot in machine._staged.items()} \
            == {1: 4, 5: 2}
        assert sorted(r.payload for r in machine.drain()) == [20, 22, 24]

    def test_send_cols_on_the_oracle_stages_the_rows(self):
        """On the reference oracle a column send is the rows it stands
        for: the slots ``send_all`` of :meth:`Columns.rows` stages --
        entries, order and units -- behind the traffic already there,
        for a batch-handled function and a scalar-only one alike."""
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
            assert not (machine._cq or machine._fq)
            staged = machine._staged
            got.append((staged, machine.drain(), machine.snapshot()))
        assert got[0] == got[1]

    def test_scalar_only_round_is_the_scalar_loop(self, monkeypatch):
        """No batch-handled function in a round: the engine must not
        enter the array path at all."""
        machine = _machine()
        monkeypatch.setattr(
            machine, "_array_round",
            lambda: pytest.fail("array round for a slot-only round"))
        machine.send_all([(m, "relay", (m, 2), m) for m in range(P)])
        machine.broadcast("echo", (1,))
        assert len(machine.drain()) == 2 * P

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

def _session(engine, profiler):
    """A get / successor / upsert / delete / range session at P = 16,
    profiled from the first batch on if ``profiler`` is given; returns
    (results, MetricsDelta, tasks_chunked, tasks run, columnar_active)."""
    machine = ENGINES[engine](num_modules=16, seed=5)
    sl = PIMSkipList(machine)
    sl.build(build_items(400, stride=10))
    machine.set_profiler(profiler)
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
    return (results, machine.delta_since(before), machine.tasks_chunked,
            machine.tasks_executed - tasks, machine.columnar_active)


class TestProfiledEngine:
    def test_profiled_session_runs_chunked(self):
        """Attaching the profiler changes no routing: the profiled
        session keeps its chunks (the unprofiled ``tasks_chunked``), its
        replies and its ``MetricsDelta``, and its per-function call
        counts are the profiled reference oracle's task counts."""
        prof, ref_prof = HandlerProfile(), HandlerProfile()
        profiled = _session("columnar", prof)
        assert profiled == _session("columnar", None)
        results, delta, chunked, tasks, active = profiled
        assert active and chunked > 0
        ref = _session("object", ref_prof)
        assert ref[:2] == (results, delta) and ref[2] == 0
        assert prof.calls == ref_prof.calls
        assert sum(prof.calls.values()) == tasks
        assert set(prof.seconds) == set(prof.calls)


# ----------------------------------------------------------------------
# what keeps messages in slots
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
        """An installed fault plan keeps every message in slots;
        uninstalling it routes new traffic to chunks again.
        ``columnar_active`` is the label of that, ``backend`` of the
        machine's class."""
        machine = _machine()
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        assert not machine.columnar_active
        assert machine.backend == "columnar"  # identity, not engine state
        _issue_mixed_round(machine)
        assert machine._staged and not (machine._cq or machine._fq)
        machine.drain()
        assert machine.tasks_chunked == 0
        machine.uninstall_fault_plan()
        assert machine.columnar_active
        _issue_mixed_round(machine)
        assert machine._cq
        machine.drain()
        assert machine.tasks_chunked > 0

    def test_fault_plan_refused_with_messages_pending(self):
        """Row, column and broadcast chunks beside slots, then one slot,
        then forwarded continuations: each time the install raises and
        moves nothing, the machine drains to the oracle's result, and a
        quiescent machine accepts the plan."""
        obj, col = _machine("object"), _machine("columnar")
        for machine in (obj, col):
            _issue_mixed_round(machine)
        assert {ch.kind for ch in col._cq} == {ROWS, COLS, BCAST}
        assert col._staged
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
            assert not machine.columnar_active
        assert obj.snapshot().as_dict() == col.snapshot().as_dict()

    def test_behaviour_parity_under_faults(self):
        """With an identical seeded fault plan the engine (every message
        in slots) and the oracle observe the same faults, emit the same
        replies and account the same metrics."""
        spec = FaultSpec(drop=0.15, dup=0.1, delay=0.1, delay_rounds=2)
        results = {}
        for backend in ENGINES:
            machine = _machine(backend)
            machine.install_fault_plan(FaultPlan(spec, seed=7))
            results[backend] = _mixed_workload(machine)
        assert results["object"] == results["columnar"]

    def test_qrqw_contention_model_falls_back_at_construction(self):
        """qrqw and access tracing are fixed when the machine is built:
        such a machine never routes to chunks, like the oracle."""
        for kwargs in ({"contention_model": "qrqw"},
                       {"trace_accesses": True}):
            machine = _machine(**kwargs)
            assert not machine.columnar_active
            _issue_mixed_round(machine)
            assert not (machine._cq or machine._fq)
            machine.drain()
            assert machine.tasks_executed > 0
            assert machine.tasks_chunked == 0


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
