"""The repro.ops pipeline driver: stage sequencing, Broadcast markers,
livelock attribution, a stage rejected at issue time, handlers
registered once per structure -- plus a differential property test
running random mixed batches through the unified pipeline against the
sequential sorted-list oracle."""

from __future__ import annotations

import functools
import random

import pytest

from repro.baselines import (FineGrainedSkipList, HashPartitionedMap,
                             RangePartitionedSkipList)
from repro.collectives import Collectives
from repro.core.ops_successor import batch_search
from repro.core.skiplist import PIMSkipList
from repro.ops import Broadcast, run_batch
from repro.sim.chaos import FaultPlan, FaultSpec
from repro.sim.errors import (LivelockError, MalformedMessageError,
                              UnknownHandlerError)
from repro.sim.machine import PIMMachine
from repro.structures import PIMLSMStore, PIMPriorityQueue, PIMQueue
from repro.structures.pimtree import PIMTree
from tests.conftest import ReferenceMap, make_skiplist


def _echo_handlers():
    def h_echo(ctx, value, tag=None):
        ctx.charge(1)
        ctx.reply(("echo", ctx.mid, value), tag=tag)

    return {"t:echo": h_echo}


def _echo_machine(num_modules: int, seed: int = 1) -> PIMMachine:
    machine = PIMMachine(num_modules=num_modules, seed=seed)
    machine.register_all(_echo_handlers())
    return machine


def _two_stage(batch):
    """Stage 2's messages are computed from stage 1's replies."""
    replies = yield [(mid, "t:echo", (x,), None)
                     for mid, x in enumerate(batch)]
    got = sorted(r.payload[2] for r in replies)
    # second stage: echo the doubled values back through module 0
    replies = yield [(0, "t:echo", (2 * x,), None) for x in got]
    return sorted(r.payload[2] for r in replies)


def _one_stage(stage):
    """Issue one prebuilt stage; return its replies' payloads."""
    replies = yield stage
    return sorted(r.payload for r in replies)


class TestDriver:
    def test_stage_sequencing(self):
        machine = _echo_machine(4)
        assert run_batch(machine, "t:two_stage",
                         _two_stage([10, 20, 30])) == [20, 40, 60]

    def test_stageless_op_and_none_stage_are_free(self):
        machine = PIMMachine(num_modules=4, seed=1)

        def stageless():
            yield None
            yield []
            return "done"

        before = machine.snapshot()
        assert run_batch(machine, "t:stageless", stageless()) == "done"
        delta = machine.delta_since(before)
        assert delta.rounds == 0 and delta.io_time == 0

    def test_broadcast_marker_reaches_every_module(self):
        machine = _echo_machine(4)
        got = run_batch(machine, "t:bcast",
                        _one_stage([Broadcast("t:echo", (7,))]))
        assert [mid for _echo, mid, _value in got] == [0, 1, 2, 3]

    def test_broadcast_interleaved_with_sends_preserves_order(self):
        machine = PIMMachine(num_modules=2, seed=1)
        seen = []

        def h_log(ctx, value, tag=None):
            ctx.charge(1)
            seen.append((ctx.mid, value))

        machine.register("t:log", h_log)
        run_batch(machine, "t:mixed", _one_stage(
            [(0, "t:log", ("a",), None), Broadcast("t:log", ("b",)),
             (1, "t:log", ("c",), None)]))
        assert sorted(seen) == [(0, "a"), (0, "b"), (1, "b"), (1, "c")]

    def test_exception_in_route_runs_finally_cleanup(self):
        machine = _echo_machine(2)

        def boom():
            machine.cpu.alloc(64)
            try:
                yield [(0, "t:echo", (1,), None)]
                raise RuntimeError("mid-route failure")
            finally:
                machine.cpu.free(64)

        with pytest.raises(RuntimeError, match="mid-route failure"):
            run_batch(machine, "t:boom", boom())
        assert machine.cpu.metrics.shared_mem_in_use == 0

    def test_livelock_report_names_op_and_handler(self, monkeypatch):
        machine = PIMMachine(num_modules=2, seed=1)

        def h_pingpong(ctx, hops, tag=None):
            ctx.charge(1)
            ctx.forward(1 - ctx.mid, "t:pingpong", (hops + 1,))

        machine.register("t:pingpong", h_pingpong)
        # The driver drains with the machine's default bound; five rounds
        # are enough to see the report.
        monkeypatch.setattr(machine, "drain",
                            functools.partial(machine.drain, 5))
        with pytest.raises(LivelockError) as exc:
            run_batch(machine, "t:spinner",
                      _one_stage([(0, "t:pingpong", (0,), None)]))
        msg = str(exc.value)
        assert "t:spinner" in msg        # originating op label
        assert "t:pingpong" in msg       # pending handler fn id
        assert "5 rounds" in msg


class TestRejectedStage:
    """A stage the machine rejects part-way through its issue raises and
    leaves nothing staged: the next op drains its own messages only, and
    under a fault plan no envelope of it is left in flight."""

    GOOD = (0, "t:echo", (1,), None)
    BAD = {
        "size": ((1, "t:echo", (2,), None, 0), MalformedMessageError),
        "function": ((1, "t:nope", (2,), None), UnknownHandlerError),
        "module": ((7, "t:echo", (2,), None), ValueError),
    }

    @pytest.mark.parametrize("faults", [False, True],
                             ids=["fault-free", "fault-plan"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_the_next_op_sees_only_its_own_replies(self, bad, faults):
        machine = _echo_machine(2)
        if faults:
            machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        element, error = self.BAD[bad]
        with pytest.raises(error):
            run_batch(machine, "t:rejected",
                      _one_stage([self.GOOD, element]))
        assert not machine.pending
        if faults:
            assert machine._rdp.inflight == {}
        before = machine.snapshot()
        got = run_batch(machine, "t:next",
                        _one_stage([(1, "t:echo", (99,), None)]))
        assert got == [("echo", 1, 99)]
        assert machine.delta_since(before).rounds == 1
        assert machine.tasks_executed == 1


def _structures(machine):
    """One of every structure built on ``machine``, with a few items."""
    items = [(k, k) for k in range(0, 400, 5)]
    sl = PIMSkipList(machine)
    tree = PIMTree(machine, leaf_size=4, fanout=4)
    hp = HashPartitionedMap(machine)
    rp = RangePartitionedSkipList(machine)
    fg = FineGrainedSkipList(machine)
    for built in (sl, tree, hp, rp, fg):
        built.build(items)
    lsm = PIMLSMStore(machine, block_size=8, flush_threshold=40)
    lsm.batch_upsert(items)
    return (sl, tree, hp, rp, lsm, fg, PIMQueue(machine),
            PIMPriorityQueue(machine), Collectives(machine))


@pytest.mark.parametrize("faults", [False, True],
                         ids=["fault-free", "fault-plan"])
def test_batches_register_no_handlers(faults):
    """Every structure registers its handlers when it is built; a session
    of batches on all of them leaves the machine's registries as they
    were (installing a fault plan adds the protocol's envelope handler,
    before any batch runs)."""
    machine = PIMMachine(num_modules=4, seed=7)
    sl, tree, hp, rp, lsm, fg, fifo, pq, coll = _structures(machine)
    if faults:
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
    handlers = dict(machine._handlers)
    batch_handlers = dict(machine._batch_handlers)
    keys = [3, 50, 51, 395, 1000]
    for structure in (sl, tree, hp, rp, lsm):
        structure.apply_batch("get", keys)
        structure.apply_batch("successor", keys)
        structure.apply_batch("upsert", [(7, 7), (401, 1)])
        structure.apply_batch("delete", [10, 401])
        structure.apply_batch("range", [(0, 40), (300, 320)])
    sl.apply_group([("upsert", [(9, 9)]), ("successor", keys)])
    tree.apply_group([("get", keys), ("successor", keys)])
    sl.get(20)
    sl.successor(21)
    sl.rank(100)
    sl.select(3)
    sl.batch_range_auto([(0, 30)])
    fg.apply_batch("get", keys)
    fifo.enqueue_batch([1, 2, 3])
    fifo.dequeue_batch(2)
    pq.insert_batch([(5, "a"), (1, "b")])
    pq.extract_min_batch(1)
    coll.scatter(list(range(4)))
    coll.allreduce(lambda a, b: a + b, 0)
    coll.alltoall([{(i + 1) % 4: [i]} for i in range(4)])
    coll.histogram(list(range(20)), lambda r: r % 4)
    assert machine._handlers == handlers
    assert machine._batch_handlers == batch_handlers


class TestSendAllValidation:
    def test_wrong_arity_is_typed_error_at_issue_time(self):
        machine = PIMMachine(num_modules=2, seed=1)
        machine.register_all(_echo_handlers())
        with pytest.raises(MalformedMessageError):
            machine.send_all([(0, "t:echo", (1,))])  # 3 elements
        with pytest.raises(MalformedMessageError):
            machine.send_all([(0, "t:echo", (1,), None, 1, "extra")])

    @pytest.mark.parametrize("size", [0, -3, 1.5, "4", None])
    def test_bad_size_element_is_typed_error(self, size):
        machine = PIMMachine(num_modules=2, seed=1)
        machine.register_all(_echo_handlers())
        with pytest.raises(MalformedMessageError):
            machine.send_all([(0, "t:echo", (1,), None, size)])

    def test_valid_messages_still_pass(self):
        machine = PIMMachine(num_modules=2, seed=1)
        machine.register_all(_echo_handlers())
        machine.send_all([(0, "t:echo", (1,), None),
                          (1, "t:echo", (2,), None, 3)])
        assert len(machine.drain()) == 2


class TestDifferentialPipeline:
    """Satellite: random mixed batches through the unified pipeline must
    agree with the sequential sorted-list oracle, op for op."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_batches_match_oracle(self, seed):
        machine, sl, ref = make_skiplist(num_modules=8, n=150,
                                         seed=1000 + seed, stride=100)
        rng = random.Random(seed)
        space = 150 * 100 + 5000
        for _ in range(12):
            op = rng.choice(["search", "successor", "upsert", "delete",
                             "get"])
            if op == "get":
                keys = [rng.choice(sorted(ref.data))
                        if ref.data and rng.random() >= 0.4
                        else rng.randrange(space)
                        for _ in range(24)]
                assert sl.batch_get(keys) == [ref.get(k) for k in keys]
            elif op == "search":
                keys = [rng.randrange(space) for _ in range(20)]
                outs = batch_search(sl.struct, keys)
                for k, out in zip(keys, outs):
                    pred = ref.predecessor(k)
                    if pred is None:
                        assert out.pred.is_sentinel
                    else:
                        assert out.pred.key == pred[0]
            elif op == "successor":
                keys = [rng.randrange(space) for _ in range(20)]
                assert sl.batch_successor(keys) == \
                    [ref.successor(k) for k in keys]
            elif op == "upsert":
                pairs = []
                for _ in range(20):
                    if ref.data and rng.random() < 0.4:
                        pairs.append((rng.choice(sorted(ref.data)),
                                      rng.randrange(10_000)))
                    else:
                        pairs.append((rng.randrange(space),
                                      rng.randrange(10_000)))
                sl.batch_upsert(pairs)
                for k, v in pairs:
                    ref.upsert(k, v)
            else:  # delete
                live = sorted(ref.data)
                keys = [rng.choice(live) if live and rng.random() < 0.7
                        else rng.randrange(space) for _ in range(16)]
                sl.batch_delete(keys)
                for k in set(keys):
                    ref.delete(k)
        # end state must agree exactly
        assert sl.to_dict() == ref.as_dict()
        sl.check_integrity()


class TestReliableDelivery:
    """The pipeline's reliable-delivery protocol: a faulted machine and
    a clean one must produce identical batch results -- faults cost
    rounds, never answers."""

    def test_two_stage_op_is_exact_under_message_faults(self):
        from repro.sim.chaos import build_schedule

        def run(schedule=None):
            machine = PIMMachine(num_modules=4, seed=3)
            if schedule is not None:
                machine.install_fault_plan(
                    build_schedule(schedule, seed=5, num_modules=4))
            machine.register_all(_echo_handlers())
            result = run_batch(machine, "t:two_stage",
                               _two_stage([7, 1, 5, 3]))
            return result, machine.metrics.rounds

        clean, clean_rounds = run()
        for schedule in ("drop", "dup_delay", "corrupt", "mixed"):
            chaotic, chaotic_rounds = run(schedule)
            assert chaotic == clean, schedule
            assert chaotic_rounds >= clean_rounds

    def test_channel_diagnostics_name_inflight_state(self):
        machine = _echo_machine(4, seed=3)
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        run_batch(machine, "t:two_stage", _two_stage([2, 4, 6, 8]))
        rdp = machine._rdp
        assert rdp.inflight == {}  # every envelope acked at stage end
        assert "in-flight protocol retries" in rdp.describe()
        assert rdp.next_seq > 0  # sequence numbers were consumed

    def test_delivery_timeout_partitions_stuck_from_retrying(self):
        """The timeout report separates ops stuck on dead modules (only
        failover can help) from in-flight transient retries (a larger
        ``max_delivery_attempts`` might have landed them)."""
        from repro.core.skiplist import PIMSkipList
        from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec
        from repro.sim.config import MachineConfig
        from repro.sim.errors import DeliveryTimeout

        machine = PIMMachine(config=MachineConfig(
            num_modules=2, seed=1, max_delivery_attempts=3))
        sl = PIMSkipList(machine)
        sl.build((k, k) for k in range(0, 64, 2))
        machine.install_fault_plan(FaultPlan(FaultSpec(
            drop=0.9, crashes=(CrashEvent(mid=0, at_round=0),)), seed=4))
        with pytest.raises(DeliveryTimeout) as info:
            sl.batch_get(list(range(0, 64, 2)))
        msg = str(info.value)
        assert "stuck on dead module(s)" in msg
        assert "still retrying (transient faults)" in msg
        assert info.value.stuck > 0 and info.value.retrying > 0
        assert info.value.undelivered == \
            info.value.stuck + info.value.retrying
