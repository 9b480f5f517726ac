"""Tests for the bulk-synchronous machine engine (rounds, h-relations)."""

import pytest

from repro.sim.config import MachineConfig
from repro.sim.errors import UnknownHandlerError
from repro.sim.machine import PIMMachine


def echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x, tag)


def test_send_and_drain_roundtrip():
    m = PIMMachine(num_modules=4, seed=0)
    m.register("echo", echo)
    m.send(2, "echo", (21,), tag="a")
    replies = m.drain()
    assert len(replies) == 1
    assert replies[0].payload == 21
    assert replies[0].tag == "a"
    assert replies[0].src == 2


def test_unknown_handler_raises():
    # Handlers are resolved at issue time: the send itself raises, before
    # anything is staged for the next round.
    m = PIMMachine(num_modules=2, seed=0)
    with pytest.raises(UnknownHandlerError):
        m.send(0, "nope", ())
    assert not m.pending


def test_handler_collision_rejected():
    m = PIMMachine(num_modules=2, seed=0)
    m.register("f", echo)
    m.register("f", echo)  # same handler: idempotent
    with pytest.raises(ValueError):
        m.register("f", lambda bct, chunks: None)


def test_h_relation_is_max_per_module_not_total():
    """10 messages spread over 5 modules -> h=4 (2 in + 2 out each)."""
    m = PIMMachine(num_modules=5, seed=0)
    m.register("echo", echo)
    for mid in range(5):
        m.send(mid, "echo", (mid,))
        m.send(mid, "echo", (mid,))
    m.step()
    assert m.metrics.io_time == 4  # 2 received + 2 replies sent per module
    assert m.metrics.rounds == 1


def test_h_relation_concentrated_on_one_module():
    """10 messages to one module -> h = 10 in + 10 out = 20."""
    m = PIMMachine(num_modules=5, seed=0)
    m.register("echo", echo)
    for _ in range(10):
        m.send(3, "echo", (0,))
    m.step()
    assert m.metrics.io_time == 20


def test_forward_counts_on_both_rounds():
    """A module->module forward is sent in round t, received in t+1."""
    m = PIMMachine(num_modules=4, seed=0)

    def hop(bct, chunks):
        for mid, (dest,), _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            bct.sent[mid] += 1
            bct.stage_rows("land", [(dest, (), None, 1)])

    def land(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            bct.reply(mid, "done")

    m.register("hop", hop)
    m.register("land", land)
    m.send(0, "hop", (1,))
    m.step()  # round 1: recv at 0 (1) + sent by 0 (1) -> h=2
    assert m.metrics.io_time == 2
    replies = m.drain()  # round 2: recv at 1 (1) + reply sent (1) -> h=2
    assert m.metrics.io_time == 4
    assert m.metrics.rounds == 2
    assert [r.payload for r in replies] == ["done"]


def test_broadcast_is_h1_per_round():
    m = PIMMachine(num_modules=8, seed=0)
    received = []

    def noop(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            received.append(mid)

    m.register("noop", noop)
    m.broadcast("noop", ())
    m.step()
    assert sorted(received) == list(range(8))
    assert m.metrics.io_time == 1  # one message to/from each module


def test_message_size_weights_h():
    m = PIMMachine(num_modules=2, seed=0)
    m.register("echo", echo)
    m.send(0, "echo", (1,), size=7)
    m.step()
    # 7 units received + 1 reply sent
    assert m.metrics.io_time == 8


def test_pim_time_is_sum_of_round_maxima():
    m = PIMMachine(num_modules=2, seed=0)

    def work(bct, chunks):
        for mid, (units,), _tag, _size in bct.rows(chunks):
            bct.work[mid] += units

    m.register("work", work)
    m.send(0, "work", (10,))
    m.send(1, "work", (3,))
    m.step()  # round max = 10
    m.send(1, "work", (5,))
    m.step()  # round max = 5
    assert m.metrics.pim_time == 15
    # Per-module work accumulators sync at measurement points.
    m._sync_pim_work()
    assert m.metrics.pim_work_per_module == [10.0, 8.0]


def test_sync_cost_counts_rounds_times_logp():
    m = PIMMachine(num_modules=16, seed=0)
    m.register("echo", echo)
    for _ in range(3):
        m.send(0, "echo", (1,))
        m.step()
    assert m.metrics.sync_cost == pytest.approx(3 * 4.0)


def test_drain_raises_on_livelock():
    m = PIMMachine(num_modules=2, seed=0)

    def pingpong(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            bct.sent[mid] += 1
            bct.stage_rows("pingpong", [(1 - mid, (), None, 1)])

    m.register("pingpong", pingpong)
    m.send(0, "pingpong", ())
    with pytest.raises(RuntimeError):
        m.drain(max_rounds=50)


def test_step_with_empty_queues_is_free():
    m = PIMMachine(num_modules=2, seed=0)
    assert m.step() == []
    assert m.metrics.rounds == 0
    assert m.metrics.io_time == 0


def test_bad_module_id_rejected():
    m = PIMMachine(num_modules=2, seed=0)
    with pytest.raises(ValueError):
        m.send(2, "echo", ())
    with pytest.raises(ValueError):
        m.send(-1, "echo", ())


def test_config_conflicts_and_defaults():
    cfg = MachineConfig(num_modules=4, seed=9)
    m = PIMMachine(config=cfg)
    assert m.num_modules == 4
    with pytest.raises(ValueError):
        PIMMachine(num_modules=8, config=cfg)
    with pytest.raises(ValueError):
        PIMMachine()


def test_random_module_in_range_and_deterministic():
    a = PIMMachine(num_modules=8, seed=5)
    b = PIMMachine(num_modules=8, seed=5)
    seq_a = [a.random_module() for _ in range(20)]
    seq_b = [b.random_module() for _ in range(20)]
    assert seq_a == seq_b
    assert all(0 <= x < 8 for x in seq_a)


def test_tracer_round_logs():
    m = PIMMachine(num_modules=2, seed=0, trace_accesses=True)

    def toucher(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 2
            bct.touch(mid, "obj")
            bct.touch(mid, "obj")

    m.register("t", toucher)
    m.send(0, "t", ())
    m.send(1, "t", ())
    m.step()
    assert len(m.tracer.rounds) == 1
    log = m.tracer.rounds[0]
    assert log.h == 1  # one message received per module, no replies
    assert log.tasks_executed == 2
    assert log.pim_work_max == 2
    assert m.tracer.access.round_counter(0)["obj"] == 4


def test_snapshot_delta_isolates_batch():
    m = PIMMachine(num_modules=2, seed=0)
    m.register("echo", echo)
    m.send(0, "echo", (1,))
    m.drain()
    before = m.snapshot()
    m.send(1, "echo", (2,))
    m.drain()
    d = m.delta_since(before)
    assert d.rounds == 1
    assert d.io_time == 2
    assert d.pim_work_per_module == (0.0, 1.0)
