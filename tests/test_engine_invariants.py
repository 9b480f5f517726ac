"""Metric-accounting invariants of the round engine.

These pin down the accounting contract the fast-path engine must keep:
what an empty round costs (nothing -- it doesn't happen), how a
module-to-module forward is split across rounds, what qrqw sees, and the
exact semantics of ``send_all`` sizes and ``drain(max_rounds)``.
"""

import pytest

from repro.sim.machine import PIMMachine


def echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x, tag)


def _forward(bct, mid, dest, fn, args):
    """Stage one continuation task and charge its send."""
    bct.sent[mid] += 1
    bct.stage_rows(fn, [(dest, args, None, 1)])


# ---------------------------------------------------------------------------
# empty rounds
# ---------------------------------------------------------------------------

def test_empty_step_charges_nothing():
    m = PIMMachine(num_modules=8, seed=0)
    m.register("echo", echo)
    before = m.snapshot()
    assert m.step() == []
    assert m.step() == []
    d = m.delta_since(before)
    assert d.rounds == 0
    assert d.io_time == 0
    assert d.sync_cost == 0
    assert d.pim_time == 0
    assert d.messages == 0


def test_out_of_round_charge_does_not_feed_pim_time():
    # Bulk construction charges module.charge() outside any round; that
    # work counts toward cumulative module work but must not leak into
    # the next round's pim_time maximum.
    m = PIMMachine(num_modules=4, seed=0)
    m.register("echo", echo)
    m.modules[1].charge(1000.0)
    before = m.snapshot()
    m.send(1, "echo", (1,))
    m.step()
    d = m.delta_since(before)
    assert d.pim_time == 1.0  # the echo's single unit, not 1001
    assert m.modules[1].work == 1001.0


# ---------------------------------------------------------------------------
# forward accounting
# ---------------------------------------------------------------------------

def test_forward_counted_once_sent_once_received():
    # A forward is one message sent by the source module in its round and
    # one received by the destination in the delivery round (the paper
    # routes offloads via shared memory, but accounts them as one h-unit
    # on each side).
    m = PIMMachine(num_modules=2, seed=0)

    def relay(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            _forward(bct, mid, 1, "sink", ())

    def sink(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            bct.reply(mid, "ok")

    m.register("relay", relay)
    m.register("sink", sink)

    before = m.snapshot()
    m.send(0, "relay", ())

    m.step()  # round 1: module 0 receives the send, emits the forward
    r1 = m.delta_since(before)
    assert r1.rounds == 1
    # h = max over modules of sent+recv: module 0 received 1 and sent 1.
    assert r1.io_time == 2
    assert r1.messages == 2  # the CPU send (recv) + the forward (sent)

    m.step()  # round 2: module 1 receives the forward, replies
    r2 = m.delta_since(before)
    assert r2.rounds == 2
    # Round 2: module 1 received the forward and sent the reply -> h = 2.
    assert r2.io_time == 4
    # The forward is NOT double-counted: round 2 adds its delivery (1)
    # plus the reply (1).
    assert r2.messages == 4


def test_forward_delivered_next_round_not_same_round():
    m = PIMMachine(num_modules=2, seed=0)
    log = []

    def relay(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            log.append(("relay", bct.machine.metrics.rounds))
            _forward(bct, mid, 1, "sink", ())

    def sink(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            log.append(("sink", bct.machine.metrics.rounds))

    m.register("relay", relay)
    m.register("sink", sink)
    m.send(0, "relay", ())
    m.drain()
    (_, r_relay), (_, r_sink) = log
    assert r_sink == r_relay + 1


# ---------------------------------------------------------------------------
# qrqw contention accounting
# ---------------------------------------------------------------------------

def test_qrqw_round_touch_drives_pim_time():
    m = PIMMachine(num_modules=2, seed=0, contention_model="qrqw")

    def probe(bct, chunks):
        for mid, (obj,), _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            bct.touch(mid, obj)

    m.register("probe", probe)
    before = m.snapshot()
    # 5 tasks on module 0 all touch the same object: effective round time
    # is max(work=5, hottest queue=5) = 5.
    for _ in range(5):
        m.send(0, "probe", ("hot",))
    m.step()
    assert m.delta_since(before).pim_time == 5.0

    # 5 tasks touching distinct objects: max(work=5, hottest=1) = 5, but
    # 1 task touching one object 9 times: max(work=1, hottest=9) = 9.
    before = m.snapshot()

    def hammer(bct, chunks):
        for mid, _args, _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            for _ in range(9):
                bct.touch(mid, "x")

    m.register("hammer", hammer)
    m.send(1, "hammer", ())
    m.step()
    assert m.delta_since(before).pim_time == 9.0


def test_qrqw_round_touch_cleared_between_active_rounds():
    # The engine clears round_touch lazily (on activation), so touches
    # from an earlier round must not inflate a later round's maximum.
    m = PIMMachine(num_modules=1, seed=0, contention_model="qrqw")

    def touch_n(bct, chunks):
        for mid, (n,), _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            for _ in range(n):
                bct.touch(mid, "obj")

    m.register("touch_n", touch_n)
    m.send(0, "touch_n", (7,))
    m.step()
    before = m.snapshot()
    m.send(0, "touch_n", (2,))
    m.step()
    # Second round sees only its own 2 touches: max(work=1, queue=2) = 2.
    assert m.delta_since(before).pim_time == 2.0


# ---------------------------------------------------------------------------
# send_all message sizes
# ---------------------------------------------------------------------------

def test_send_all_accepts_explicit_size():
    m = PIMMachine(num_modules=4, seed=0)
    m.register("echo", echo)
    before = m.snapshot()
    m.send_all([
        (0, "echo", (1,), None),          # default size 1
        (1, "echo", (2,), None, 3),       # explicit 3 message units
    ])
    m.step()
    d = m.delta_since(before)
    # Module 1 received 3 units and replied 1 -> h = 4.
    assert d.io_time == 4
    assert d.messages == 4 + 2  # 1+3 delivered, 2 replies


def test_send_all_size_matches_loop_of_sends():
    mk = lambda: PIMMachine(num_modules=4, seed=0)
    msgs = [(i % 4, "echo", (i,), None, 1 + i % 3) for i in range(16)]

    m1 = mk()
    b1 = m1.snapshot()
    m1.register("echo", echo)
    m1.send_all(msgs)
    m1.drain()

    m2 = mk()
    b2 = m2.snapshot()
    m2.register("echo", echo)
    for dest, fn, args, tag, size in msgs:
        m2.send(dest, fn, args, tag=tag, size=size)
    m2.drain()

    assert m1.delta_since(b1).as_dict() == m2.delta_since(b2).as_dict()


# ---------------------------------------------------------------------------
# drain bound
# ---------------------------------------------------------------------------

def _register_pingpong(m):
    def pingpong(bct, chunks):
        for mid, (n,), _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            _forward(bct, mid, 1 - mid, "pingpong", (n + 1,))

    m.register("pingpong", pingpong)


def test_drain_respects_max_rounds_exactly():
    m = PIMMachine(num_modules=2, seed=0)
    _register_pingpong(m)
    m.send(0, "pingpong", (0,))
    with pytest.raises(RuntimeError):
        m.drain(max_rounds=10)
    # Exactly 10 rounds ran, not 11.
    assert m.metrics.rounds == 10
    assert m.pending


def test_drain_error_reports_rounds_and_queues():
    m = PIMMachine(num_modules=2, seed=0)
    _register_pingpong(m)
    m.send(0, "pingpong", (0,))
    with pytest.raises(RuntimeError) as ei:
        m.drain(max_rounds=7)
    msg = str(ei.value)
    assert "7 rounds" in msg
    assert "max_rounds=7" in msg
    assert "pending tasks per module" in msg
    assert "livelock" in msg


def test_drain_finishing_under_bound_is_fine():
    m = PIMMachine(num_modules=2, seed=0)
    m.register("echo", echo)
    m.send(0, "echo", (5,))
    replies = m.drain(max_rounds=1)
    assert [r.payload for r in replies] == [5]
    assert not m.pending
