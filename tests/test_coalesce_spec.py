"""The pre-PR-18 coalescer as the executable spec of the current one.

``reference_next_batch`` is the old ``Coalescer.next_batch`` body,
verbatim: it walks every tenant the controller has ever seen, several
times a tick, and pops queues directly.  The shipped coalescer visits
only tenants with queued work and leaves through
``AdmissionController.take``; for a structure that declares no shared
reads it must build exactly the batches the old one built, tick for
tick.  Hypothesis drives both over the same generated queues.

With declared tick groups (``PIMSkipList.TICK_GROUPS``, ``PIMTree``'s)
a tick may hold one same-op batch per class of a group, and there is no
old function to copy: the second half of this file states what a tick
is as properties of generated queues -- program order, a request behind
a write of its own tenant only after that write in the same tick, what
a tick may mix and in which order, and how long a class can wait -- and
pins the write group's drain order on fixed queues.
"""

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.skiplist import PIMSkipList
from repro.serve import (
    AdmissionController,
    Coalescer,
    Refusal,
    RefusalReason,
    Request,
    Server,
)
from repro.serve.admission import TenantState
from repro.serve.coalesce import MergedBatch
from repro.sim.machine import PIMMachine
from repro.structures.pimtree import PIMTree
from tests.conftest import DETERMINISTIC


def reference_next_batch(self, tenants: Dict[str, TenantState], tick: int,
                         ) -> Tuple[Optional[MergedBatch], List[Request]]:
    expired: List[Request] = []
    for state in tenants.values():
        while state.queue and state.queue[0].expired(tick):
            expired.append(state.queue.popleft())

    heads = [s.queue[0] for s in tenants.values() if s.queue]
    if not heads:
        return None, expired
    op = min(heads, key=lambda r: r.id).op

    active = sorted(name for name, s in tenants.items() if s.queue)
    offset = self._rr % len(active)
    order = active[offset:] + active[:offset]
    self._rr += 1

    items: List[Any] = []
    slices: List[Tuple[Request, int, int]] = []
    progress = True
    while progress and len(items) < self.max_batch_items:
        progress = False
        for name in order:
            queue = tenants[name].queue
            taken = 0
            while queue and queue[0].op == op and taken < self.quantum:
                req = queue[0]
                if req.expired(tick):
                    expired.append(queue.popleft())
                    continue
                # An oversized request rides alone; otherwise stop
                # at the batch bound and leave it for the next one.
                if items and len(items) + req.items > \
                        self.max_batch_items:
                    break
                queue.popleft()
                slices.append((req, len(items),
                               len(items) + req.items))
                items.extend(req.payload)
                taken += max(1, req.items)
                progress = True
                if len(items) >= self.max_batch_items:
                    break
            if len(items) >= self.max_batch_items:
                break
    if not slices:
        return None, expired
    return MergedBatch(op=op, items=items, slices=slices), expired


# One generated request: (tenant index, op, payload size, deadline, the
# tick it is admitted before).  Sizes are mostly small with a tail past
# ``max_batch_items`` so the oversize-rides-alone and stop-at-the-bound
# branches both run; deadlines are absent, live or already expired.
_requests = st.lists(
    st.tuples(
        st.integers(0, 39),
        st.sampled_from(["get", "upsert", "range"]),
        st.one_of(st.integers(0, 4), st.integers(0, 600)),
        st.one_of(st.none(), st.integers(0, 8)),
        st.integers(1, 6)),
    min_size=1, max_size=80)


@settings(max_examples=200, deadline=None)
@given(
    tenants=st.integers(1, 40),
    creation=st.randoms(use_true_random=False),
    requests=_requests,
    ticks=st.integers(1, 6),
    quantum=st.integers(1, 64),
    max_batch_items=st.integers(1, 512),
)
def test_batches_equal_the_old_coalescers(tenants, creation, requests, ticks,
                                          quantum, max_batch_items):
    # Tenants are created in an order that is not name order (refusals
    # go out in creation order); those no request names stay idle.
    names = [f"t{i:02d}" for i in range(tenants)]
    creation.shuffle(names)
    old_ctl, new_ctl = AdmissionController(), AdmissionController()
    for name in names:
        old_ctl.tenant(name)
        new_ctl.tenant(name)
    old = Coalescer(max_batch_items=max_batch_items, quantum=quantum)
    new = Coalescer(max_batch_items=max_batch_items, quantum=quantum)

    serial: Dict[int, int] = {}      # request id -> position in `requests`
    admitted: Dict[str, List[int]] = {name: [] for name in names}
    left: Dict[str, List[int]] = {name: [] for name in names}

    def outcome(batch, expired):
        gone = [serial[r.id] for r in expired]
        if batch is None:
            return None, gone
        return (batch.op, batch.items,
                [(serial[r.id], lo, hi) for r, lo, hi in batch.slices]), gone

    for tick in range(1, ticks + 1):
        for k, (who, op, size, deadline, arrives) in enumerate(requests):
            if arrives != tick:
                continue
            name = names[who % tenants]
            for ctl in (old_ctl, new_ctl):
                request = Request(name, op, list(range(size)), deadline)
                serial[request.id] = k
                assert ctl.admit(request, tick - 1) is None
            admitted[name].append(k)

        expect = outcome(*reference_next_batch(old, old_ctl.tenants, tick))
        batches, expired = new.next_batch(new_ctl, tick)
        assert len(batches) <= 1  # no groups declared: a tick is a batch
        batch = batches[0] if batches else None
        assert outcome(batch, expired) == expect
        assert new._rr == old._rr

        taken = [] if batch is None else [r for r, _, _ in batch.slices]
        deadlines = [r.deadline for r in taken if r.deadline is not None]
        if taken:
            assert batch.min_deadline == (min(deadlines) if deadlines
                                          else None)
        # Only heads left, in each tenant's order ...
        for request in expired + taken:
            left[request.tenant].append(serial[request.id])
        for name in names:
            gone = sorted(left[name], key=admitted[name].index)
            assert gone == admitted[name][:len(gone)]
        # ... and the controller's running count and active set are a
        # recount of the queues.
        queues = {name: state.queue
                  for name, state in new_ctl.tenants.items() if state.queue}
        assert new_ctl.pending == sum(len(q) for q in queues.values())
        assert new_ctl.heads == {name: q[0] for name, q in queues.items()}


# -- a tick over declared groups, as properties --------------------------

WRITES = frozenset({"upsert", "delete"})
DECLARED = [(), PIMSkipList.TICK_GROUPS, PIMTree.TICK_GROUPS]


def _group_of(op, groups):
    return next((g for g in groups if op in g), frozenset([op]))

_mixed_requests = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.sampled_from(["get", "successor", "range", "upsert", "delete"]),
        st.one_of(st.integers(0, 4), st.integers(0, 40)),
        st.one_of(st.none(), st.integers(0, 8)),
        st.integers(1, 6)),
    min_size=1, max_size=60)


@DETERMINISTIC
@given(
    tenants=st.integers(1, 12),
    requests=_mixed_requests,
    ticks=st.integers(1, 8),
    groups=st.sampled_from(DECLARED),
    quantum=st.integers(1, 16),
    max_batch_items=st.integers(1, 64),
)
def test_a_tick_over_a_declared_set(tenants, requests, ticks, groups,
                                    quantum, max_batch_items):
    ctl = AdmissionController()
    coalescer = Coalescer(max_batch_items=max_batch_items, quantum=quantum)
    admitted: Dict[str, List[Request]] = {}
    gone: Dict[str, List[Request]] = {}

    for tick in range(1, ticks + 1):
        for who, op, size, deadline, arrives in requests:
            if arrives == tick:
                request = Request(f"t{who % tenants:02d}", op,
                                  list(range(size)), deadline)
                assert ctl.admit(request, tick - 1) is None
                admitted.setdefault(request.tenant, []).append(request)
        # What the tick starts from: per tenant, what is still queued,
        # and the live heads (an expired prefix is evicted, not served).
        queued = {name: list(state.queue)
                  for name, state in ctl.tenants.items() if state.queue}
        live = []
        for queue in queued.values():
            rest = [r for i, r in enumerate(queue)
                    if not all(e.expired(tick) for e in queue[:i + 1])]
            live += rest[:1]

        batches, expired = coalescer.next_batch(ctl, tick, groups)

        # A tick is the oldest live head's group: its write first when
        # a head has it, else the oldest head's class, and every live
        # head of the group rides; same-op batches, one a class.
        ops = [batch.op for batch in batches]
        assert len(set(ops)) == len(ops)
        if live:
            oldest = min(live, key=lambda r: r.id)
            group = _group_of(oldest.op, groups)
            assert set(ops) <= group
            assert set(ops) >= {r.op for r in live} & group
            lead = group & WRITES & {r.op for r in live}
            assert ops[0] == (min(lead) if lead else oldest.op)
            assert not set(ops[1:]) & WRITES
        else:
            assert not ops
        for batch in batches:
            assert all(r.op == batch.op for r, _, _ in batch.slices)
            assert [r.payload for r, _, _ in batch.slices] \
                == [batch.items[lo:hi] for _, lo, hi in batch.slices]
            assert len(batch.items) <= max_batch_items \
                or sum(hi > lo for _, lo, hi in batch.slices) == 1
            deadlines = [r.deadline for r, _, _ in batch.slices
                         if r.deadline is not None]
            assert batch.min_deadline == min(deadlines, default=None)
        assert all(r.expired(tick) for r in expired)

        taken = [r for batch in batches for r, _, _ in batch.slices]
        batch_of = {r.id: b for b, batch in enumerate(batches)
                    for r, _, _ in batch.slices}
        for request in taken:
            # Nothing rides a tick behind a write of its own tenant
            # unless that write runs first in it: in an earlier batch,
            # or earlier in the same one.
            ahead = queued[request.tenant]
            ahead = [e for e in ahead[:ahead.index(request)]
                     if e.op in WRITES and not e.expired(tick)]
            assert all(batch_of.get(e.id, len(batches))
                       <= batch_of[request.id] for e in ahead)
        for request in expired + taken:
            gone.setdefault(request.tenant, []).append(request)
        for name, left in gone.items():
            # Program order: what has left a tenant's queue is a prefix
            # of what it submitted, and its answers come in that order.
            assert sorted(left, key=lambda r: r.id) \
                == admitted[name][:len(left)]
        for name in {r.tenant for r in taken}:
            mine = [r.id for r in taken if r.tenant == name]
            assert mine == sorted(mine)
        assert ctl.pending == sum(len(s.queue) for s in ctl.tenants.values())


@DETERMINISTIC
@given(
    clients=st.integers(1, 24),
    program=st.lists(st.sampled_from(
        ["get", "successor", "range", "upsert", "delete"]),
        min_size=1, max_size=40),
    groups=st.sampled_from(DECLARED),
    ticks=st.integers(1, 30),
)
def test_no_class_waits_more_than_a_cycle_of_kinds(clients, program, groups,
                                                   ticks):
    """Closed-loop tenants (one request in flight each, the next one
    submitted when it is served) and no batch bound in the way: a
    request leaves within G ticks of its admission, G the number of tick
    kinds -- every class outside the declared groups is a kind of its
    own, a group is one.  (A deeper queue can wait longer:
    FIFO-by-oldest-head bounds a head's wait by the requests older than
    it, and behind a head those need not be heads.)"""
    kinds = {_group_of(op, groups) for op in program}
    ctl = AdmissionController()
    coalescer = Coalescer(max_batch_items=10_000, quantum=10_000)
    cursor = 0
    admitted_at: Dict[int, int] = {}
    for tick in range(1, ticks + 1):
        for c in range(clients):
            if f"c{c:02d}" not in ctl.heads:
                request = Request(f"c{c:02d}", program[cursor % len(program)],
                                  [cursor])
                cursor += 1
                assert ctl.admit(request, tick - 1) is None
                admitted_at[request.id] = tick
        batches, _ = coalescer.next_batch(ctl, tick, groups)
        for batch in batches:
            for request, _, _ in batch.slices:
                del admitted_at[request.id]
        assert all(tick - since < len(kinds)
                   for since in admitted_at.values())


def test_a_write_group_drains_the_write_first_and_only_heads_ride():
    """The skip list's Upsert + Successor tick on fixed queues: the
    Upsert batch first, whoever's head is a Successor oldest; then the
    Successors at the heads as they stand -- a tenant's Successor behind
    its own Upsert rides, in order; one ahead of its own Upsert rides
    and leaves that Upsert for a later tick; nothing behind another
    class rides."""
    ctl = AdmissionController()
    program = [("a", "successor", [1]),   # oldest head: a Successor
               ("b", "upsert", [(2, 2)]),
               ("b", "successor", [2]),   # behind b's Upsert: rides
               ("a", "upsert", [(3, 3)]),  # behind a's Successor: waits
               ("c", "get", [4]),
               ("c", "successor", [5]),   # behind a Get: not a head
               ("d", "upsert", [(6, 6)])]
    ids = {}
    for tenant, op, payload in program:
        request = Request(tenant, op, payload)
        ids[request.id] = (tenant, op)
        assert ctl.admit(request, 0) is None
    coalescer = Coalescer()

    def tick(n):
        batches, expired = coalescer.next_batch(ctl, n,
                                                PIMSkipList.TICK_GROUPS)
        assert expired == []
        return [(b.op, [ids[r.id][0] for r, _, _ in b.slices])
                for b in batches]

    assert tick(1) == [("upsert", ["b", "d"]), ("successor", ["a", "b"])]
    assert tick(2) == [("upsert", ["a"])]  # older than c's Get
    assert tick(3) == [("get", ["c"])]
    assert tick(4) == [("successor", ["c"])]
    assert ctl.pending == 0


def _server():
    def standby():
        return PIMSkipList(PIMMachine(num_modules=4, seed=7))
    live = standby()
    live.build([(i, i * 10) for i in range(0, 100, 2)])
    return Server(live, standby)


def test_stop_and_abort_leave_through_the_controller():
    async def scenario(leave):
        server = _server()
        await server.start()
        # Admitted at the call; the scheduler has not run a tick yet.
        futures = [server.submit(tenant, "get", [2 * i])
                   for i, tenant in enumerate("abacab")]
        assert server.admission.pending == 6
        assert sorted(server.admission.heads) == ["a", "b", "c"]
        await leave(server)
        return server, await asyncio.gather(*futures, return_exceptions=True)

    async def abort(server):
        server._abort_pending(RuntimeError("scheduler died"))
        await server.stop()

    for leave in (Server.stop, abort):
        server, outcomes = asyncio.run(scenario(leave))
        assert server.admission.pending == 0
        assert server.admission.heads == {}
        assert all(not state.queue
                   for state in server.admission.tenants.values())
        if leave is abort:
            assert all(isinstance(o, RuntimeError) for o in outcomes)
        else:
            assert all(isinstance(o, Refusal)
                       and o.reason is RefusalReason.SHUTDOWN
                       for o in outcomes)
            assert server.status()["tenants"]["a"]["refused"] == \
                {"shutdown": 3}
