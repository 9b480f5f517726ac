"""The pre-PR-18 coalescer as the executable spec of the current one.

``reference_next_batch`` is the old ``Coalescer.next_batch`` body,
verbatim: it walks every tenant the controller has ever seen, several
times a tick, and pops queues directly.  The shipped coalescer visits
only tenants with queued work and leaves through
``AdmissionController.take``; it must build exactly the batches the old
one built.  Hypothesis drives both over the same generated queues.
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
        batch, expired = new.next_batch(new_ctl, tick)
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
