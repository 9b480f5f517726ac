"""The serving layer: admission, coalescing, policy, health, server.

Covers the four stages unit by unit, then drives the asyncio server
end to end -- fault-free, through a failover, through a breaker trip
into degraded mode (stale reads + typed write refusals), and through a
forced stall (the watchdog must turn a hang into a loud error).

Also pins the :class:`repro.recovery.DegradedResult` contract the
server extends: always falsy, machine-readable ``reason``, value-
carrying stale reads included.
"""

import asyncio

import pytest

from repro.core.skiplist import PIMSkipList
from repro.recovery import (
    DegradedReason,
    DegradedResult,
    RecoveryManager,
)
from repro.serve import (
    AdmissionController,
    Coalescer,
    HealthMonitor,
    HealthState,
    Refusal,
    RefusalReason,
    Request,
    ResiliencePolicy,
    Server,
    ServerConfig,
    ServerStalled,
    TokenBucket,
    jittered_backoff,
)
from repro.serve.coalesce import MergedBatch
from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec, build_schedule
from repro.sim.machine import PIMMachine
from repro.verify.soak import soak_session


def _standby_factory(machines, num_modules=4, seed=7):
    def standby():
        m = PIMMachine(num_modules=num_modules, seed=seed)
        machines.append(m)
        return PIMSkipList(m)
    return standby


def _server(schedule=None, config=None, items=None, fault_seed=0,
            num_modules=4):
    machines = []
    standby = _standby_factory(machines, num_modules=num_modules)
    sl = standby()
    sl.build(items or [(i, i * 10) for i in range(0, 100, 2)])
    if schedule is not None:
        machines[0].install_fault_plan(
            build_schedule(schedule, fault_seed, num_modules))
    return Server(sl, standby, config or ServerConfig()), machines


def _run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# admission


class TestTokenBucket:
    def test_unmetered_always_admits(self):
        bucket = TokenBucket(None, 1)
        assert all(bucket.try_take(10 ** 6) for _ in range(3))

    def test_refill_is_tick_driven_and_capped(self):
        bucket = TokenBucket(rate=2.0, burst=8)
        assert bucket.try_take(8)
        assert not bucket.try_take(1)  # drained
        bucket.advance(tick=3)         # +6 tokens
        assert bucket.try_take(6)
        assert not bucket.try_take(1)
        bucket.advance(tick=100)       # refill capped at burst
        assert bucket.try_take(8)
        assert not bucket.try_take(1)

    def test_advance_is_monotonic(self):
        bucket = TokenBucket(rate=1.0, burst=4)
        bucket.try_take(4)
        bucket.advance(tick=2)
        bucket.advance(tick=2)  # same tick twice must not double-refill
        bucket.advance(tick=1)  # going backwards must not refill
        assert bucket.try_take(2)
        assert not bucket.try_take(1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestAdmission:
    def test_queue_bound_yields_typed_overload(self):
        ctl = AdmissionController(max_pending=2)
        refused = None
        for i in range(3):
            refused = ctl.admit(Request("t", "get", [i]), tick=0)
        assert isinstance(refused, Refusal)
        assert not refused  # typed refusals are falsy
        assert refused.reason is RefusalReason.OVERLOADED
        assert "queue full" in refused.detail
        assert ctl.pending == 2
        metrics = ctl.tenant("t").metrics
        assert metrics.submitted == 3
        assert metrics.admitted == 2
        assert metrics.refused == {"overloaded": 1}

    def test_quota_exhaustion_yields_typed_overload(self):
        ctl = AdmissionController(rate=1.0, burst=2, max_pending=100)
        assert ctl.admit(Request("t", "get", [1, 2]), tick=0) is None
        refused = ctl.admit(Request("t", "get", [3]), tick=0)
        assert refused is not None
        assert refused.reason is RefusalReason.OVERLOADED
        assert "quota" in refused.detail
        # the bucket refills on the virtual clock, not wall time
        assert ctl.admit(Request("t", "get", [3]), tick=5) is None

    def test_tenants_are_isolated(self):
        ctl = AdmissionController(max_pending=1)
        assert ctl.admit(Request("a", "get", [1]), 0) is None
        assert ctl.admit(Request("a", "get", [2]), 0) is not None
        assert ctl.admit(Request("b", "get", [3]), 0) is None


# ---------------------------------------------------------------------------
# coalescing


class TestCoalescer:
    def test_merges_same_op_across_tenants_with_slices(self):
        ctl = AdmissionController()
        reqs = [Request(t, "get", [k, k + 1]) for t, k in
                (("a", 0), ("b", 10), ("c", 20))]
        for r in reqs:
            ctl.admit(r, 0)
        [batch], expired = Coalescer().next_batch(ctl, tick=1)
        assert expired == []
        assert batch.op == "get"
        assert len(batch.items) == 6
        # every request's slice addresses exactly its own payload
        for req, lo, hi in batch.slices:
            assert batch.items[lo:hi] == req.payload
        assert sorted(req.tenant for req, _, _ in batch.slices) == \
            ["a", "b", "c"]

    def test_op_classes_never_mix_and_fifo_picks_oldest(self):
        ctl = AdmissionController()
        first = Request("a", "upsert", [(1, 1)])
        ctl.admit(first, 0)
        ctl.admit(Request("b", "get", [5]), 0)
        coalescer = Coalescer()
        [batch], _ = coalescer.next_batch(ctl, 1)
        assert batch.op == "upsert"  # oldest waiting request wins
        assert len(batch.slices) == 1
        [batch2], _ = coalescer.next_batch(ctl, 2)
        assert batch2.op == "get"

    def test_round_robin_rotates_the_lead_tenant(self):
        ctl = AdmissionController()
        for t in ("a", "b", "c"):
            for i in range(2):
                ctl.admit(Request(t, "get", [i]), 0)
        coalescer = Coalescer(max_batch_items=3)
        lead1 = coalescer.next_batch(ctl, 1)[0][0].slices[0][0].tenant
        lead2 = coalescer.next_batch(ctl, 2)[0][0].slices[0][0].tenant
        assert lead1 != lead2  # the rotating offset moved

    def test_preserves_per_tenant_program_order(self):
        ctl = AdmissionController()
        reqs = [Request("a", "get", [i]) for i in range(6)]
        for r in reqs:
            ctl.admit(r, 0)
        coalescer = Coalescer(max_batch_items=2)
        seen = []
        while True:
            batches, _ = coalescer.next_batch(ctl, 1)
            if not batches:
                break
            [batch] = batches
            seen += [r.id for r, _, _ in batch.slices]
        assert seen == sorted(seen) == [r.id for r in reqs]

    def test_oversized_request_rides_alone(self):
        ctl = AdmissionController()
        big = Request("a", "get", list(range(100)))
        ctl.admit(Request("b", "get", [1]), 0)
        ctl.admit(big, 0)
        coalescer = Coalescer(max_batch_items=8)
        [first], _ = coalescer.next_batch(ctl, 1)
        [second], _ = coalescer.next_batch(ctl, 2)
        batches = {len(b.slices): b for b in (first, second)}
        assert set(batches) == {1, 1} or len(first.slices) + \
            len(second.slices) == 2
        solo = first if len(first.items) == 100 else second
        assert [r.id for r, _, _ in solo.slices] == [big.id]

    def test_expired_heads_are_evicted_not_dispatched(self):
        ctl = AdmissionController()
        stale = Request("a", "get", [1], deadline=1)
        fresh = Request("a", "get", [2])
        ctl.admit(stale, 0)
        ctl.admit(fresh, 0)
        [batch], expired = Coalescer().next_batch(ctl, tick=5)
        assert [r.id for r in expired] == [stale.id]
        assert [r.id for r, _, _ in batch.slices] == [fresh.id]


# ---------------------------------------------------------------------------
# health


class TestHealthMonitor:
    def test_legal_cycle_is_recorded(self):
        health = HealthMonitor()
        health.to(HealthState.FAILED_OVER, 3, "failover")
        health.to(HealthState.DEGRADED, 5, "trip")
        health.to(HealthState.RECOVERING, 9, "cooldown over")
        health.to(HealthState.HEALTHY, 10, "probe ok")
        assert [t.state for t in health.history] == [
            HealthState.HEALTHY, HealthState.FAILED_OVER,
            HealthState.DEGRADED, HealthState.RECOVERING,
            HealthState.HEALTHY]
        assert health.as_dict()["state"] == "healthy"

    def test_same_state_is_a_noop(self):
        health = HealthMonitor()
        health.to(HealthState.HEALTHY, 1)
        assert len(health.history) == 1

    def test_illegal_edge_raises(self):
        health = HealthMonitor()
        with pytest.raises(ValueError, match="illegal health transition"):
            health.to(HealthState.RECOVERING, 1, "nope")


# ---------------------------------------------------------------------------
# DegradedResult contract (satellite: falsiness + reason propagation)


class TestDegradedResultContract:
    def test_every_reason_is_falsy_even_with_a_value(self):
        for reason in DegradedReason:
            result = DegradedResult("get", reason, "why", value=[1, 2])
            assert not result, reason
            assert bool(result) is False
        assert not Refusal("get", "t", RefusalReason.OVERLOADED)

    def test_reason_propagates_through_the_server(self):
        async def scenario():
            machines = []
            standby = _standby_factory(machines)
            sl = standby()
            sl.build([(i, i) for i in range(0, 40, 2)])
            machines[0].install_fault_plan(FaultPlan(FaultSpec(
                crashes=(CrashEvent(mid=0, at_round=0),)), seed=0))
            server = Server(sl, standby, ServerConfig(
                allow_restore=False, read_retry_attempts=0))
            await server.start()
            # touch every module so the dead one must be in the path
            first = await server.submit("t", "get", list(range(0, 40, 2)))
            later = await server.submit("t", "upsert", [(1, 1)])
            await server.stop()
            return first, later

        first, later = _run(scenario())
        # the failing batch carries the terminal reason...
        assert isinstance(first, DegradedResult)
        assert first.reason in (DegradedReason.RESTORE_DISABLED,
                                DegradedReason.STALE_READ)
        assert not first
        # ...and the latched breaker refuses writes with a typed reason
        assert isinstance(later, (Refusal, DegradedResult))
        if isinstance(later, Refusal):
            assert later.reason is RefusalReason.WRITE_UNAVAILABLE
        else:
            assert later.reason is DegradedReason.QUIESCED
        assert not later


# ---------------------------------------------------------------------------
# policy


class TestResiliencePolicy:
    def test_jittered_backoff_is_deterministic_and_capped(self):
        backoff = jittered_backoff(3)
        curve = [backoff(a) for a in range(1, 12)]
        assert curve == [jittered_backoff(3)(a) for a in range(1, 12)]
        assert all(b <= 8 + 2 for b in curve)
        assert all(b >= 1 for b in curve)
        assert curve != [jittered_backoff(4)(a) for a in range(1, 12)]

    def test_deadline_clamps_and_restores_retry_budget(self):
        machines = []
        standby = _standby_factory(machines)
        sl = standby()
        sl.build([(i, i) for i in range(0, 20, 2)])
        manager = RecoveryManager(sl, standby)
        policy = ResiliencePolicy(manager, HealthMonitor())
        original = machines[0].config.max_delivery_attempts
        request = Request("t", "get", [2], deadline=12)
        batch = MergedBatch("get", [2], [(request, 0, 1)],
                            min_deadline=request.deadline)

        seen = {}
        real_run = manager.run

        def spy(batches):
            seen["attempts"] = manager.structure.machine \
                .config.max_delivery_attempts
            return real_run(batches)

        manager.run = spy
        assert policy.execute([batch], tick=10) == [[2]]
        assert seen["attempts"] == 3  # deadline 12, tick 10 -> 3 attempts
        assert machines[0].config.max_delivery_attempts == original

    def test_breaker_trips_after_threshold_and_half_opens(self):
        machines = []
        standby = _standby_factory(machines)
        sl = standby()
        sl.build([(i, i) for i in range(0, 20, 2)])
        manager = RecoveryManager(sl, standby)
        health = HealthMonitor()
        policy = ResiliencePolicy(manager, health, breaker_threshold=2,
                                  cooldown_ticks=5)
        batch = MergedBatch("get", [2], [(Request("t", "get", [2]), 0, 1)])
        # simulate a batch that survives only via two in-batch failure
        # events (exactly what the manager counts during retries)
        real_run = manager.run

        def run_with_failures(batches):
            manager.failures += 2
            return real_run(batches)

        manager.run = run_with_failures
        result = policy.execute([batch], tick=1)
        manager.run = real_run
        assert result == [[2]]  # the batch itself still answered
        assert policy.stats["failures"] == 2
        assert policy.circuit_open
        assert health.state is HealthState.DEGRADED
        # while open: reads are stale-typed, writes typed-refused
        write = MergedBatch("upsert", [(3, 3)],
                            [(Request("t", "upsert", [(3, 3)]), 0, 1)])
        [refused] = policy.execute([write], tick=2)
        assert isinstance(refused, Refusal)
        assert refused.reason is RefusalReason.WRITE_UNAVAILABLE
        [stale] = policy.execute([batch], tick=3)
        assert isinstance(stale, DegradedResult)
        assert stale.reason is DegradedReason.STALE_READ
        assert stale.value == [2]
        # cooldown elapses -> half-open probe -> healthy again
        assert policy.execute([batch], tick=1 + 5) == [[2]]
        assert health.state is HealthState.HEALTHY
        assert policy.stats["probes"] == 1

    def test_stale_view_follows_the_checkpoint_not_its_address(
            self, monkeypatch):
        """Two captures leave the log empty both times, and a freed
        ``Checkpoint``'s address gets reused (provoked, about one
        allocation pattern in twenty did): a view cached under
        ``(id(chk), log_size)`` then answers a circuit-open read without
        the writes in between.  ``id`` is pinned here so every
        checkpoint collides, which is what the parent's cache key
        needed to serve the stale view deterministically."""
        import repro.serve.policy as policy_module
        monkeypatch.setattr(policy_module, "id", lambda obj: 0xC0FFEE,
                            raising=False)
        machines = []
        standby = _standby_factory(machines)
        sl = standby()
        sl.build([(0, 0), (2, 2)])
        manager = RecoveryManager(sl, standby, checkpoint_every=1)
        policy = ResiliencePolicy(manager, HealthMonitor())
        assert policy._durable_view().get(10) is None
        for value in (1, 2):
            # 32 items served >= the 18 stored: every batch captures
            manager.run([("upsert",
                          [(10 + i % 16, value) for i in range(32)])])
            assert manager.log_size == 0
            assert policy._durable_view().get(10) == value
        assert manager.checkpoints_captured == 3
        # between captures the log grows and the view follows it
        manager.checkpoint_every = 100
        manager.run([("upsert", [(10, 3)])])
        assert manager.log_size == 1
        assert policy._durable_view().get(10) == 3


# ---------------------------------------------------------------------------
# the server, end to end


class TestServer:
    def test_concurrent_streams_fault_free(self):
        async def scenario():
            server, _ = _server()
            await server.start()

            async def client(name, base):
                got = await server.submit(name, "get", [base])
                assert await server.submit(name, "upsert",
                                           [(base + 1, name)]) is None
                new = await server.submit(name, "get", [base + 1])
                return got, new

            results = await asyncio.gather(
                *[client(f"t{i}", 2 * i) for i in range(8)])
            status = server.status()
            await server.stop()
            return results, status

        results, status = _run(scenario())
        for i, (got, new) in enumerate(results):
            assert got == [2 * i * 10]
            assert new == [f"t{i}"]
        assert status["health"]["state"] == "healthy"
        assert status["batches_served"] < 8 * 3  # coalescing happened
        for metrics in status["tenants"].values():
            assert metrics["refused"] == {}

    def test_default_mix_runs_chunked(self):
        """``repro serve``'s default session (100 clients, 8 ops each, a
        fault-free 8-module skip list): the engine runs at least 90 % of
        its tasks in batch handlers, range traversals included (0.69
        while they ran in slots)."""
        report = soak_session("none", 0, clients=100, ops_per_client=8)
        assert report.ok and any("range" in kind.split("+") for kind
                                 in report.runtime["ticks_by_kind"])
        assert report.runtime["chunked_task_share"] >= 0.9

    def test_unsupported_op_is_typed_refusal(self):
        async def scenario():
            server, _ = _server()
            await server.start()
            result = await server.submit("t", "frobnicate", [1])
            await server.stop()
            return result

        result = _run(scenario())
        assert isinstance(result, Refusal)
        assert result.reason is RefusalReason.UNSUPPORTED

    def test_submit_after_stop_is_shutdown_refusal(self):
        async def scenario():
            server, _ = _server()
            await server.start()
            await server.stop()
            return await server.submit("t", "get", [2])

        result = _run(scenario())
        assert isinstance(result, Refusal)
        assert result.reason is RefusalReason.SHUTDOWN

    def test_expired_deadline_is_typed_refusal(self):
        async def scenario():
            server, _ = _server()
            await server.start()
            # a burst of zero-tick-deadline requests: the first batch
            # dispatches at tick+1, so any request still queued behind a
            # different op class expires
            results = await asyncio.gather(
                server.submit("a", "upsert", [(1, 1)], timeout_ticks=0),
                server.submit("b", "get", [2], timeout_ticks=0),
            )
            await server.stop()
            return results

        results = _run(scenario())
        refused = [r for r in results if isinstance(r, Refusal)]
        assert refused, results
        assert all(r.reason is RefusalReason.DEADLINE for r in refused)

    def test_admission_overload_under_quota(self):
        async def scenario():
            config = ServerConfig(rate=0.5, burst=2, max_pending=4)
            server, _ = _server(config=config)
            await server.start()
            results = await asyncio.gather(
                *[server.submit("t", "get", [2]) for _ in range(8)])
            await server.stop()
            return results

        results = _run(scenario())
        refused = [r for r in results if isinstance(r, Refusal)]
        answered = [r for r in results if not isinstance(r, Refusal)]
        assert refused and answered
        assert all(r.reason is RefusalReason.OVERLOADED for r in refused)
        assert all(r == [20] for r in answered)

    def test_failover_stays_exact(self):
        async def scenario():
            server, _ = _server(schedule="crash_wipe")
            await server.start()

            async def client(name, base):
                out = []
                for step in range(8):
                    # range reads touch every module, so the crashed one
                    # is always in the batch's path
                    out.append(await server.submit(name, "range",
                                                   [(0, 98)]))
                    await server.submit(name, "upsert", [(base, step)])
                return out

            results = await asyncio.gather(
                *[client(f"t{i}", 2 * i) for i in range(6)])
            status = server.status()
            await server.stop()
            return results, status

        results, status = _run(scenario())
        assert status["policy"]["recoveries"] >= 1
        for base, out in enumerate(results):
            for got in out:
                assert isinstance(got, list)  # exact answers throughout

    def test_degraded_mode_serves_stale_reads_and_refuses_writes(self):
        async def scenario():
            config = ServerConfig(breaker_threshold=1, cooldown_ticks=10_000)
            server, _ = _server(schedule="crash_wipe", config=config)
            await server.start()

            async def client(name, base):
                outs = []
                for step in range(8):
                    outs.append(await server.submit(name, "get", [base]))
                    outs.append(await server.submit(
                        name, "upsert", [(base, step)]))
                return outs

            results = await asyncio.gather(
                *[client(f"t{i}", 2 * i) for i in range(6)])
            status = server.status()
            await server.stop()
            return results, status

        results, status = _run(scenario())
        flat = [r for outs in results for r in outs]
        stale = [r for r in flat if isinstance(r, DegradedResult)
                 and r.reason is DegradedReason.STALE_READ]
        refused = [r for r in flat if isinstance(r, Refusal)
                   and r.reason is RefusalReason.WRITE_UNAVAILABLE]
        assert stale and refused
        assert all(isinstance(s.value, list) for s in stale)
        assert status["health"]["state"] == "degraded"
        assert status["policy"]["stats"]["trips"] >= 1

    def test_watchdog_turns_a_stall_into_a_loud_failure(self):
        async def scenario():
            server, _ = _server(config=ServerConfig(watchdog_ticks=4))
            # Simulate a scheduler bug: the coalescer stops producing
            # batches while requests sit queued.
            server.coalescer.next_batch = lambda *tick: ([], [])
            await server.start()
            with pytest.raises(ServerStalled):
                await server.submit("t", "get", [2])
            with pytest.raises(ServerStalled):
                await server.stop()
            return server.status()

        status = _run(scenario())
        assert "ServerStalled" in status["failure"]

    def test_a_tick_that_raises_fails_every_request_it_took(self):
        """An untyped exception out of a tick fails the requests that
        tick took out of admission, not only those still queued: every
        future resolves, none hangs."""

        class Faulty(PIMSkipList):
            def apply_batch(self, op, payload):
                if op == "get":
                    raise RuntimeError("structure bug")
                return super().apply_batch(op, payload)

        def standby():
            return Faulty(PIMMachine(num_modules=4, seed=7))

        async def scenario():
            sl = standby()
            sl.build([(i, i * 10) for i in range(0, 100, 2)])
            server = Server(sl, standby, ServerConfig())
            await server.start()
            futures = [server.submit(f"t{i}", "get", [2 * i])
                       for i in range(4)]
            futures.append(server.submit("w", "upsert", [(1, 1)]))
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), timeout=5)
            with pytest.raises(RuntimeError):
                await server.stop()
            return outcomes

        outcomes = _run(scenario())
        assert [type(o) for o in outcomes] == [RuntimeError] * 5
        assert all(str(o) == "structure bug" for o in outcomes)

    def test_status_is_json_serialisable(self):
        import json

        async def scenario():
            server, _ = _server()
            await server.start()
            await server.submit("t", "get", [2])
            status = server.status()
            await server.stop()
            return status

        status = _run(scenario())
        json.dumps(status)  # must not raise
        assert status["journal_batches"] == 1
        assert status["tenants"]["t"]["completed"] == 1

    def test_status_shows_the_checkpoint_cadence(self, tmp_path):
        async def scenario():
            config = ServerConfig(checkpoint_every=1, os_fsync=False,
                                  state_dir=str(tmp_path / "state"))
            server, _ = _server(config=config)  # 50 stored items
            await server.start()
            await server.submit("t", "upsert", [(1, "a"), (3, "b")])
            early = server.status()
            await server.submit("t", "get", list(range(0, 96, 2)))
            await server.submit("t", "upsert", [(5, "c")])  # item 51
            late = server.status()
            await server.stop()
            return early, late

        early, late = _run(scenario())
        assert early["recovery"] == {"checkpoints_captured": 1,
                                     "replay_debt_items": 2,
                                     "last_checkpoint_items": 50}
        assert late["recovery"] == {"checkpoints_captured": 2,
                                    "replay_debt_items": 0,
                                    "last_checkpoint_items": 53}
        for key, value in late["recovery"].items():
            assert late["durability"][key] == value
        assert late["durability"]["snapshots_written"] == 1
