"""Tests for :mod:`repro.sim.chaos`: fault plans, schedules, and the
unreliable-machine runtime.

The contract under test: every fault draw is a pure function of
``(fault seed, transmission counter)`` so chaos runs are bit-identical
per seed pair; installed plans make message faults *survivable* through
the reliable-delivery protocol (results stay exact, only rounds grow);
and module crashes fail **typed** -- protocol envelopes are retried or
escalate to :class:`DeliveryTimeout`, unprotected messages raise
:class:`ModuleCrashed` naming the module.
"""

from __future__ import annotations

import pytest

from repro.core.skiplist import PIMSkipList
from repro.sim.chaos import (
    CrashEvent,
    FaultPlan,
    FaultSpec,
    MACHINE_SCHEDULES,
    StallEvent,
    build_schedule,
)
from repro.sim.errors import DeliveryTimeout, ModuleCrashed
from repro.sim.machine import PIMMachine

ITEMS = [(k * 10, k) for k in range(1, 33)]


def _built(seed: int = 7) -> tuple:
    machine = PIMMachine(num_modules=4, seed=seed)
    sl = PIMSkipList(machine)
    sl.build(ITEMS)
    return machine, sl


class TestFaultSpecValidation:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="sum"):
            FaultSpec(drop=0.6, dup=0.5)

    def test_delay_rounds_positive(self):
        with pytest.raises(ValueError, match="delay_rounds"):
            FaultSpec(delay=0.1, delay_rounds=0)

    def test_crash_restart_must_follow_crash(self):
        with pytest.raises(ValueError, match="restart_round"):
            CrashEvent(mid=0, at_round=5, restart_round=5)

    def test_stall_must_last_a_round(self):
        with pytest.raises(ValueError, match="stall"):
            StallEvent(mid=0, at_round=1, rounds=0)

    def test_total_drop_rate_is_allowed(self):
        FaultSpec(drop=1.0)  # retries draw afresh, so this terminates


class TestFaultPlanDraws:
    def test_draws_are_pure_in_seed_and_counter(self):
        a = FaultPlan(FaultSpec(drop=0.3, dup=0.2, delay=0.1), seed=5)
        b = FaultPlan(FaultSpec(drop=0.3, dup=0.2, delay=0.1), seed=5)
        assert [a.message_action(i) for i in range(200)] == \
            [b.message_action(i) for i in range(200)]

    def test_different_seeds_draw_differently(self):
        a = FaultPlan(FaultSpec(drop=0.5), seed=1)
        b = FaultPlan(FaultSpec(drop=0.5), seed=2)
        assert [a.message_action(i) for i in range(200)] != \
            [b.message_action(i) for i in range(200)]

    def test_rates_are_roughly_respected(self):
        plan = FaultPlan(FaultSpec(drop=0.25), seed=9)
        actions = [plan.message_action(i) for i in range(2000)]
        frac = actions.count("drop") / len(actions)
        assert 0.15 < frac < 0.35

    def test_dead_and_stall_windows(self):
        plan = FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=1, at_round=3, restart_round=6),),
            stalls=(StallEvent(mid=2, at_round=4, rounds=2),)), seed=0)
        assert not plan.is_dead(1, 2)
        assert plan.is_dead(1, 3) and plan.is_dead(1, 5)
        assert not plan.is_dead(1, 6)
        assert not plan.is_stalled(2, 3)
        assert plan.is_stalled(2, 4) and plan.is_stalled(2, 5)
        assert not plan.is_stalled(2, 6)


class TestSchedules:
    def test_every_named_schedule_builds(self):
        for name in MACHINE_SCHEDULES:
            plan = build_schedule(name, seed=3, num_modules=8)
            assert isinstance(plan, FaultPlan)

    def test_unknown_schedule_raises(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            build_schedule("nope", seed=0, num_modules=8)


class TestMessageFaultsSurvived:
    @pytest.mark.parametrize("schedule",
                             ["drop", "dup_delay", "corrupt", "mixed"])
    def test_results_exact_and_rounds_grow(self, schedule):
        clean_machine, clean = _built()
        chaotic_machine, chaotic = _built()
        state = chaotic_machine.install_fault_plan(
            build_schedule(schedule, seed=1, num_modules=4))
        keys = [k for k, _ in ITEMS] + [5, 9999]
        assert chaotic.batch_get(keys) == clean.batch_get(keys)
        assert chaotic.batch_successor(keys[:8]) == \
            clean.batch_successor(keys[:8])
        chaotic.check_integrity()
        assert state.stats.transmissions > 0
        assert chaotic_machine.metrics.rounds >= clean_machine.metrics.rounds

    def test_chaos_run_is_bit_identical_per_seed_pair(self):
        def run():
            machine, sl = _built()
            state = machine.install_fault_plan(
                build_schedule("drop", seed=2, num_modules=4))
            sl.batch_upsert([(5, "a"), (15, "b"), (1000, "c")])
            sl.batch_delete([20, 30])
            got = sl.batch_get([5, 15, 20, 1000])
            return got, machine.metrics.rounds, state.stats.as_dict()

        assert run() == run()

    def test_uninstall_restores_the_fault_free_path(self):
        machine, sl = _built()
        machine.install_fault_plan(
            build_schedule("drop", seed=1, num_modules=4))
        sl.batch_get([10, 20])
        state = machine.uninstall_fault_plan()
        assert state is not None
        before = machine.metrics.rounds
        clean_machine, clean = _built()
        clean_base = clean_machine.metrics.rounds
        sl.batch_get([10, 20])
        clean.batch_get([10, 20])
        assert machine.metrics.rounds - before == \
            clean_machine.metrics.rounds - clean_base


class TestCrashSemantics:
    def test_unprotected_send_to_dead_module_raises_typed(self):
        machine = PIMMachine(num_modules=4, seed=0)

        def echo(ctx, x, tag=None):
            ctx.charge(1)
            ctx.reply(x, tag=tag)

        machine.register("echo", echo)
        machine.install_fault_plan(FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=1, at_round=0),)), seed=0))
        machine.send(1, "echo", (1,))
        with pytest.raises(ModuleCrashed) as ei:
            machine.drain()
        assert ei.value.mid == 1
        assert "fail-stop" in str(ei.value)

    def test_protocol_escalates_to_delivery_timeout(self):
        machine, sl = _built()
        machine.install_fault_plan(FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=1, at_round=0),)), seed=0))
        with pytest.raises(DeliveryTimeout) as ei:
            sl.batch_get([k for k, _ in ITEMS[:8]])
        err = ei.value
        assert err.attempts == machine.config.max_delivery_attempts
        assert "batch_get" in err.op
        assert err.undelivered > 0

    def test_wiped_module_stays_dead_until_repaired(self):
        machine, sl = _built()
        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        machine.wipe_module(2)
        assert 2 in machine.wiped_modules
        with pytest.raises(DeliveryTimeout):
            sl.batch_get([k for k, _ in ITEMS[:8]])
        # nothing repairs a module in place: the machine stays faulted
        assert 2 in machine.wiped_modules
        with pytest.raises(DeliveryTimeout):
            sl.batch_get([k for k, _ in ITEMS[:8]])

    def test_crash_with_restart_recovers_in_protocol(self):
        # Fail-stop (no wipe) with a restart: retries outlast the outage
        # and the batch completes exactly.
        clean_machine, clean = _built()
        machine, sl = _built()
        state = machine.install_fault_plan(FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=1, at_round=0, restart_round=3),)),
            seed=0))
        keys = [k for k, _ in ITEMS]
        assert sl.batch_get(keys) == clean.batch_get(keys)
        assert state.stats.dead_drops > 0
        assert state.stats.restarts == 1
