"""Tests for :mod:`repro.recovery`: checkpoint/restore round trips,
capture refused around a wiped module, and crash-driven failover.

The layer's contract is "a correct answer or a typed refusal, never a
wrong answer": checkpoints restore to observably-identical structures,
a capture that would read a wiped module refuses instead of dropping
data, and a :class:`RecoveryManager` survives a module crash at *any*
round of a session -- or quiesces into typed :class:`DegradedResult`
refusals.
"""

from __future__ import annotations

import pytest

from repro.core.skiplist import PIMSkipList
from repro.recovery import (
    DegradedReason,
    DegradedResult,
    MUTATING_OPS,
    RecoveryManager,
    checkpoint_structure,
    restore_structure,
)
from repro.recovery.checkpoint import CheckpointUnavailable
from repro.sim.chaos import CrashEvent, FaultPlan, FaultSpec
from repro.sim.machine import PIMMachine
from repro.structures.fifo import PIMQueue
from repro.structures.lsm import PIMLSMStore
from repro.structures.pimtree import PIMTree
from repro.structures.priority_queue import PIMPriorityQueue

ITEMS = [(k * 100, f"v{k}") for k in range(1, 41)]


def _machine(seed: int = 11, p: int = 8) -> PIMMachine:
    return PIMMachine(num_modules=p, seed=seed)


def _failover_costs(manager: RecoveryManager) -> list:
    """Record, at each failover of ``manager``, what the standby has been
    charged by then -- its restore and the log replay, read when the
    failed batches are retried on it: ``(rounds, io_time, pim_time)``."""
    costs = []
    rebuild = manager.rebuild

    def standby():
        structure = rebuild()
        retry = structure.apply_group

        def first_call(batches):
            m = structure.machine.metrics
            costs.append((m.rounds, m.io_time, m.pim_time))
            structure.apply_group = retry
            return retry(batches)

        structure.apply_group = first_call
        return structure

    manager.rebuild = standby
    return costs


class TestCheckpointRoundTrips:
    def test_skiplist_round_trip_is_exact(self):
        sl = PIMSkipList(_machine())
        sl.build(ITEMS)
        sl.batch_upsert([(150, "x"), (250, "y")])
        sl.batch_delete([300, 400])
        chk = checkpoint_structure(sl)
        assert chk.kind == "skiplist"
        assert chk.item_count() == sl.size

        fresh = PIMSkipList(_machine(seed=99))
        restored = restore_structure(chk, fresh)
        assert restored == sl.size
        assert fresh.to_dict() == sl.to_dict()
        fresh.check_integrity()

    def test_lsm_round_trip_merges_runs_delta_and_tombstones(self):
        lsm = PIMLSMStore(_machine())
        lsm.batch_upsert([(k, k * 2) for k in range(40)])
        lsm.batch_delete([3, 17, 31])
        lsm.batch_upsert([(17, "resurrected"), (100, "fresh")])
        chk = checkpoint_structure(lsm)
        expected = {k: k * 2 for k in range(40) if k not in (3, 17, 31)}
        expected.update({17: "resurrected", 100: "fresh"})
        assert chk.kind == "lsm"
        assert chk.payload == sorted(expected.items())
        assert chk.item_count() == len(expected)

        fresh = PIMLSMStore(_machine(seed=98))
        restore_structure(chk, fresh)
        keys = sorted(expected) + [3, 31, 9999]
        assert fresh.batch_get(keys) == \
            [expected.get(k) for k in keys]

    def test_fifo_round_trip_preserves_order_and_remainder(self):
        q = PIMQueue(_machine())
        q.enqueue_batch(list(range(30)))
        assert q.dequeue_batch(12) == list(range(12))
        chk = checkpoint_structure(q)
        fresh = PIMQueue(_machine(seed=97))
        restore_structure(chk, fresh)
        assert len(fresh) == len(q)
        assert fresh.dequeue_batch(18) == list(range(12, 30))

    def test_priority_queue_round_trip_preserves_fifo_ties(self):
        pq = PIMPriorityQueue(_machine())
        pq.insert_batch([(5, "a"), (1, "b"), (5, "c"), (0, "d"), (1, "e")])
        chk = checkpoint_structure(pq)
        fresh = PIMPriorityQueue(_machine(seed=96))
        restore_structure(chk, fresh)
        assert fresh.extract_min_batch(5) == \
            [(0, "d"), (1, "b"), (1, "e"), (5, "a"), (5, "c")]

    def test_restore_refuses_kind_mismatch_and_nonempty_target(self):
        sl = PIMSkipList(_machine())
        sl.build(ITEMS[:8])
        chk = checkpoint_structure(sl)
        with pytest.raises(ValueError, match="kind"):
            restore_structure(chk, PIMQueue(_machine()))
        busy = PIMSkipList(_machine(seed=95))
        busy.build(ITEMS[:4])
        with pytest.raises(ValueError, match="empty"):
            restore_structure(chk, busy)


class TestCaptureAroundAWipedModule:
    """A capture never drops what a wiped module held: the structures
    whose contents live only in module DRAM refuse, typed."""

    def test_lsm_capture_refuses_a_wiped_run_block(self):
        machine = _machine()
        lsm = PIMLSMStore(machine)
        lsm.batch_upsert([(k, k) for k in range(48)])
        lsm.compact()
        lsm.batch_upsert([(1000, "delta")])
        machine.wipe_module(lsm.block_owner[0])
        with pytest.raises(CheckpointUnavailable, match="run block 0"):
            checkpoint_structure(lsm)

    def test_fifo_capture_refuses_a_wiped_slot(self):
        machine = _machine()
        q = PIMQueue(machine)
        q.enqueue_batch(list(range(30)))
        machine.wipe_module(q._owner(q.head))
        with pytest.raises(CheckpointUnavailable, match="slot"):
            checkpoint_structure(q)

    def test_pimtree_capture_takes_the_leaf_pairs_as_they_are(self):
        """A PIM-tree capture extends its payload by each leaf's list of
        ``(key, value)`` tuples, uncopied: the payload equals the pair
        by pair copy the capture used to make, after leaf stores, leaf
        writes that split leaves and leaf deletes."""
        machine = _machine()
        tree = PIMTree(machine, leaf_size=4)
        tree.build(ITEMS)
        tree.apply_batch("upsert", [(k * 100 + 50, k) for k in range(30)]
                         + [(100, "new")])
        tree.apply_batch("delete", [200, 300, 1250, 7])
        chk = checkpoint_structure(tree)
        copied = []
        lid = tree.first_leaf
        while lid is not None:
            state = machine.modules[tree.leaf_owner[lid]].state[tree.name]
            copied.extend(tuple(p) for p in state["leaf"][lid])
            lid = tree.leaf_next[lid]
        expected = dict(ITEMS)
        expected.update((k * 100 + 50, k) for k in range(30))
        expected[100] = "new"
        for k in (200, 300, 1250):
            del expected[k]
        assert chk.payload == copied == sorted(expected.items())
        assert all(type(p) is tuple for p in chk.payload)

    def test_lsm_failover_after_a_refused_capture_answers_exactly(self):
        """Module 0 is wiped under a compacted run while update batches
        that never touch it keep succeeding.  The capture they trigger
        must refuse, so the failover restores the last whole checkpoint
        plus the log, not a checkpoint missing module 0's run blocks."""

        def standby() -> PIMLSMStore:
            return PIMLSMStore(_machine(seed=1), block_size=16)

        lsm = standby()
        run = [(k * 10, k) for k in range(200)]
        lsm.batch_upsert(run)
        lsm.compact()
        assert lsm.block_owner[0] == 0  # keys 0..150 live on module 0
        fresh = list(range(5001, 5121, 2))
        lsm.batch_upsert([(k, "d") for k in fresh])
        owner = {n.key: n.owner for n in lsm.delta.struct.iter_level(0)}
        updated = [k for k in fresh if owner[k] != 0]
        lsm.machine.install_fault_plan(FaultPlan(FaultSpec(crashes=(
            CrashEvent(mid=0, at_round=0, restart_round=1, wipe=True),)),
            seed=0))
        manager = RecoveryManager(lsm, standby, checkpoint_every=1)
        costs = _failover_costs(manager)
        stored = len(run) + len(fresh)
        assert manager.checkpoint.item_count() == stored
        for i in range(8):  # enough served items to trigger a capture
            assert manager.run([("upsert",
                                 [(k, f"u{i}") for k in updated])]) == [None]
        assert manager.recoveries == 0
        keys = [0, 10, 20, 30, 40, updated[0], fresh[-1]]
        want = [0, 1, 2, 3, 4, "u7", "u7" if fresh[-1] in updated else "d"]
        assert manager.run([("get", keys)]) == [want]
        assert manager.recoveries == 1
        assert manager.checkpoints_captured == 1  # the capture refused
        assert manager.events[0].replayed_batches == 8
        # The standby's restore writes the checkpoint as its run in one
        # round; the 8 replayed batches then insert into an empty delta.
        # Upserting the checkpoint into the delta cost (15, 537, 2 969).
        assert costs == [(15, 317.0, 587.0)]


class TestRecoveryManager:
    def _manager(self, *, allow_restore: bool = True,
                 crash_round: int = 2) -> tuple:
        machines = []

        def standby() -> PIMSkipList:
            m = _machine(seed=11)
            machines.append(m)
            return PIMSkipList(m)

        sl = standby()
        sl.build(ITEMS)
        machines[0].install_fault_plan(FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=2, at_round=crash_round),)), seed=0))
        manager = RecoveryManager(sl, standby, checkpoint_every=2,
                                  allow_restore=allow_restore)
        return manager, machines

    def test_failover_is_exact_and_recorded(self):
        manager, machines = self._manager()
        oracle = dict(ITEMS)
        script = [
            ("upsert", [(150, "x"), (4100, "y")]),
            ("delete", [200, 300]),
            ("get", [100, 150, 200, 4100]),
            ("successor", [150, 250]),
            ("upsert", [(50, "z")]),
            ("get", [50, 150, 200]),
        ]
        for op, payload in script:
            [result] = manager.run([(op, payload)])
            assert not isinstance(result, DegradedResult)
            if op == "upsert":
                oracle.update(payload)
            elif op == "delete":
                for k in payload:
                    oracle.pop(k, None)
            elif op == "get":
                assert result == [oracle.get(k) for k in payload]
            elif op == "successor":
                for k, got in zip(payload, result):
                    want = min((ok for ok in oracle if ok >= k),
                               default=None)
                    assert got == (None if want is None
                                   else (want, oracle[want]))
        assert manager.recoveries == 1
        assert len(machines) == 2  # original + one standby
        event = manager.events[0]
        assert "batch" in event.op or event.op in MUTATING_OPS | \
            {"get", "successor", "upsert", "delete"}
        assert event.checkpoint_items > 0

    def test_lsm_failover_is_exact(self):
        machines = []

        def standby() -> PIMLSMStore:
            m = _machine(seed=13)
            machines.append(m)
            return PIMLSMStore(m)

        lsm = standby()
        lsm.batch_upsert(ITEMS)
        machines[0].install_fault_plan(FaultPlan(FaultSpec(
            crashes=(CrashEvent(mid=2, at_round=2),)), seed=0))
        manager = RecoveryManager(lsm, standby, checkpoint_every=2)
        costs = _failover_costs(manager)
        oracle = dict(ITEMS)
        script = [
            ("upsert", [(150, "x"), (4100, "y")]),
            ("delete", [200, 300]),
            ("get", [k for k, _ in ITEMS] + [150, 4100]),
            ("upsert", [(50, "z")]),
            ("get", [50, 100, 200, 300, 4100]),
        ]
        for op, payload in script:
            [result] = manager.run([(op, payload)])
            assert not isinstance(result, DegradedResult)
            if op == "upsert":
                oracle.update(payload)
            elif op == "delete":
                for k in payload:
                    oracle.pop(k, None)
            else:
                assert result == [oracle.get(k) for k in payload]
        assert manager.recoveries == 1
        # One round: the checkpoint becomes the standby's run (the log
        # was empty).  Upserting it into the delta cost (7, 111, 540).
        assert costs == [(1, 40.0, 41.0)]

    def test_degrades_typed_when_restore_disabled(self):
        manager, _ = self._manager(allow_restore=False)
        script = [
            ("upsert", [(150, "x"), (4100, "y")]),
            ("delete", [200, 300]),
            ("get", [k for k, _ in ITEMS]),
            ("upsert", [(50, "z")]),
        ]
        results = [manager.run([(op, payload)])[0] for op, payload in script]
        degraded = [r for r in results if isinstance(r, DegradedResult)]
        assert degraded, "the crash must surface as a DegradedResult"
        assert not degraded[0]  # falsy by contract
        assert degraded[0].reason is DegradedReason.RESTORE_DISABLED
        assert not manager.healthy
        # Once quiesced, every further batch refuses, typed.
        [later] = manager.run([("get", [100])])
        assert isinstance(later, DegradedResult)
        assert later.reason is DegradedReason.QUIESCED


class TestCrashAtEveryRound:
    def test_sweep_never_yields_a_wrong_answer(self):
        """Golden mini-workload; permanent crash injected at every round
        offset in turn.  Every run must either recover exactly or end
        in typed refusals -- never a wrong answer."""
        script = [
            ("upsert", [(k * 10, k) for k in range(1, 17)]),
            ("delete", [20, 40, 60]),
            ("upsert", [(25, "a"), (45, "b")]),
            ("get", [10, 20, 25, 45, 80, 999]),
            ("successor", [0, 25, 150]),
            ("range", [(0, 1000)]),
        ]
        oracle: dict = {}
        expected = []
        for op, payload in script:
            if op == "upsert":
                oracle.update(payload)
                expected.append(None)
            elif op == "delete":
                for k in payload:
                    oracle.pop(k, None)
                expected.append(None)
            elif op == "get":
                expected.append([oracle.get(k) for k in payload])
            elif op == "successor":
                expected.append([
                    (lambda w: None if w is None else (w, oracle[w]))(
                        min((ok for ok in oracle if ok >= k), default=None))
                    for k in payload])
            else:  # range
                expected.append([sorted(
                    (k, v) for k, v in oracle.items()
                    if payload[0][0] <= k <= payload[0][1])])

        recovered = degraded = 0
        for crash_round in range(0, 30, 2):
            machines = []

            def standby() -> PIMSkipList:
                m = _machine(seed=5, p=4)
                machines.append(m)
                return PIMSkipList(m)

            sl = standby()
            machines[0].install_fault_plan(FaultPlan(FaultSpec(
                crashes=(CrashEvent(mid=1, at_round=crash_round),)),
                seed=0))
            manager = RecoveryManager(sl, standby, checkpoint_every=2,
                                      max_recoveries=2)
            dead = False
            for (op, payload), want in zip(script, expected):
                [result] = manager.run([(op, payload)])
                if isinstance(result, DegradedResult):
                    dead = True
                    break
                if want is not None:
                    assert result == want, \
                        f"crash@{crash_round}: {op} answered wrongly"
            if dead:
                degraded += 1
            elif manager.recoveries:
                recovered += 1
        assert recovered > 0, "no sweep offset exercised failover"


class TestRecoveryManagerValidation:
    def test_checkpoint_every_must_be_positive(self):
        sl = PIMSkipList(_machine())
        sl.build(ITEMS[:8])
        with pytest.raises(ValueError, match="checkpoint_every"):
            RecoveryManager(sl, lambda: sl, checkpoint_every=0)

    def test_delivery_timeout_also_triggers_recovery(self):
        machines = []

        def standby() -> PIMSkipList:
            m = _machine(seed=11)
            machines.append(m)
            return PIMSkipList(m)

        sl = standby()
        sl.build(ITEMS)
        machines[0].install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        machines[0].wipe_module(2)  # wiped + unrepaired -> DeliveryTimeout
        manager = RecoveryManager(sl, standby)
        keys = [k for k, _ in ITEMS]
        [result] = manager.run([("get", keys)])
        assert result == [v for _, v in ITEMS]
        assert manager.recoveries == 1 and manager.failures == 1
        assert manager.events[0].op == "get"
        assert "DeliveryTimeout" in manager.events[0].cause


def _managed_skiplist(**kwargs):
    """A built skip list under a RecoveryManager, plus its machine list.

    The primary machine carries an (empty) fault plan so a later
    ``wipe_module`` surfaces as :class:`DeliveryTimeout` rather than an
    unprotected hard fault -- the deterministic crash trigger used
    throughout this file.
    """
    machines = []

    def standby() -> PIMSkipList:
        m = _machine(seed=11)
        machines.append(m)
        return PIMSkipList(m)

    sl = standby()
    sl.build(ITEMS)
    machines[0].install_fault_plan(FaultPlan(FaultSpec(), seed=0))
    return RecoveryManager(sl, standby, **kwargs), machines


class TestCheckpointBoundaries:
    """The amortized capture rule.  ``checkpoint_every`` (k) is a floor
    on spacing; the boundary falls on the mutating batch at which the
    items served since the last capture -- reads and writes -- reach
    the checkpoint's own size; a crash exactly on a boundary replays
    nothing, one between boundaries replays the log and keeps it."""

    KEYS = [k for k, _ in ITEMS]

    def test_k_is_a_floor_on_spacing_not_the_cadence(self):
        # k=1 does not re-walk 40 stored items for every 1-item write:
        # the boundary waits until 40 items have been served.
        manager, _ = _managed_skiplist(checkpoint_every=1)
        n = manager.checkpoint.item_count()
        for i in range(1, n):
            manager.run([("upsert", [(5 + i, f"n{i}")])])
            assert manager.log_size == i
        assert manager.checkpoints_captured == 1  # the initial one only
        manager.run([("upsert", [(5 + n, "last")])])  # the n-th served item
        assert manager.log_size == 0
        assert manager.checkpoints_captured == 2
        # ...and k still binds when served items are plentiful: batches
        # as large as the structure capture every k-th, not every one.
        manager, _ = _managed_skiplist(checkpoint_every=3)
        rewrite = [(k, "x") for k in self.KEYS]
        for expected_log in (1, 2, 0, 1, 2, 0):
            manager.run([("upsert", rewrite)])
            assert manager.log_size == expected_log
        assert manager.checkpoints_captured == 3

    def test_boundary_falls_where_served_items_reach_checkpoint_size(self):
        manager, _ = _managed_skiplist(checkpoint_every=2)
        n = manager.checkpoint.item_count()
        manager.run([("upsert", [(5, "a")])])
        manager.run([("upsert", [(7, "b")])])
        assert manager.log_size == 2  # k reached, 2 of 40 items served
        manager.run([("get", self.KEYS[:n - 3])])
        assert manager.log_size == 2  # reads count, but never capture
        manager.run([("upsert", [(9, "c")])])  # served item number 40
        assert manager.log_size == 0
        assert manager.replay_debt_items == 0
        assert manager.last_checkpoint_items == n + 3
        # the next window is measured against the *new* checkpoint
        manager.run([("get", self.KEYS)])
        manager.run([("upsert", [(11, "d")])])
        manager.run([("upsert", [(13, "e")])])
        assert manager.log_size == 2  # 42 of 43
        manager.run([("upsert", [(15, "f")])])
        assert manager.log_size == 0

    def test_tiny_structure_keeps_the_every_k_cadence(self):
        machines = []

        def standby() -> PIMSkipList:
            machines.append(_machine())
            return PIMSkipList(machines[-1])

        manager = RecoveryManager(standby(), standby, checkpoint_every=2)
        assert manager.last_checkpoint_items == 0  # empty: rule is k alone
        batch = [(k, "v") for k in (1, 2, 3, 4)]
        for expected_log in (1, 0, 1, 0, 1, 0):
            manager.run([("upsert", batch)])  # never outgrows one batch
            assert manager.log_size == expected_log
        assert manager.checkpoints_captured == 4

    def test_crash_exactly_at_a_boundary_replays_an_empty_log(self):
        manager, machines = _managed_skiplist(checkpoint_every=2)
        manager.run([("upsert", [(5, "a")])])
        assert manager.log_size == 1
        manager.run([("get", self.KEYS[:-2])])
        manager.run([("upsert", [(7, "b")])])  # k=2 and served item 40
        assert manager.log_size == 0
        assert manager.checkpoint.item_count() == len(ITEMS) + 2
        machines[0].wipe_module(2)
        [result] = manager.run([("get", self.KEYS + [5, 7])])
        assert result == [v for _, v in ITEMS] + ["a", "b"]
        assert manager.events[0].replayed_batches == 0
        assert manager.events[0].checkpoint_items == len(ITEMS) + 2

    def test_mid_window_crash_replays_the_log_and_keeps_it(self):
        manager, machines = _managed_skiplist(checkpoint_every=4)
        for i, key in enumerate((5, 7, 9), start=1):
            manager.run([("upsert", [(key, f"n{i}")])])
        assert manager.log_size == 3
        machines[0].wipe_module(2)
        assert manager.run([("get", [5, 7, 9])]) == [["n1", "n2", "n3"]]
        assert manager.events[0].replayed_batches == 3
        # Failover must NOT clear the log: checkpoint + log is still the
        # recipe for rebuilding the standby if *it* fails too.
        assert manager.log_size == 3
        # the k=4 floor alone no longer closes the window ...
        manager.run([("upsert", [(11, "n4")])])
        assert manager.log_size == 4
        assert manager.replay_debt_items == 4
        # ... the 40th served item does (3 + 3 + 1 + 32 + 1)
        manager.run([("get", self.KEYS[:32])])
        manager.run([("upsert", [(13, "n5")])])
        assert manager.log_size == 0
        assert manager.checkpoint.item_count() == len(ITEMS) + 5


class TestCheckpointAmortization:
    """N single-item writes over n stored items walk (and, with a state
    dir, snapshot) the structure at most ceil(N/n) + 1 times, and the
    replay debt never exceeds the checkpoint's size plus one batch."""

    @pytest.mark.parametrize("durable", [False, True])
    def test_single_item_writes_amortize_capture_and_snapshot(
            self, durable, tmp_path, monkeypatch):
        from repro.recovery import manager as manager_module
        from repro.recovery.durable import DurabilityPolicy, DurableStore

        captures = []
        real = manager_module.checkpoint_structure

        def counting(structure):
            captures.append(real(structure))
            return captures[-1]
        monkeypatch.setattr(manager_module, "checkpoint_structure",
                            counting)

        store = (DurableStore.open(str(tmp_path / "state"),
                                   DurabilityPolicy(os_fsync=False))
                 if durable else None)
        sl = PIMSkipList(_machine())
        sl.build(ITEMS)
        manager = RecoveryManager(sl, lambda: PIMSkipList(_machine()),
                                  checkpoint_every=1, durable=store)
        n = len(ITEMS)
        writes = 3 * n + 5
        for i in range(writes):
            key = ITEMS[i % n][0]  # overwrite: n stays put, the tight case
            manager.run([("upsert", [(key, i)])])
            assert (manager.replay_debt_items
                    <= manager.checkpoint.item_count() + 1)
        bound = -(-writes // n) + 1
        assert len(captures) == manager.checkpoints_captured == 4 <= bound
        if store is not None:
            assert store.snapshots_written == 3 <= bound
            assert store.appends == writes  # one WAL record per write
            store.close()


class TestManagerHooksAndReadRetry:
    def test_read_retries_spend_backoff_then_fail_over(self):
        backoffs = []
        manager, machines = _managed_skiplist(
            read_retry_attempts=2,
            retry_backoff=lambda attempt: backoffs.append(attempt) or 2)
        machines[0].wipe_module(2)
        [result] = manager.run([("get", [k for k, _ in ITEMS])])
        assert result == [v for _, v in ITEMS]
        assert manager.read_retries == 2
        assert backoffs == [1, 2]  # attempt number drives the curve
        # the initial attempt and both in-place retries each counted
        assert manager.failures == 3
        assert manager.recoveries == 1

    def test_mutations_never_retry_in_place(self):
        manager, machines = _managed_skiplist(read_retry_attempts=5)
        machines[0].wipe_module(2)
        payload = [(k + 1, f"x{k}") for k, _ in ITEMS]
        assert manager.run([("upsert", payload)]) == [None]
        assert manager.read_retries == 0  # budget present, never spent
        assert manager.failures == 1
        assert manager.recoveries == 1


def _crash_current_primary(machines) -> None:
    """Wipe a module on the newest machine (the current primary).
    Post-failover primaries have no fault plan yet; install an empty
    one so the wipe surfaces as DeliveryTimeout (see _managed_skiplist)."""
    m = machines[-1]
    if m._chaos is None:
        m.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
    m.wipe_module(2)


class TestRecoveryLimitBoundary:
    """``max_recoveries`` exactly at the limit: the N-th failover still
    succeeds, the (N+1)-th crash degrades, and the manager's books --
    ``failures``, ``events``, ``degraded`` -- count failure -> recovery
    (failure -> degrade at exhaustion)."""

    def test_nth_failover_succeeds_and_n_plus_first_degrades(self):
        manager, machines = _managed_skiplist(max_recoveries=2)
        keys = [k for k, _ in ITEMS]
        values = [v for _, v in ITEMS]
        for expected in (1, 2):  # recoveries 1..N all serve exactly
            _crash_current_primary(machines)
            assert manager.run([("get", keys)]) == [values]
            assert manager.recoveries == expected
            assert manager.failures == expected
            assert "DeliveryTimeout" in manager.events[-1].cause
            assert manager.healthy
        _crash_current_primary(machines)  # crash N+1: budget spent
        [result] = manager.run([("get", keys)])
        assert isinstance(result, DegradedResult)
        assert result.reason is DegradedReason.RECOVERY_EXHAUSTED
        assert manager.recoveries == 2  # the refusal burns no budget
        assert manager.failures == 3
        assert not manager.healthy and manager.degraded
        assert result.cause == manager.degraded_reason
        assert "DeliveryTimeout" in result.cause
        # degraded mode is sticky: the next batch refuses immediately
        [again] = manager.run([("get", keys)])
        assert isinstance(again, DegradedResult)
        assert again.reason is DegradedReason.QUIESCED
        assert manager.failures == 3

    def test_no_budget_degrades_a_group_with_one_refusal_per_batch(self):
        manager, machines = _managed_skiplist(max_recoveries=0)
        machines[0].wipe_module(2)
        results = manager.run([("upsert", [(5, "a")]), ("successor", [5])])
        assert [r.reason for r in results] == [
            DegradedReason.RECOVERY_EXHAUSTED] * 2
        assert [r.op for r in results] == ["upsert", "successor"]
        assert not any(results)
        assert manager.events == [] and manager.failures == 1
        assert manager.log_size == 0  # the refused write is never logged


#: The log is empty, so a standby's restore is one build: rounds 0 and
#: 1.  The retried get is round 2.
IN_THE_RESTORE, IN_THE_RETRY = 1, 2


class TestAStandbyThatFailsTheRetry:
    """The factory may hand back faulty hardware: a standby that crashes
    while it is restored or on the retried batch is one more failure in
    the manager's ``failures``, and costs one more failover onto the
    next standby, which answers."""

    KEYS = [k for k, _ in ITEMS]

    def _manager(self, at_round):
        machines = []

        def standby() -> PIMSkipList:
            m = _machine(seed=11)
            machines.append(m)
            if len(machines) == 2:
                m.install_fault_plan(FaultPlan(FaultSpec(
                    crashes=(CrashEvent(mid=2, at_round=at_round),)),
                    seed=0))
            return PIMSkipList(m)

        sl = standby()
        sl.build(ITEMS)
        machines[0].install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        machines[0].wipe_module(2)
        return RecoveryManager(sl, standby), machines

    def _fails_over_twice(self, at_round):
        manager, machines = self._manager(at_round)
        assert manager.run([("get", self.KEYS)]) == [[v for _, v in ITEMS]]
        assert manager.failures == 2
        assert manager.recoveries == 2 and len(machines) == 3
        assert all("DeliveryTimeout" in event.cause
                   for event in manager.events)
        assert [event.op for event in manager.events] == ["get", "get"]
        assert manager.structure.machine is machines[2]
        assert manager.healthy

    def test_without_a_hook(self):
        self._fails_over_twice(IN_THE_RETRY)

    def test_a_standby_that_fails_its_restore_without_a_hook(self):
        """The crash lands inside the standby's build, before any retry:
        the same failure, counted, and one more failover -- not an
        exception out of ``run``."""
        self._fails_over_twice(IN_THE_RESTORE)
