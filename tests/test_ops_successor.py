"""Tests for batched Successor/Predecessor (paper §4.2, Theorem 4.3)."""

import math
import random

import pytest

from repro.baselines import naive_batch_successor
from repro.core.ops_successor import batch_search
from repro.workloads import build_items, same_successor_batch
from tests.conftest import make_skiplist


class TestCorrectness:
    def test_successor_semantics(self, built8):
        _, sl, ref = built8
        keys = [100, 101, 0, -5, 99, 20000, 19999, 20001, 150]
        assert sl.batch_successor(keys) == [ref.successor(k) for k in keys]

    def test_predecessor_semantics(self, built8):
        _, sl, ref = built8
        keys = [100, 101, 0, -5, 99, 20000, 20001, 1]
        assert sl.batch_predecessor(keys) == [ref.predecessor(k) for k in keys]

    def test_random_batches_match_reference(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=500, seed=11)
        rng = random.Random(0)
        keys = [rng.randrange(-100, 60000) for _ in range(300)]
        assert sl.batch_successor(keys) == [ref.successor(k) for k in keys]
        assert sl.batch_predecessor(keys) == [ref.predecessor(k) for k in keys]

    def test_duplicate_keys_in_batch(self, built8):
        _, sl, ref = built8
        keys = [1500] * 40 + [2500] * 40
        assert sl.batch_successor(keys) == [ref.successor(k) for k in keys]

    def test_adversarial_same_successor_batch(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=300, seed=12)
        rng = random.Random(1)
        batch = same_successor_batch(sorted(ref.data), 128, rng)
        got = sl.batch_successor(batch)
        expect = [ref.successor(k) for k in batch]
        assert got == expect
        assert len({g for g in got}) == 1  # truly same successor

    def test_empty_structure(self):
        machine, sl, _ = make_skiplist(n=0)
        assert sl.batch_successor([1, 2, 3]) == [None, None, None]
        assert sl.batch_predecessor([1, 2, 3]) == [None, None, None]

    def test_empty_batch(self, built8):
        _, sl, _ = built8
        assert sl.batch_successor([]) == []

    def test_tiny_batches(self, built8):
        _, sl, ref = built8
        for keys in ([5], [5, 6], [5, 6, 7]):
            assert sl.batch_successor(keys) == [ref.successor(k) for k in keys]

    def test_matches_naive_execution(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=400, seed=13)
        rng = random.Random(2)
        keys = [rng.randrange(50000) for _ in range(200)]
        assert naive_batch_successor(sl.struct, keys) == sl.batch_successor(keys)


class TestRecordedPaths:
    def test_by_level_records_true_per_level_predecessors(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=300, seed=14)
        s = sl.struct
        rng = random.Random(3)
        keys = [rng.randrange(40000) for _ in range(60)]
        outcomes = batch_search(s, keys, record_all=True)
        for key, out in zip(keys, outcomes):
            assert out.by_level is not None
            for lvl in range(s.h_low):
                # ground truth: rightmost node at lvl with key <= search key
                expect = s.sentinels[lvl]
                for node in s.iter_level(lvl):
                    if node.key <= key:
                        expect = node
                    else:
                        break
                got_node, got_right = out.by_level[lvl]
                assert got_node is expect, (key, lvl)
                assert got_right is expect.right

    def test_search_shared_memory_freed(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=300, seed=15)
        base = machine.metrics.shared_mem_in_use
        batch_search(sl.struct, list(range(0, 20000, 37)))
        assert machine.metrics.shared_mem_in_use == base


class TestLemma42Contention:
    def test_pivot_only_batch_has_contention_at_most_3(self):
        """With P=2 the segment length is 1, so every op is a pivot and
        the entire run is stage 1: Lemma 4.2 says <= 3 accesses per node
        per phase."""
        machine, sl, ref = make_skiplist(num_modules=2, n=300, seed=16,
                                         trace=True)
        rng = random.Random(4)
        batch = same_successor_batch(sorted(ref.data), 64, rng)
        start = machine.tracer.access.num_rounds
        sl.batch_successor(batch)
        assert machine.tracer.access.max_contention(start) <= 3

    def test_stage2_contention_bounded_by_segment_length(self):
        """Full two-stage run: per-round contention is O(log P), never B."""
        p = 8
        machine, sl, ref = make_skiplist(num_modules=p, n=500, seed=17,
                                         trace=True)
        rng = random.Random(5)
        b = p * 3 * 3
        batch = same_successor_batch(sorted(ref.data), b, rng)
        start = machine.tracer.access.num_rounds
        sl.batch_successor(batch)
        cont = machine.tracer.access.max_contention(start)
        seg = max(1, round(math.log2(p)))
        assert cont <= 2 * seg + 3
        assert cont < b / 4  # nowhere near the naive Theta(B)

    @staticmethod
    def _drain_windows(machine):
        """The access tracer's ``[start, end)`` rounds of every drain."""
        windows = []
        drain = machine.drain

        def traced(*args, **kwargs):
            start = machine.tracer.access.num_rounds
            replies = drain(*args, **kwargs)
            windows.append((start, machine.tracer.access.num_rounds))
            return replies

        machine.drain = traced
        return windows

    @pytest.mark.parametrize("p", [16, 64])
    def test_three_root_walks_settle_a_same_successor_batch(self, p):
        """64 keys sharing one successor, pivots ``log^2 P`` apart (5
        pivots at P = 16, 3 at P = 64): phase 0 walks the median pivot
        from the root with the two extremes.  The three paths end on one
        leaf, so every other pivot and key settles from them without a
        message, and three walks down one path stay within Lemma 4.2's
        3 accesses per node per round."""
        machine, sl, ref = make_skiplist(num_modules=p, n=500, seed=22,
                                         trace=True)
        batch = same_successor_batch(sorted(ref.data), 64,
                                     random.Random(p))
        windows = self._drain_windows(machine)
        assert sl.batch_successor(batch) == [ref.successor(k) for k in batch]
        assert len(windows) == 1  # phase 0 is the whole batch
        # Lemma 4.2's bound, reached: three walks share the lower path
        # (two, before the median joined phase 0).
        assert machine.tracer.access.max_contention(*windows[0]) == 3

    @pytest.mark.parametrize("p", [16, 64])
    def test_phase0_of_a_uniform_narrow_batch_has_contention_at_most_3(
            self, p):
        machine, sl, ref = make_skiplist(num_modules=p, n=500, seed=23,
                                         trace=True)
        rng = random.Random(p)
        batch = [rng.randrange(-1000, 501_000) for _ in range(64)]
        windows = self._drain_windows(machine)
        assert sl.batch_successor(batch) == [ref.successor(k) for k in batch]
        assert len(windows) > 1
        assert machine.tracer.access.max_contention(*windows[0]) <= 3

    def test_naive_batch_contention_is_theta_b(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=500, seed=18,
                                         trace=True)
        rng = random.Random(6)
        batch = same_successor_batch(sorted(ref.data), 96, rng)
        start = machine.tracer.access.num_rounds
        naive_batch_successor(sl.struct, batch)
        assert machine.tracer.access.max_contention(start) >= len(batch) // 2


class TestTheorem43Costs:
    def test_io_time_beats_naive_on_adversarial_batch(self):
        machine, sl, ref = make_skiplist(num_modules=16, n=1000, seed=19)
        rng = random.Random(7)
        batch = same_successor_batch(sorted(ref.data), 16 * 16, rng)
        s0 = machine.snapshot()
        naive_batch_successor(sl.struct, batch)
        io_naive = machine.delta_since(s0).io_time
        s1 = machine.snapshot()
        sl.batch_successor(batch)
        io_pivot = machine.delta_since(s1).io_time
        assert io_pivot < io_naive / 4

    def test_io_time_independent_of_n(self):
        """Theorem 4.3's bounds depend on P, not n (IO side)."""
        ios = {}
        for n in (400, 3200):
            machine, sl, ref = make_skiplist(num_modules=8, n=n, seed=20)
            rng = random.Random(8)
            keys = [rng.randrange(n * 100) for _ in range(72)]
            before = machine.snapshot()
            sl.batch_successor(keys)
            ios[n] = machine.delta_since(before).io_time
        assert ios[3200] < 1.8 * ios[400]

    def test_pim_time_grows_with_log_n_only(self):
        times = {}
        for n in (400, 3200):
            machine, sl, ref = make_skiplist(num_modules=8, n=n, seed=21)
            rng = random.Random(9)
            keys = [rng.randrange(n * 100) for _ in range(72)]
            before = machine.snapshot()
            sl.batch_successor(keys)
            times[n] = machine.delta_since(before).pim_time
        # 8x the keys: PIM time may grow ~log n (plus max-statistic noise),
        # but must stay far below linear growth.
        assert times[3200] < 3.0 * times[400]
