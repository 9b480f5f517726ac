"""Tests for the CPU-side parallel substrate (primitives, sort, semisort)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cpuside import (
    dedup,
    dedup_last,
    group_by,
    group_positions,
    merge_sorted,
    parallel_sort,
    pfilter,
    pflatten,
    pmap,
    ppack,
    preduce,
    pscan_exclusive,
    semisort,
    sort_positions,
)
from repro.sim.cpu import CPUSide
from repro.sim.metrics import Metrics
from tests.conftest import DETERMINISTIC


@pytest.fixture
def cpu():
    return CPUSide(Metrics(num_modules=4), shared_memory_words=1000)


class TestPrimitives:
    def test_pmap(self, cpu):
        assert pmap(cpu, [1, 2, 3], lambda x: x * 2) == [2, 4, 6]
        assert cpu.metrics.cpu_work == 3
        assert cpu.metrics.cpu_depth == pytest.approx(math.log2(3) + 1)

    def test_pmap_empty_charges_nothing(self, cpu):
        assert pmap(cpu, [], lambda x: x) == []
        assert cpu.metrics.cpu_work == 0

    def test_pfilter(self, cpu):
        assert pfilter(cpu, range(10), lambda x: x % 2 == 0) == [0, 2, 4, 6, 8]

    def test_ppack(self, cpu):
        assert ppack(cpu, "abcd", [True, False, True, False]) == ["a", "c"]
        with pytest.raises(ValueError):
            ppack(cpu, "abc", [True])

    def test_preduce(self, cpu):
        assert preduce(cpu, [1, 2, 3, 4], lambda a, b: a + b, 0) == 10
        assert cpu.metrics.cpu_depth == pytest.approx(2.0)  # log2(4)

    def test_pscan_exclusive(self, cpu):
        prefixes, total = pscan_exclusive(cpu, [1, 2, 3, 4])
        assert prefixes == [0, 1, 3, 6]
        assert total == 10

    def test_pscan_empty(self, cpu):
        prefixes, total = pscan_exclusive(cpu, [])
        assert prefixes == [] and total == 0

    def test_pflatten(self, cpu):
        assert pflatten(cpu, [[1], [], [2, 3]]) == [1, 2, 3]


class TestSort:
    def test_parallel_sort_correct_and_stable(self, cpu):
        data = [(3, "a"), (1, "b"), (3, "c"), (2, "d")]
        out = parallel_sort(cpu, data, key=lambda t: t[0])
        assert out == [(1, "b"), (2, "d"), (3, "a"), (3, "c")]

    def test_parallel_sort_charges_nlogn_work_logn_depth(self, cpu):
        parallel_sort(cpu, list(range(16)))
        assert cpu.metrics.cpu_work == pytest.approx(16 * 4)
        assert cpu.metrics.cpu_depth == pytest.approx(4)

    def test_reverse(self, cpu):
        assert parallel_sort(cpu, [1, 3, 2], reverse=True) == [3, 2, 1]

    def test_merge_sorted(self, cpu):
        assert merge_sorted(cpu, [1, 4, 9], [2, 3, 10]) == [1, 2, 3, 4, 9, 10]
        assert merge_sorted(cpu, [], [1]) == [1]
        assert merge_sorted(cpu, [1], []) == [1]

    def test_merge_sorted_with_key(self, cpu):
        out = merge_sorted(cpu, [(1, "x")], [(0, "y"), (2, "z")],
                           key=lambda t: t[0])
        assert [t[0] for t in out] == [0, 1, 2]


class TestSemisort:
    def test_group_by_preserves_first_seen_order(self, cpu):
        groups = group_by(cpu, [3, 1, 3, 2, 1], key=lambda x: x)
        assert list(groups) == [3, 1, 2]
        assert groups[3] == [3, 3]

    def test_semisort_gathers_equal_keys(self, cpu):
        out = semisort(cpu, [5, 1, 5, 2, 1, 5], key=lambda x: x)
        # equal keys adjacent
        seen = []
        for x in out:
            if not seen or seen[-1] != x:
                seen.append(x)
        assert len(seen) == len(set(out))

    def test_dedup(self, cpu):
        reps, groups = dedup(cpu, [("a", 1), ("b", 2), ("a", 3)],
                             key=lambda t: t[0])
        assert reps == [("a", 1), ("b", 2)]
        assert groups["a"] == [("a", 1), ("a", 3)]

    def test_semisort_charges_linear_work(self, cpu):
        semisort(cpu, list(range(64)), key=lambda x: x % 4)
        # 2n for grouping (+ scatter already included)
        assert cpu.metrics.cpu_work == pytest.approx(2 * 64)
        assert cpu.metrics.cpu_depth == pytest.approx(6)


# -- the index-stable forms equal the generic ones ----------------------------
#
# ``sort_positions``, ``group_positions`` and ``dedup_last`` do the work
# of a generic primitive called with a per-key lambda, without the
# lambda; the generic spelling is the reference: same result, same
# charge, on batches with ties, all-equal and all-distinct keys.

_BATCH = st.one_of(
    st.lists(st.integers(-5, 5), max_size=40),               # many ties
    st.lists(st.integers(), max_size=40, unique=True),       # all distinct
    st.lists(st.just(7), max_size=12),                       # all equal
    st.lists(st.text(max_size=2), max_size=20),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=20),
)


def _charged(fn, *args, **kwargs):
    side = CPUSide(Metrics(num_modules=4), shared_memory_words=1000)
    out = fn(side, *args, **kwargs)
    return out, side.metrics.cpu_work, side.metrics.cpu_depth


@DETERMINISTIC
@given(_BATCH)
def test_sort_positions_equals_the_tuple_keyed_sort(keys):
    want = _charged(parallel_sort, list(range(len(keys))),
                    key=lambda i: (keys[i], i))
    assert _charged(sort_positions, keys) == want
    assert _charged(sort_positions, tuple(keys)) == want
    order = want[0]
    assert all((keys[a], a) < (keys[b], b) for a, b in zip(order, order[1:]))


@DETERMINISTIC
@given(_BATCH)
def test_group_positions_equals_group_by_over_positions(keys):
    want = _charged(group_by, list(range(len(keys))), key=lambda i: keys[i])
    got = _charged(group_positions, keys)
    assert got == want
    assert list(got[0]) == list(want[0])        # first-occurrence order
    assert sorted(i for g in got[0].values() for i in g) == list(
        range(len(keys)))


@DETERMINISTIC
@given(_BATCH, st.data())
def test_dedup_last_equals_the_last_of_each_group(keys, data):
    pairs = [(k, data.draw(st.integers(0, 9))) for k in keys]
    groups, work, depth = _charged(group_by, pairs, key=lambda kv: kv[0])
    got = _charged(dedup_last, pairs)
    assert got == ({k: occ[-1][1] for k, occ in groups.items()}, work, depth)
    assert list(got[0]) == list(groups)
