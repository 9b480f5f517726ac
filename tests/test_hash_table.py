"""Tests for the de-amortized cuckoo hash table (paper §4.1's local table)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hash_table import CuckooHashTable


def make_table(seed=0, **kw):
    return CuckooHashTable(random.Random(seed), **kw)


class TestBasics:
    def test_insert_lookup(self):
        t = make_table()
        t.insert("a", 1)
        assert t.lookup("a") == 1
        assert t.lookup("b") is None
        assert t.lookup("b", default=-1) == -1
        assert "a" in t and "b" not in t

    def test_overwrite_does_not_grow_count(self):
        t = make_table()
        t.insert("a", 1)
        t.insert("a", 2)
        assert t.lookup("a") == 2
        assert len(t) == 1

    def test_delete(self):
        t = make_table()
        t.insert("a", 1)
        assert t.delete("a") is True
        assert t.delete("a") is False
        assert len(t) == 0
        assert t.lookup("a") is None

    def test_none_values_storable(self):
        t = make_table()
        t.insert("k", None)
        assert "k" in t
        assert t.lookup("k", default="absent") is None

    def test_items_cover_everything(self):
        t = make_table()
        for i in range(50):
            t.insert(i, i * i)
        assert dict(t.items()) == {i: i * i for i in range(50)}


class TestGrowthAndDeamortization:
    def test_grows_under_load(self):
        t = make_table(initial_capacity=4)
        for i in range(200):
            t.insert(i, i)
        assert t.capacity > 4
        assert len(t) == 200
        for i in range(200):
            assert t.lookup(i) == i

    def test_pending_queue_drains(self):
        t = make_table(moves_per_op=1)
        for i in range(100):
            t.insert(i, i)
        # lookups must see pending items immediately
        assert all(t.lookup(i) == i for i in range(100))
        # a few extra ops drain the queue completely
        for _ in range(400):
            t.lookup(0)
        assert t.pending_size == 0

    def test_charges_flow_to_hook(self):
        charges = []
        t = CuckooHashTable(random.Random(0), charge=charges.append)
        for i in range(32):
            t.insert(i, i)
        t.lookup(5)
        t.delete(7)
        assert sum(charges) > 32  # at least one probe per operation

    def test_average_charge_is_constant(self):
        """whp-O(1) ops: average work per op stays bounded as n grows."""
        totals = {}
        for n in (256, 4096):
            acc = []
            t = CuckooHashTable(random.Random(1), charge=acc.append)
            for i in range(n):
                t.insert(i, i)
            totals[n] = sum(acc) / n
        assert totals[4096] < 3 * totals[256] + 10


class TestAdversarialPatterns:
    def test_insert_delete_churn(self):
        t = make_table(seed=3)
        ref = {}
        rng = random.Random(9)
        for step in range(3000):
            k = rng.randrange(200)
            if rng.random() < 0.5:
                t.insert(k, step)
                ref[k] = step
            else:
                assert t.delete(k) == (k in ref)
                ref.pop(k, None)
        assert dict(t.items()) == ref
        assert len(t) == len(ref)

    def test_clustered_keys(self):
        t = make_table(seed=4, initial_capacity=4)
        for i in range(512):
            t.insert(i * 2**32, i)
        assert all(t.lookup(i * 2**32) == i for i in range(512))


def test_lookup_with_empty_queue_still_enforces_the_stash_limit():
    """``_drain_pending`` returns at once on an empty queue, but not
    before its stash-limit check: a lookup on a settled table whose
    stash is over the limit must still rebuild."""
    t = make_table(seed=3, stash_limit=2)
    for i in range(20):
        t.insert(i, i)
    while t.pending_size:
        t.lookup(0)
    for i in range(100, 103):  # park three items past the limit of two
        t._stash[i] = i
        t._count += 1
    capacity = t.capacity
    assert t.pending_size == 0 and t.stash_size == 3
    assert t.lookup(5) == 5
    assert t.capacity > capacity and t.stash_size <= 2
    assert all(t.lookup(i) == i for i in list(range(20)) + [100, 101, 102])
    assert len(t) == 23


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del", "get"]),
                  st.integers(min_value=0, max_value=40)),
        max_size=200,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_dict_equivalence(ops, seed):
    """Property: the cuckoo table behaves exactly like a dict."""
    t = make_table(seed=seed, initial_capacity=4, moves_per_op=2)
    ref = {}
    for op, k in ops:
        if op == "ins":
            t.insert(k, k + 1)
            ref[k] = k + 1
        elif op == "del":
            assert t.delete(k) == (k in ref)
            ref.pop(k, None)
        else:
            assert t.lookup(k) == ref.get(k)
    assert dict(t.items()) == ref
    assert len(t) == len(ref)
