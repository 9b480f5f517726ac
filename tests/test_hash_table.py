"""Tests for the de-amortized cuckoo hash table (paper §4.1's local table)."""

import hashlib
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.hash_table import CuckooHashTable
from repro.workloads import build_items
from tests.conftest import DETERMINISTIC


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


# -- the placement loop: bulk loads and rebuilds ----------------------------


def _layout(t):
    """What a placement decides: capacity, seeds, where every key sits
    (table slots, then the stash in its order) and the count."""
    return (t.capacity, t._seed1, t._seed2,
            [s and s[0] for s in t._t1], [s and s[0] for s in t._t2],
            list(t._stash), len(t))


#: Layout and charge digests of a ``load`` of non-int64 keys, by the
#: type of the batch's last key.
PIN_SCALAR = {"tuple": "b68f9e36c24d929e", "str": "5bca7b6432a77519",
              "int": "797148fc5f001af5"}


def _reference_load(t, items):
    """``load`` as one eager chase per item (the placement before the
    loop): fresh seeds per attempt, one charge per move."""
    capacity = t.capacity
    while len(items) > 2 * t.MAX_LOAD * capacity:
        capacity *= 2
    while True:
        t._set_capacity(capacity)
        t._new_seeds()
        t._t1, t._t2 = [None] * capacity, [None] * capacity
        t._stash = OrderedDict()
        t._charge(len(items) + 1)
        for item in items:
            use_t1 = True
            for _ in range(t._max_chase):
                if item is None:
                    break
                t._charge(1)
                table = t._t1 if use_t1 else t._t2
                idx = t._h1(item[0]) if use_t1 else t._h2(item[0])
                item, table[idx] = table[idx], item
                use_t1 = not use_t1
            if item is not None:
                t._stash[item[0]] = item[1]
        if len(t._stash) <= t._stash_limit:
            break
        capacity *= 2
    t._count = len(items)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestPlacementLoop:
    """``load`` and every rebuild place a table's items in one loop per
    attempt.  The digests were taken before that loop was written (one
    eager chase per item, each hash taken per step): seeds, capacities,
    slot contents, stash order and charges must not move."""

    def test_a_build_places_every_module_table_as_pinned(self):
        machine = PIMMachine(num_modules=8, seed=3)
        sl = PIMSkipList(machine)
        sl.build(build_items(1024, stride=2))
        layout = [(_layout(m.state["skiplist"].table), m.work, m.round_work)
                  for m in machine.modules]
        assert _digest(layout) == "df147ac5af8eea0c"

    def test_a_forced_stash_doubles_the_capacity(self):
        """Over the stash limit the attempt is thrown away and the
        capacity doubles (seed 8: 128 -> 256); under it the stash keeps
        its item; seven keys are below the vector crossover."""
        got = []
        for seed, n, limit in ((8, 115, 0), (8, 115, 1), (13, 7, 0)):
            charges = []
            t = CuckooHashTable(random.Random(seed), charge=charges.append,
                                initial_capacity=4, stash_limit=limit)
            t.load([(8 * i, -i) for i in range(n)])
            assert dict(t.items()) == {8 * i: -i for i in range(n)}
            got.append((_layout(t), sum(charges)))
        assert [(g[0][0], len(g[0][5])) for g in got] == [
            (256, 0), (128, 1), (16, 0)]
        assert _digest(got) == "eeeaaa6bc5bb7cf1"

    @pytest.mark.parametrize("keys", [
        [("t", i) for i in range(40)],
        [f"s{i}" for i in range(40)],
        [True, False] + [2 ** 70 + i for i in range(38)],
    ], ids=["tuple", "str", "bool-and-past-int64"])
    def test_keys_that_are_not_int64_take_the_scalar_hash(self, keys):
        charges = []
        t = CuckooHashTable(random.Random(9), charge=charges.append)
        t.load([(k, i) for i, k in enumerate(keys)])
        assert dict(t.items()) == {k: i for i, k in enumerate(keys)}
        assert _digest((_layout(t), sum(charges))) \
            == PIN_SCALAR[type(keys[-1]).__name__]

    @DETERMINISTIC
    @given(keys=st.one_of(
        st.lists(st.integers(-2**63, 2**63 - 1), max_size=120,
                 unique=True),
        st.lists(st.one_of(st.integers(-2**70, 2**70), st.text(max_size=3)),
                 max_size=40, unique=True)),
        seed=st.integers(0, 1000), limit=st.integers(0, 2),
        capacity=st.sampled_from([4, 8, 32]))
    def test_the_loop_places_as_one_chase_per_item(self, keys, seed, limit,
                                                   capacity):
        """The placement loop against the eager chase it replaced, kept
        here as the reference: each item in turn chases evictions from
        table 1, each step hashing the moved key, into the stash after
        ``_max_chase`` moves."""
        items = [(k, i) for i, k in enumerate(keys)]
        got, want = [], []
        t = CuckooHashTable(random.Random(seed), charge=got.append,
                            initial_capacity=capacity, stash_limit=limit)
        t.load(items)
        ref = CuckooHashTable(random.Random(seed), charge=want.append,
                              initial_capacity=capacity, stash_limit=limit)
        _reference_load(ref, items)
        assert _layout(t) == _layout(ref)
        assert sum(got) == sum(want)
        assert dict(t.items()) == dict(items)

    def test_a_load_and_a_rebuild_charge_as_pinned(self):
        """The module's ``work`` and ``round_work`` after a ``load`` and
        after a rebuild that an insert triggers."""
        machine = PIMMachine(num_modules=1, seed=1)
        module = machine.modules[0]
        t = CuckooHashTable(random.Random(2), charge=module.charge)
        t.load([(3 * i, i) for i in range(200)])
        after_load = (module.work, module.round_work, _layout(t))
        for i in range(400):
            t.insert(3 * i + 1, i)
        after_rebuild = (module.work, module.round_work, _layout(t))
        assert t.capacity > after_load[2][0]
        assert _digest((after_load, after_rebuild)) == "3406a2520dd58e79"
