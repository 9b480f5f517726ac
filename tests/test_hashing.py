"""Tests for the deterministic hash family and stable hashing."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.balls.hashing import (VECTOR_CROSSOVER, KeyLevelHash, mix64,
                                 stable_hash)
from repro.core.hash_table import CuckooHashTable
from repro.core.structure import MAX_HEIGHT
from tests.conftest import DETERMINISTIC


class TestMix64:
    def test_is_deterministic_permutationlike(self):
        xs = [mix64(i) for i in range(1000)]
        assert len(set(xs)) == 1000  # no collisions on small inputs
        assert xs == [mix64(i) for i in range(1000)]

    def test_range(self):
        assert all(0 <= mix64(i) < 2**64 for i in [0, 1, 2**63, 2**64 - 1, -5])


class TestStableHash:
    def test_int_fast_path_deterministic(self):
        assert stable_hash(42, seed=7) == stable_hash(42, seed=7)
        assert stable_hash(42, seed=7) != stable_hash(42, seed=8)

    def test_string_stable(self):
        # blake2b path: stable regardless of PYTHONHASHSEED
        assert stable_hash("key", seed=1) == stable_hash("key", seed=1)
        assert stable_hash("key", seed=1) != stable_hash("key2", seed=1)

    def test_bool_disambiguated_from_int(self):
        assert stable_hash(True, seed=0) != stable_hash(1, seed=0)
        assert stable_hash(False, seed=0) != stable_hash(0, seed=0)

    def test_tuple_keys(self):
        assert stable_hash((1, "a"), seed=0) == stable_hash((1, "a"), seed=0)

    @pytest.mark.parametrize("twin", [
        np.int64(42), np.int8(-42), np.uint64(2**63 + 1), 42.0, -42.0,
        np.float64(42.0), float(2**70)])
    def test_a_key_equal_to_an_int_hashes_as_that_int(self, twin):
        as_int = int(twin)
        assert twin == as_int and hash(twin) == hash(as_int)
        assert stable_hash(twin, seed=7) == stable_hash(as_int, seed=7)

    def test_non_integral_floats_keep_their_repr_hash(self):
        assert stable_hash(42.5, seed=7) != stable_hash(42, seed=7)
        for x in (float("inf"), float("nan"), 1e-3):
            assert stable_hash(x, seed=1) == stable_hash(x, seed=1)

    def test_numpy_bool_is_not_an_int(self):
        # numpy's bool is not Integral: it keeps its repr hash, like
        # ``True`` keeps its disambiguated one.
        assert stable_hash(np.bool_(True), seed=0) != stable_hash(1, seed=0)


class TestKeyLevelHash:
    def test_in_range_and_deterministic(self):
        h = KeyLevelHash(16, seed=3)
        mods = [h.module_of(k, lvl) for k in range(100) for lvl in range(4)]
        assert all(0 <= m < 16 for m in mods)
        h2 = KeyLevelHash(16, seed=3)
        assert mods == [h2.module_of(k, lvl) for k in range(100)
                        for lvl in range(4)]

    def test_levels_hash_independently(self):
        """(k, 0) and (k, 1) placements should be nearly uncorrelated."""
        h = KeyLevelHash(8, seed=5)
        same = sum(1 for k in range(2000)
                   if h.module_of(k, 0) == h.module_of(k, 1))
        # expect ~2000/8 = 250; allow generous slack
        assert 150 < same < 400

    def test_distribution_roughly_uniform(self):
        h = KeyLevelHash(8, seed=9)
        counts = np.bincount([h.module_of(k) for k in range(8000)],
                             minlength=8)
        assert counts.min() > 800
        assert counts.max() < 1200

    def test_adversarial_structured_keys_still_uniform(self):
        """Keys in arithmetic progression (the adversary's cheapest trick)
        still spread, because placement is a seeded strong hash."""
        h = KeyLevelHash(8, seed=11)
        counts = np.bincount(
            [h.module_of(k * 2**20) for k in range(4000)], minlength=8)
        assert counts.max() / counts.min() < 1.6

    def test_invalid_num_modules(self):
        import pytest
        with pytest.raises(ValueError):
            KeyLevelHash(0, seed=0)


# -- folded hashes equal the unfused reference ------------------------------
#
# ``KeyLevelHash.module_of`` and ``CuckooHashTable._h1/_h2`` precompute
# the seed-only mixes and inline the splitmix64 finalizer for int keys.
# The unfused expressions are kept here as the reference.

def _ref_module_of(h, key, level):
    return mix64(stable_hash(key, seed=h.seed)
                 ^ mix64(level ^ h.seed)) % h.num_modules


def _ref_slots(t, key):
    return (stable_hash(key, seed=t._seed1) % t._capacity,
            stable_hash(key, seed=t._seed2) % t._capacity)


_keys = st.one_of(
    st.integers(min_value=-2**70, max_value=2**70),   # negative, >= 2**64
    st.sampled_from([0, -1, 2**63, 2**64 - 1, 2**64, 2**64 + 5, -2**64]),
    st.booleans(),
    st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=3)),
)


@settings(max_examples=200, deadline=None)
@given(key=_keys, seed=st.integers(min_value=0, max_value=2**32 - 1),
       modules=st.integers(min_value=1, max_value=257))
def test_module_of_equals_unfused_reference(key, seed, modules):
    h = KeyLevelHash(modules, seed=seed)
    for level in range(MAX_HEIGHT + 1):
        assert h.module_of(key, level) == _ref_module_of(h, key, level)
    assert h(key) == _ref_module_of(h, key, 0)


@settings(max_examples=200, deadline=None)
@given(key=_keys, seed=st.integers(min_value=0, max_value=2**16))
def test_cuckoo_slots_equal_unfused_reference(key, seed):
    t = CuckooHashTable(random.Random(seed))
    assert (t._h1(key), t._h2(key)) == _ref_slots(t, key)
    old_seeds = (t._seed1, t._seed2)
    t._rebuild(t._capacity * 2)  # reseeds: the folded mixes must follow
    assert (t._seed1, t._seed2) != old_seeds
    assert (t._h1(key), t._h2(key)) == _ref_slots(t, key)


# -- the batch placement equals the scalar loop ------------------------------
#
# ``module_of_many`` takes the fold as uint64 numpy arithmetic for plain
# ints inside int64 (and integer ndarrays) from ``VECTOR_CROSSOVER`` keys
# up, and is the scalar loop for everything else.  One placement: the
# scalar ``module_of`` is the reference, for every key type and width.

_INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
_exotic = st.one_of(
    st.integers(min_value=2**63, max_value=2**70),    # past int64
    st.integers(min_value=-2**70, max_value=-2**63 - 1),
    st.booleans(),
    st.text(max_size=4),
    st.tuples(st.integers(), st.text(max_size=2)),
    st.floats(allow_nan=False),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
# Widths on both sides of the crossover, the empty batch included.
_WIDTH = st.sampled_from(
    [0, 1, VECTOR_CROSSOVER - 1, VECTOR_CROSSOVER, VECTOR_CROSSOVER + 1,
     3 * VECTOR_CROSSOVER])


def _scalar(h, keys, level):
    return [h.module_of(k, level) for k in keys]


@DETERMINISTIC
@given(data=st.data(), width=_WIDTH,
       seed=st.integers(0, 2**32 - 1), modules=st.integers(1, 257),
       level=st.integers(0, MAX_HEIGHT))
def test_module_of_many_equals_the_scalar_loop(data, width, seed, modules,
                                               level):
    h = KeyLevelHash(modules, seed=seed)
    plain = data.draw(st.lists(_INT64, min_size=width, max_size=width))
    assert h.module_of_many(plain, level) == _scalar(h, plain, level)
    assert h.module_of_many(tuple(plain), level) == _scalar(h, plain, level)
    # One exotic key anywhere sends the whole batch down the scalar loop.
    mixed = list(plain)
    for key in data.draw(st.lists(_exotic, min_size=1, max_size=3)):
        mixed.insert(data.draw(st.integers(0, len(mixed))), key)
    assert h.module_of_many(mixed, level) == _scalar(h, mixed, level)


@DETERMINISTIC
@given(data=st.data(), width=_WIDTH, seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                              np.uint8, np.uint32, np.uint64, np.bool_,
                              np.float64]))
def test_module_of_many_on_ndarrays(data, width, seed, dtype):
    h = KeyLevelHash(64, seed=seed)
    if dtype is np.float64:
        elems = st.floats(-1e6, 1e6).map(
            lambda x: round(x) if abs(x) < 10 else x)
    elif dtype is np.bool_:
        elems = st.booleans()
    else:
        info = np.iinfo(dtype)
        elems = st.integers(int(info.min), int(info.max))
    arr = np.array(data.draw(st.lists(elems, min_size=width,
                                      max_size=width)), dtype=dtype)
    for level in (0, 1, MAX_HEIGHT):
        # The array's elements place as the Python values they equal
        # (``True`` excepted: a bool array places as bools).
        assert h.module_of_many(arr, level) == _scalar(h, arr.tolist(), level)


@DETERMINISTIC
@given(data=st.data(), width=_WIDTH, seed=st.integers(0, 2**32 - 1),
       exotic=st.booleans())
def test_module_of_levels_is_module_of_many_per_level(data, width, seed,
                                                      exotic):
    """A batch of towers placed level by level from one fold of the
    keys' own mix: each level's owners are the scalar placement of the
    keys tall enough to reach it."""
    h = KeyLevelHash(64, seed=seed)
    keys = data.draw(st.lists(_INT64, min_size=width, max_size=width))
    if exotic:
        keys.insert(data.draw(st.integers(0, width)), data.draw(_exotic))
    heights = data.draw(st.lists(st.integers(0, 6), min_size=len(keys),
                                 max_size=len(keys)))
    assert h.module_of_levels(keys, heights, 5) == [
        _scalar(h, [k for k, t in zip(keys, heights) if t >= lvl], lvl)
        for lvl in range(5)]


def test_module_of_many_every_level_at_bench_width():
    h = KeyLevelHash(64, seed=20)
    rng = random.Random(20)
    keys = [rng.randrange(-2**40, 2**40) for _ in range(2304)]
    for level in range(MAX_HEIGHT + 1):
        assert h.module_of_many(keys, level) == _scalar(h, keys, level)


def test_bool_keys_do_not_take_the_int_path():
    h = KeyLevelHash(1 << 20, seed=1)
    assert h.module_of(True) != h.module_of(1)
    assert h.module_of(False) != h.module_of(0)
    t = CuckooHashTable(random.Random(0), initial_capacity=1 << 20)
    assert t._h1(True) != t._h1(1)
