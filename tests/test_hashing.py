"""Tests for the deterministic hash family and stable hashing."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.balls.hashing import KeyLevelHash, mix64, stable_hash
from repro.core.hash_table import CuckooHashTable
from repro.core.structure import MAX_HEIGHT


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


def test_bool_keys_do_not_take_the_int_path():
    h = KeyLevelHash(1 << 20, seed=1)
    assert h.module_of(True) != h.module_of(1)
    assert h.module_of(False) != h.module_of(0)
    t = CuckooHashTable(random.Random(0), initial_capacity=1 << 20)
    assert t._h1(True) != t._h1(1)
