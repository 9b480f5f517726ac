"""Key-type generality: the structure works for any ordered, hashable key.

The model's keys are abstract ordered values; placement uses the
process-stable blake2b fallback for non-integer keys, so strings, floats
and tuples all work -- deterministically across runs -- and a key that
equals an int (a numpy integer, an integer-valued float) is placed as
that int.
"""

import asyncio
import random

import numpy as np

from repro import PIMMachine, PIMSkipList
from repro.serve import Server, ServerConfig


def build(items, p=8, seed=70):
    machine = PIMMachine(num_modules=p, seed=seed)
    sl = PIMSkipList(machine)
    sl.build(items)
    return machine, sl


class TestStringKeys:
    WORDS = sorted(["apple", "banana", "cherry", "date", "elder",
                    "fig", "grape", "kiwi", "lemon", "mango",
                    "nectarine", "olive", "peach", "quince"])

    def test_full_lifecycle(self):
        machine, sl = build([(w, w.upper()) for w in self.WORDS])
        assert sl.batch_get(["fig", "zzz"]) == ["FIG", None]
        assert sl.batch_successor(["e"])[0] == ("elder", "ELDER")
        assert sl.batch_predecessor(["e"])[0] == ("date", "DATE")
        sl.batch_upsert([("coconut", "C"), ("fig", "F2")])
        assert sl.batch_get(["coconut", "fig"]) == ["C", "F2"]
        sl.batch_delete(["apple", "quince"])
        sl.check_integrity()
        r = sl.range_broadcast("c", "g")
        assert [k for k, _ in r.values] == [
            "cherry", "coconut", "date", "elder", "fig"]
        r2 = sl.batch_range([("c", "g")])
        assert r2[0].values == r.values

    def test_placement_is_deterministic_across_machines(self):
        a = build([(w, 0) for w in self.WORDS], seed=5)[1]
        b = build([(w, 0) for w in self.WORDS], seed=5)[1]
        owners_a = [a.struct.leaf_owner(w) for w in self.WORDS]
        owners_b = [b.struct.leaf_owner(w) for w in self.WORDS]
        assert owners_a == owners_b


class TestFloatKeys:
    def test_lifecycle(self):
        rng = random.Random(0)
        keys = sorted(rng.random() for _ in range(60))
        machine, sl = build([(k, i) for i, k in enumerate(keys)])
        assert sl.batch_get([keys[5]]) == [5]
        assert sl.batch_successor([keys[5] + 1e-12])[0][0] == keys[6]
        sl.batch_delete(keys[10:20])
        sl.check_integrity()
        assert sl.size == 50

    def test_mixed_int_float_order(self):
        machine, sl = build([(1, "a"), (1.5, "b"), (2, "c")])
        assert sl.batch_successor([1.1])[0] == (1.5, "b")
        assert sl.batch_predecessor([1.9])[0] == (1.5, "b")


class TestTupleKeys:
    def test_composite_keys(self):
        items = sorted(((u, i), u * 10 + i)
                       for u in range(5) for i in range(4))
        machine, sl = build(items)
        assert sl.batch_get([(2, 3)]) == [23]
        # range over one "user": all of u=2
        r = sl.batch_range([((2, 0), (2, 999))])
        assert [k for k, _ in r[0].values] == [(2, i) for i in range(4)]
        sl.batch_upsert([((2, 9), 29)])
        assert sl.successor((2, 4)) == ((2, 9), 29)
        sl.check_integrity()


class TestKeysEqualToAnInt:
    """A key that is ``==`` and hash-equal to a stored Python int --
    a numpy integer, an integer-valued float -- shares its dict slot in
    every CPU-side grouping, so it must share its placement too.  At
    PR 19 it was placed by blake2b of its ``repr``: point reads missed
    stored keys and an upsert inserted a second copy."""

    STORED = [(k, k * 10) for k in range(0, 200, 2)]

    def test_integer_ndarray_get(self):
        _, sl = build(self.STORED)
        assert sl.batch_get(np.arange(8, 14)) == [80, None, 100, None,
                                                  120, None]

    def test_numpy_scalar_and_its_int_twin_in_one_batch(self):
        _, sl = build(self.STORED)
        assert sl.batch_get([np.int64(10), 10]) == [100, 100]
        assert sl.batch_get([10, np.int64(10)]) == [100, 100]
        assert sl.get(np.int32(10)) == 100

    def test_integer_valued_float_get(self):
        _, sl = build(self.STORED)
        assert sl.batch_get([10.0, 10.5, np.float64(12.0)]) == [100, None,
                                                                120]

    def test_numpy_upsert_takes_the_update_shortcut(self):
        _, sl = build(self.STORED)
        stats = sl.batch_upsert([(np.int64(10), -1)])
        assert (stats.updated, stats.inserted) == (1, 0)
        assert sl.size == len(self.STORED)
        sl.check_integrity()
        assert sl.batch_get([10]) == [-1]
        assert sl.batch_update([(np.int64(12), -2), (14.0, -3)]) == 2
        assert sl.batch_get([12, 14]) == [-2, -3]

    def test_numpy_delete_finds_the_stored_int(self):
        _, sl = build(self.STORED)
        stats = sl.batch_delete([np.int64(10), 12.0, np.int64(11)])
        assert (stats.deleted, stats.not_found) == (2, 1)
        sl.check_integrity()
        assert sl.batch_get([10, 12]) == [None, None]

    def test_successor_was_always_right(self):
        # The walk compares keys; it never depended on placement.
        _, sl = build(self.STORED)
        assert sl.batch_successor([np.int64(10), np.int64(11)]) == [
            (10, 100), (12, 120)]

    def test_a_numpy_key_inserted_fresh_is_found_as_an_int(self):
        _, sl = build(self.STORED)
        sl.batch_upsert([(np.int64(11), "new")])
        sl.check_integrity()
        assert sl.batch_get([11, np.int64(11), 11.0]) == ["new"] * 3

    def test_through_the_server(self):
        def standby():
            return PIMSkipList(PIMMachine(num_modules=8, seed=70))

        async def scenario():
            sl = standby()
            sl.build(self.STORED)
            server = Server(sl, standby, ServerConfig())
            await server.start()
            got = await server.submit("t", "get", [np.int64(10), 10, 12.0])
            await server.submit("t", "upsert", [(np.int64(10), -1)])
            after = await server.submit("t", "get", [10, np.int64(11)])
            succ = await server.submit("t", "successor", [np.int64(11)])
            await server.stop()
            return sl, got, after, succ

        sl, got, after, succ = asyncio.run(scenario())
        assert got == [100, 100, 120]
        assert after == [-1, None]
        assert succ == [(12, 120)]
        assert sl.size == len(self.STORED)
        sl.check_integrity()
