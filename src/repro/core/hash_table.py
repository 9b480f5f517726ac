"""De-amortized cuckoo hash table (one per PIM module).

Paper §4.1: "within a PIM module, we use a de-amortized hash table
supporting O(1) whp work operations [Goodrich et al.].  The table supports
the O(n/P) keys stored in this PIM node in O(1) whp PIM work per Get,
Update, Delete, and Insert operation."  The table maps keys to the
module's level-0 (leaf) nodes so point operations can shortcut straight to
the leaf without touching the pointer structure.

Implementation: classic two-table cuckoo hashing with a small stash, plus
a pending-placement queue processed a constant number of steps per public
operation (the de-amortization of Goodrich et al.: evictions triggered by
an insert are not chased to completion immediately but drained at O(1)
steps per subsequent operation).  Lookups probe T1[h1(k)], T2[h2(k)], the
stash, and the pending queue -- all O(1).  When the stash or load factor
overflows, the table rebuilds with fresh hash seeds and doubled capacity;
rebuild work is charged for real (it amortizes to O(1) per insert and the
whp-O(1) claim is checked empirically in the tests).

Work accounting: the table charges a caller-provided ``charge`` callable
one unit per probe/move, so when embedded in a PIM module the cost lands
in that module's local-work counter.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.balls.hashing import fold64, mix64, stable_hash, uint64_keys

_ABSENT = object()
_MASK = (1 << 64) - 1


class CuckooHashTable:
    """A de-amortized cuckoo hash table with stash and pending queue.

    Parameters
    ----------
    rng:
        Source of hash seeds (rebuilds draw fresh seeds from it).
    charge:
        Optional ``charge(units)`` callable; every probe, move, and
        rebuild step charges through it (defaults to a no-op for
        standalone use).
    initial_capacity:
        Starting size of *each* of the two tables.
    stash_limit:
        Maximum stash size before a rebuild is triggered.
    moves_per_op:
        De-amortization constant: pending-eviction steps executed per
        public operation.
    """

    MAX_LOAD = 0.45  # per-table load factor triggering growth

    def __init__(self, rng: random.Random,
                 charge: Optional[Callable[[float], None]] = None,
                 initial_capacity: int = 8, stash_limit: int = 8,
                 moves_per_op: int = 4) -> None:
        self._rng = rng
        self._charge = charge if charge is not None else (lambda w: None)
        self._set_capacity(max(4, initial_capacity))
        self._stash_limit = stash_limit
        self._moves_per_op = moves_per_op
        self._count = 0
        self._new_seeds()
        self._t1: List[Optional[Tuple[Hashable, Any]]] = [None] * self._capacity
        self._t2: List[Optional[Tuple[Hashable, Any]]] = [None] * self._capacity
        self._stash: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._pending: "OrderedDict[Hashable, Any]" = OrderedDict()

    # -- internals -----------------------------------------------------

    def _set_capacity(self, capacity: int) -> None:
        self._capacity = capacity
        # Eviction-chain cutoff before an item is stashed (cycle break).
        self._max_chase = max(8, 2 * capacity.bit_length())

    def _new_seeds(self) -> None:
        self._seed1 = self._rng.getrandbits(63)
        self._seed2 = self._rng.getrandbits(63)
        # ``stable_hash(key, seed)`` mixes the seed before the key; that
        # half depends on the seed alone, so it is taken once per reseed.
        self._mix1 = mix64(self._seed1)
        self._mix2 = mix64(self._seed2)

    def _h1(self, key: Hashable) -> int:
        if type(key) is not int:  # bool included: it hashes as a tuple
            return stable_hash(key, seed=self._seed1) % self._capacity
        # stable_hash's int path, splitmix64 finalizer inlined.
        x = (key ^ self._mix1) & _MASK
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
        return (x ^ (x >> 31)) % self._capacity

    def _h2(self, key: Hashable) -> int:
        if type(key) is not int:
            return stable_hash(key, seed=self._seed2) % self._capacity
        x = (key ^ self._mix2) & _MASK
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
        return (x ^ (x >> 31)) % self._capacity

    def _drain_pending(self, steps: int) -> None:
        """Run up to ``steps`` cuckoo placement moves from the queue.

        Queue entries carry the table the item should try next, so a
        chase interrupted by the step budget resumes where it left off
        (losing the alternation state would ping-pong forever at small
        ``moves_per_op``).
        """
        if not self._pending:
            # Nothing queued (every lookup of a settled table): only the
            # stash-limit check below remains to be made.
            if len(self._stash) > self._stash_limit:
                self._rebuild(self._capacity * 2)
            return
        max_chase = self._max_chase
        while steps > 0 and self._pending:
            key, (value, use_t1) = self._pending.popitem(last=False)
            item: Optional[Tuple[Hashable, Any]] = (key, value)
            chase = 0
            # Chase evictions within both the op budget and the cycle cutoff.
            while item is not None and steps > 0 and chase < max_chase:
                steps -= 1
                chase += 1
                self._charge(1)
                k, v = item
                idx = self._h1(k) if use_t1 else self._h2(k)
                table = self._t1 if use_t1 else self._t2
                evicted = table[idx]
                table[idx] = (k, v)
                item = evicted
                use_t1 = not use_t1
            if item is not None:
                if chase >= max_chase:
                    # Suspected eviction cycle: park it in the stash.
                    self._stash[item[0]] = item[1]
                else:
                    # Step budget exhausted mid-chase: requeue at the front,
                    # remembering which table the displaced item tries next.
                    self._pending[item[0]] = (item[1], use_t1)
                    self._pending.move_to_end(item[0], last=False)
        if len(self._stash) > self._stash_limit:
            self._rebuild(self._capacity * 2)

    def _rebuild(self, new_capacity: int) -> None:
        """Rehash everything with fresh seeds; grow until the stash fits."""
        self._place_all(list(self.items()), new_capacity)

    def _place_all(self, items: List[Tuple[Hashable, Any]],
                   new_capacity: int) -> None:
        """Empty the table and place ``items`` eagerly at
        ``new_capacity`` (or above), with fresh seeds.

        One attempt is one loop over the item indices: every key is
        hashed once into the columns ``h1`` / ``h2`` (one numpy fold for
        int64 keys, :meth:`_h1` / :meth:`_h2` otherwise), and each item
        chases evictions between the two tables, parking in the stash
        after ``_max_chase`` moves.  An attempt is charged
        ``len(items) + 1`` plus one unit per move; one whose stash ends
        over the limit is dropped and the capacity doubles."""
        n = len(items)
        keys = [k for k, _ in items]
        arr = uint64_keys(keys)
        capacity = max(4, new_capacity)
        # Slots hold item indices, -1 for empty: ``slots[-1]`` is None.
        slots: List[Any] = list(items) + [None]
        while True:
            self._set_capacity(capacity)
            self._new_seeds()
            if arr is None:
                h1 = [self._h1(k) for k in keys]
                h2 = [self._h2(k) for k in keys]
            else:
                cap = np.uint64(capacity)
                h1 = (fold64(arr ^ np.uint64(self._mix1)) % cap).tolist()
                h2 = (fold64(arr ^ np.uint64(self._mix2)) % cap).tolist()
            t1 = [-1] * capacity
            t2 = [-1] * capacity
            stashed: List[int] = []
            moves = 0
            chase = range(self._max_chase)
            for i in range(n):
                j = i
                for step in chase:
                    moves += 1
                    if step & 1:
                        idx = h2[j]
                        evicted = t2[idx]
                        t2[idx] = j
                    else:
                        idx = h1[j]
                        evicted = t1[idx]
                        t1[idx] = j
                    if evicted < 0:
                        break
                    j = evicted
                else:
                    stashed.append(j)
            self._charge(n + 1 + moves)
            if len(stashed) <= self._stash_limit:
                break
            capacity *= 2
        self._t1 = [slots[j] for j in t1]
        self._t2 = [slots[j] for j in t2]
        self._stash = OrderedDict((keys[j], items[j][1]) for j in stashed)
        self._pending = OrderedDict()
        self._count = n

    # -- public API ---------------------------------------------------------

    def lookup(self, key: Hashable, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``.  O(1) probes.

        Like every public operation, a lookup also advances the pending
        placement queue by O(1) moves (the de-amortization schedule).
        The public operations hash an int key inline (:meth:`_h1` /
        :meth:`_h2` spelled out) and charge their probes in one call.
        """
        if self._pending or len(self._stash) > self._stash_limit:
            self._drain_pending(self._moves_per_op)
        if type(key) is int:
            x = (key ^ self._mix1) & _MASK
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
            slot = self._t1[(x ^ (x >> 31)) % self._capacity]
        else:
            slot = self._t1[self._h1(key)]
        if slot is not None and slot[0] == key:
            self._charge(1)
            return slot[1]
        if type(key) is int:
            x = (key ^ self._mix2) & _MASK
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
            slot = self._t2[(x ^ (x >> 31)) % self._capacity]
        else:
            slot = self._t2[self._h2(key)]
        if slot is not None and slot[0] == key:
            self._charge(2)
            return slot[1]
        if key in self._stash:
            self._charge(3)
            return self._stash[key]
        if key in self._pending:
            self._charge(3)
            return self._pending[key][0]
        self._charge(2)
        return default

    def __contains__(self, key: Hashable) -> bool:
        return self.lookup(key, _ABSENT) is not _ABSENT

    def insert(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite ``key``.  O(1) de-amortized moves."""
        probes = self._update_in_place(key, value)
        if probes:
            self._charge(probes)
        else:
            self._pending[key] = (value, True)
            self._count += 1
            self._charge(3)  # two probes and the queue push
            if self._count > 2 * self.MAX_LOAD * self._capacity:
                self._rebuild(self._capacity * 2)
        if self._pending or len(self._stash) > self._stash_limit:
            self._drain_pending(self._moves_per_op)

    def load(self, items: List[Tuple[Hashable, Any]]) -> None:
        """Fill an empty table with ``items`` (distinct keys) in one
        eager pass, charged like a rebuild.

        The capacity is the one inserting the items one at a time would
        grow the table to by its load-factor rule, so the table ends as
        full as that, without the rebuilds along the way.
        """
        if self._count:
            raise ValueError("load requires an empty table")
        capacity = self._capacity
        while len(items) > 2 * self.MAX_LOAD * capacity:
            capacity *= 2
        self._place_all(items, capacity)

    def _update_in_place(self, key: Hashable, value: Any) -> int:
        """Overwrite ``key``'s value where it is; returns the probes
        that took, for the caller to charge, or 0 (two probes, charged
        by the caller) when the key is absent."""
        if type(key) is int:
            x = (key ^ self._mix1) & _MASK
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
            i1 = (x ^ (x >> 31)) % self._capacity
        else:
            i1 = self._h1(key)
        slot = self._t1[i1]
        if slot is not None and slot[0] == key:
            self._t1[i1] = (key, value)
            return 1
        if type(key) is int:
            x = (key ^ self._mix2) & _MASK
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
            i2 = (x ^ (x >> 31)) % self._capacity
        else:
            i2 = self._h2(key)
        slot = self._t2[i2]
        if slot is not None and slot[0] == key:
            self._t2[i2] = (key, value)
        elif key in self._stash:
            self._stash[key] = value
        elif key in self._pending:
            self._pending[key] = (value, self._pending[key][1])
        else:
            return 0
        return 2

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present.  O(1) probes."""
        if type(key) is int:
            x = (key ^ self._mix1) & _MASK
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
            i1 = (x ^ (x >> 31)) % self._capacity
        else:
            i1 = self._h1(key)
        slot = self._t1[i1]
        if slot is not None and slot[0] == key:
            self._t1[i1] = None
            probes = 1
        else:
            if type(key) is int:
                x = (key ^ self._mix2) & _MASK
                x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
                x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
                i2 = (x ^ (x >> 31)) % self._capacity
            else:
                i2 = self._h2(key)
            slot = self._t2[i2]
            if slot is not None and slot[0] == key:
                self._t2[i2] = None
                probes = 2
            elif key in self._stash:
                del self._stash[key]
                probes = 3
            elif key in self._pending:
                del self._pending[key]
                probes = 3
            else:
                probes = 0
        self._charge(probes or 2)
        if probes:
            self._count -= 1
        if self._pending or len(self._stash) > self._stash_limit:
            self._drain_pending(self._moves_per_op)
        return probes > 0

    def __len__(self) -> int:
        return self._count

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """All (key, value) pairs, in no particular order."""
        for slot in self._t1:
            if slot is not None:
                yield slot
        for slot in self._t2:
            if slot is not None:
                yield slot
        yield from self._stash.items()
        for k, (v, _) in self._pending.items():
            yield (k, v)

    @property
    def capacity(self) -> int:
        """Current size of each of the two tables."""
        return self._capacity

    @property
    def stash_size(self) -> int:
        return len(self._stash)

    @property
    def pending_size(self) -> int:
        return len(self._pending)
