"""Deterministic hash families for placing structure nodes on modules.

The skip list distributes its lower-part nodes by "a hash function on the
(key, level) pairs" (paper §3.1).  The adversary may choose any keys but
*cannot* see the algorithm's random choices, so a seeded hash family drawn
once per structure suffices.  Determinism matters for reproducibility: we
avoid Python's per-process salted ``hash`` for strings and instead use a
splitmix64-style integer mixer (fast path for int keys) or blake2b of the
key's repr (stable fallback for anything else).

Placement must agree with key equality: a structure groups a batch's
keys with a ``dict`` (``==`` and ``hash``) and its walk compares them, so
two keys that are equal must land on the same module.  An integral
number -- a numpy integer scalar, an integer-valued ``float`` -- is
therefore placed as the ``int`` it equals (:func:`stable_hash`).

A batch is placed by :meth:`KeyLevelHash.module_of_many`: the same fold
as :meth:`KeyLevelHash.module_of`, taken as uint64 numpy arithmetic when
every key is a plain ``int`` that fits int64 and the batch is wide enough
to pay for the conversion (:func:`uint64_keys`), and by the scalar loop
otherwise.  :func:`fold64` is that arithmetic, the splitmix64 finalizer
over an array: the module tables' cuckoo hashes take it too.
"""

from __future__ import annotations

import hashlib
import numbers
from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

_MASK = (1 << 64) - 1
_C1, _C2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)

VECTOR_CROSSOVER = 16
"""Batch width from which :meth:`KeyLevelHash.module_of_many` takes the
numpy fold.  Measured on the development host (CPython 3.11, numpy 2.4;
best of 21 timings of the whole call on lists of plain ints),
microseconds for the scalar loop / the fold: n = 8: 6.6 / 10.8;
12: 12.2 / 11.0; 14: 11.2 / 11.1; 16: 12.5 / 11.0; 32: 25.8 / 11.9;
88 (a ``repro serve`` batch): 66 / 14 (4.7x); 800: 600 / 49 (12x);
2 304 (``min_search_batch`` at P = 64): 1 810 / 118 (15x).  The fold's
fixed cost is ~10.7 us of array set-up against ~0.8 us a key for the
loop, so it loses below ~14 keys."""


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a strong 64-bit mixing permutation."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return (x ^ (x >> 31)) & _MASK


def fold64(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a uint64 array (uint64 products
    wrap exactly as ``& _MASK`` does)."""
    x = (x ^ (x >> _U30)) * _C1
    x = (x ^ (x >> _U27)) * _C2
    x ^= x >> _U31
    return x


def uint64_keys(keys: Sequence[Hashable]) -> Optional[np.ndarray]:
    """``[k & _MASK for k in keys]`` as a uint64 array -- the int64 two's
    complement view -- when there are at least :data:`VECTOR_CROSSOVER`
    keys and every one is a plain ``int`` within int64; ``None``
    otherwise, and the caller hashes key by key."""
    if len(keys) < VECTOR_CROSSOVER or set(map(type, keys)) != {int}:
        return None
    try:
        return np.array(keys, dtype=np.int64).view(np.uint64)
    except OverflowError:  # an int past int64
        return None


def stable_hash(obj: Hashable, seed: int = 0) -> int:
    """A process-stable 64-bit hash of ``obj``.

    Ints take the mixer fast path; everything else is hashed via blake2b
    of its ``repr`` (stable across processes, unlike ``hash(str)``).
    A key that *equals* an int -- any other :class:`numbers.Integral`
    (numpy integer scalars) or an integer-valued ``float`` -- hashes as
    that int: equal keys must be placed together, or a ``dict`` groups
    them and the hash sends the group to the wrong module.  ``bool``
    keeps its own, disambiguated hash (pinned since PR 15), so ``True``
    and ``1`` remain one dict key with two placements.
    """
    if isinstance(obj, bool):  # bool is an int subclass; disambiguate
        obj = ("bool", int(obj))
    elif isinstance(obj, numbers.Integral) or (
            isinstance(obj, float) and obj.is_integer()):
        obj = int(obj)
    if isinstance(obj, int):
        return mix64(obj ^ mix64(seed))
    digest = hashlib.blake2b(
        repr(obj).encode("utf-8"), digest_size=8,
        key=seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


class KeyLevelHash:
    """Seeded hash family mapping ``(key, level)`` pairs to module ids.

    One instance is drawn per structure (from the machine's seed); the
    adversary's keys are fixed before the draw, so placements are uniform
    and independent of the workload -- the precondition of Lemmas 2.1/2.2.
    """

    def __init__(self, num_modules: int, seed: int) -> None:
        if num_modules < 1:
            raise ValueError("num_modules must be >= 1")
        self.num_modules = num_modules
        self.seed = mix64(seed ^ 0x9E3779B97F4A7C15)
        # Folded constants: ``module_of`` is on every placement, so the
        # two mixes that depend only on the seed (and the level) are
        # taken once -- the int-key mix here, the level mixes on first
        # use of a level.  Values are those of the unfused expression
        # ``mix64(stable_hash(key, seed) ^ mix64(level ^ seed))``.
        self._seed_mix = mix64(self.seed)
        self._level_mix: Dict[int, int] = {}

    def module_of(self, key: Hashable, level: int = 0) -> int:
        """The module that owns the node for ``key`` at ``level``."""
        lm = self._level_mix.get(level)
        if lm is None:
            lm = self._level_mix[level] = mix64(level ^ self.seed)
        if type(key) is int:
            # stable_hash's int path with the splitmix64 finalizer
            # inlined (bool is not ``int`` here and takes the call).
            x = (key ^ self._seed_mix) & _MASK
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
            x ^= x >> 31
        else:
            x = stable_hash(key, seed=self.seed)
        x ^= lm
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
        return (x ^ (x >> 31)) % self.num_modules

    def module_of_many(self, keys: Union[Sequence[Hashable], np.ndarray],
                       level: int = 0) -> List[int]:
        """``[module_of(k, level) for k in keys]``, as one array fold.

        The numpy path serves an integer ``ndarray`` and, from
        :data:`VECTOR_CROSSOVER` keys up, a sequence whose keys are all
        plain ``int`` within int64; everything else -- ``bool``, ints
        past int64, str, tuple, float, numpy scalars, narrow batches --
        is the scalar loop, so there is one placement, not two.
        """
        if isinstance(keys, np.ndarray):
            if keys.dtype.kind not in "iu":
                return self.module_of_many(keys.tolist(), level)
            # Two's complement makes ``key & _MASK`` the uint64 view of
            # an int64.
            arr = (keys if keys.dtype == np.uint64
                   else keys.astype(np.int64, copy=False).view(np.uint64))
        else:
            arr = uint64_keys(keys)
            if arr is None:
                return [self.module_of(k, level) for k in keys]
        return self._level_fold(fold64(arr ^ np.uint64(self._seed_mix)),
                                level)

    def module_of_levels(self, keys: Sequence[Hashable],
                         heights: Sequence[int], levels: int,
                         ) -> List[List[int]]:
        """Element ``lvl < levels``: ``module_of_many`` of the keys whose
        height is at least ``lvl``, in order -- the owners of a batch
        of towers' level-``lvl`` nodes.  The key's own mix does not
        depend on the level, so it is folded once for all of them."""
        arr = uint64_keys(keys)
        if arr is None:
            return [self.module_of_many(
                [k for k, h in zip(keys, heights) if h >= lvl], lvl)
                for lvl in range(levels)]
        mixed = fold64(arr ^ np.uint64(self._seed_mix))
        tall = np.array(heights)
        return [self._level_fold(mixed if lvl == 0 else mixed[tall >= lvl],
                                 lvl)
                for lvl in range(levels)]

    def _level_fold(self, mixed: np.ndarray, level: int) -> List[int]:
        """The modules of keys whose own mix is ``mixed``, at ``level``."""
        lm = self._level_mix.get(level)
        if lm is None:
            lm = self._level_mix[level] = mix64(level ^ self.seed)
        x = fold64(mixed ^ np.uint64(lm))
        return (x % np.uint64(self.num_modules)).tolist()

    def __call__(self, key: Hashable, level: int = 0) -> int:
        return self.module_of(key, level)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KeyLevelHash(P={self.num_modules}, seed={self.seed:#x})"
