"""Deterministic hash families for placing structure nodes on modules.

The skip list distributes its lower-part nodes by "a hash function on the
(key, level) pairs" (paper §3.1).  The adversary may choose any keys but
*cannot* see the algorithm's random choices, so a seeded hash family drawn
once per structure suffices.  Determinism matters for reproducibility: we
avoid Python's per-process salted ``hash`` for strings and instead use a
splitmix64-style integer mixer (fast path for int keys) or blake2b of the
key's repr (stable fallback for anything else).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable

_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a strong 64-bit mixing permutation."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return (x ^ (x >> 31)) & _MASK


def stable_hash(obj: Hashable, seed: int = 0) -> int:
    """A process-stable 64-bit hash of ``obj``.

    Ints take the mixer fast path; everything else is hashed via blake2b
    of its ``repr`` (stable across processes, unlike ``hash(str)``).
    """
    if isinstance(obj, bool):  # bool is an int subclass; disambiguate
        obj = ("bool", int(obj))
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

    def __call__(self, key: Hashable, level: int = 0) -> int:
        return self.module_of(key, level)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KeyLevelHash(P={self.num_modules}, seed={self.seed:#x})"
