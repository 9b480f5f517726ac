"""Randomized parallel list contraction on the CPU side.

Batched Delete (paper §4.4) must splice runs of deleted nodes out of the
horizontal linked lists.  Up to the whole batch can be *consecutive* nodes
of one list, so independent parallel splicing would conflict.  The paper's
solution: copy the marked nodes (plus the flanking unmarked node at each
end of every run) into shared memory, run a randomized parallel list
contraction there (``O(B)`` expected work, ``O(log B)`` whp depth, Shun et
al. [28] / Blelloch et al. [9]), and then splice remotely in parallel.

This module implements the shared-memory contraction with the classic
random-mate scheme: in each round every still-live marked node flips a
coin, and a marked node splices itself out when its coin is heads and its
left neighbor is either unmarked or flipped tails.  Adjacent marked nodes
never splice in the same round, so all updates are conflict-free; each
live node leaves with probability >= 1/4 per round, giving ``O(log B)``
rounds whp.

The simulator executes the rounds for real (so correctness is tested, not
assumed) and charges the *measured* work (sum of live nodes over rounds)
and depth (rounds + fork-tree ``log``), which realizes the canonical
bounds.  :func:`contract_rows` is the contraction loop: it runs over
index columns, which batched Delete builds straight from its marking
replies.
"""

from __future__ import annotations

import random
from typing import List, Tuple


_TOP_BIT = bytes(b >> 7 for b in range(256))
"""Byte -> its top bit, for :meth:`bytes.translate`."""


def contract_rows(live: List[int], left: List[int], right: List[int],
                  rng: random.Random) -> Tuple[int, int]:
    """The random-mate contraction over index columns; returns the
    measured ``(rounds, work)``.

    ``left`` / ``right`` hold each row's neighbor row (-1 for none) and
    are rewired in place; ``live`` lists the marked rows, in the order
    their coins are drawn, and every other row is unmarked.  A round
    draws its ``k`` coins as one ``rng.getrandbits(32 * k)``: coin ``i``
    is the top bit of 32-bit word ``i``, which is exactly what the
    ``i``-th of ``k`` calls of ``rng.getrandbits(1)`` returns, and the
    generator ends in the same state (CPython fills the words least
    significant first, one 32-bit output each;
    ``tests/test_list_contraction.py`` pins it).
    """
    # coin[-1] is the spare last byte: "no left neighbor" reads tails,
    # as an unmarked row does (only live rows are ever written).  A live
    # row's left neighbor is never a spliced row (splicing rewires
    # around it), so stale coins of dead rows are never read.
    coin = bytearray(len(left) + 1)
    rounds = 0
    work = 0
    while live:
        k = len(live)
        rounds += 1
        work += k
        coins = rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4]
        for row, c in zip(live, coins.translate(_TOP_BIT)):
            coin[row] = c
        # heads, and no marked left neighbor that is also heads (that
        # one goes first; adjacent marked rows never splice together)
        to_splice: List[int] = []
        waiting: List[int] = []
        for row in live:
            if coin[row] and not coin[left[row]]:
                to_splice.append(row)
            else:
                waiting.append(row)
        for row in to_splice:
            lf, rt = left[row], right[row]
            if lf >= 0:
                right[lf] = rt
            if rt >= 0:
                left[rt] = lf
        live = waiting
    return rounds, work
