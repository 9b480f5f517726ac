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
bounds.  :func:`contract_rows` is the one contraction loop: it runs over
index columns, which batched Delete builds straight from its marking
replies and :class:`ContractionList` builds from chains or adjacency
records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.sim.cpu import CPUSide, WorkDepth


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


@dataclass
class ContractionStats:
    """Measured cost of one contraction run."""

    rounds: int
    work: int
    spliced: int


class ContractionList:
    """A collection of doubly linked chains of (ident, marked) nodes.

    Build with :meth:`add_chain` (each chain is an independent linked list
    segment, e.g. the copied region of one skip-list level), then call
    :meth:`contract`.

    The copied nodes are rows of parallel index columns (``left`` /
    ``right`` hold row numbers, -1 for none), not linked objects: a
    doubly linked scratch graph is a reference cycle per adjacency,
    which the batch path must not create (the cyclic collector is paused
    while a batch runs; see :func:`repro.ops.batch_epoch`).
    """

    def __init__(self) -> None:
        self._ident: List[Hashable] = []
        self._marked: List[bool] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._row: Dict[Hashable, int] = {}

    def _add(self, ident: Hashable, marked: bool) -> int:
        row = len(self._ident)
        self._row[ident] = row
        self._ident.append(ident)
        self._marked.append(marked)
        self._left.append(-1)
        self._right.append(-1)
        return row

    def add_chain(self, chain: Sequence[Tuple[Hashable, bool]]) -> None:
        """Append a chain of ``(ident, marked)`` pairs, linked in order.

        Idents must be globally unique across chains.
        """
        prev = -1
        for ident, marked in chain:
            if ident in self._row:
                raise ValueError(f"duplicate ident {ident!r}")
            row = self._add(ident, marked)
            if prev >= 0:
                self._right[prev] = row
                self._left[row] = prev
            prev = row

    def add_adjacency(
        self,
        entries: Sequence[Tuple[Hashable, Optional[Hashable], Optional[Hashable]]],
    ) -> None:
        """Build chains from *marked-node adjacency* records.

        Each entry is ``(ident, left_ident, right_ident)`` for one marked
        node; idents referenced as neighbors but not present as entries
        are created as unmarked boundary nodes.  This is how batched
        Delete assembles its chains: each marking task reports its node's
        neighbors, and no sequential run-walking is needed (O(B) work,
        O(log B) depth on the CPU side).
        """
        rows = self._row
        # First pass: create all marked nodes.
        for ident, _, _ in entries:
            if ident in rows:
                raise ValueError(f"duplicate ident {ident!r}")
            self._add(ident, True)
        # Second pass: link, creating unmarked boundaries on demand.
        for ident, left, right in entries:
            row = rows[ident]
            if left is not None:
                lrow = rows.get(left)
                if lrow is None:
                    lrow = self._add(left, False)
                self._left[row] = lrow
                self._right[lrow] = row
            if right is not None:
                rrow = rows.get(right)
                if rrow is None:
                    rrow = self._add(right, False)
                self._right[row] = rrow
                self._left[rrow] = row

    def __len__(self) -> int:
        return len(self._ident)

    def contract(self, rng: random.Random) -> ContractionStats:
        """Splice out all marked nodes; returns measured cost.

        After contraction, surviving (unmarked) nodes' ``left``/``right``
        pointers bypass every marked node.  Query the result with
        :meth:`links`.
        """
        live = [row for row, m in enumerate(self._marked) if m]
        rounds, work = contract_rows(live, self._left, self._right, rng)
        return ContractionStats(rounds=rounds, work=work, spliced=len(live))

    def links(self) -> List[Tuple[Optional[Hashable], Optional[Hashable]]]:
        """New (left_ident, right_ident) adjacencies between survivors.

        One pair per surviving node and its (possibly new) right neighbor,
        including ``(ident, None)`` for chain tails -- exactly the remote
        pointer writes batched Delete must issue.
        """
        ident, right = self._ident, self._right
        out: List[Tuple[Optional[Hashable], Optional[Hashable]]] = []
        for row, m in enumerate(self._marked):
            if m:
                continue
            rt = right[row]
            out.append((ident[row], ident[rt] if rt >= 0 else None))
        return out

    def neighbor_of(self, ident: Hashable) -> Tuple[Optional[Hashable], Optional[Hashable]]:
        """Post-contraction (left, right) neighbor idents of a survivor."""
        row = self._row[ident]
        if self._marked[row]:
            raise ValueError("marked nodes have no post-contraction neighbors")
        lf, rt = self._left[row], self._right[row]
        return (self._ident[lf] if lf >= 0 else None,
                self._ident[rt] if rt >= 0 else None)


def splice_out_marked(
    cpu: CPUSide,
    rng: random.Random,
    chains: Sequence[Sequence[Tuple[Hashable, bool]]],
) -> Tuple[List[Tuple[Optional[Hashable], Optional[Hashable]]], ContractionStats]:
    """Contract ``chains`` in shared memory; return new links + stats.

    Charges the measured contraction work and ``rounds + log2(total)``
    depth to the CPU accountant, and accounts the shared-memory footprint
    of the copied nodes for the duration of the call.
    """
    clist = ContractionList()
    total = 0
    for chain in chains:
        clist.add_chain(chain)
        total += len(chain)
    words = 4 * total  # ident + left + right + mark per copied node
    with cpu.region(words):
        stats = clist.contract(rng)
        links = clist.links()
    logt = max(1.0, math.log2(total)) if total > 1 else 1.0
    cpu.charge_wd(WorkDepth(max(total, stats.work), stats.rounds + logt))
    return links, stats
