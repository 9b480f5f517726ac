"""Tests for randomized parallel list contraction (batched Delete's core):
:func:`~repro.cpuside.list_contraction.contract_rows` over the index
columns of doubly linked chains."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpuside.list_contraction import contract_rows


class Contracted:
    """``chains`` of ``(ident, marked)`` pairs, each linked in order, as
    ``contract_rows``' index columns, contracted with ``rng``: the
    measured ``rounds`` / ``work``, the ``spliced`` count and each
    survivor's new ``links``."""

    def __init__(self, chains, rng):
        ident, left, right, live = [], [], [], []
        for chain in chains:
            prev = -1
            for name, marked in chain:
                row = len(ident)
                ident.append(name)
                left.append(prev)
                right.append(-1)
                if prev >= 0:
                    right[prev] = row
                if marked:
                    live.append(row)
                prev = row
        self.spliced = len(live)
        marked = set(live)
        self.rounds, self.work = contract_rows(live, left, right, rng)
        self._ident, self._left, self._right = ident, left, right
        self.links = [(ident[row], ident[right[row]] if right[row] >= 0
                       else None)
                      for row in range(len(ident)) if row not in marked]

    def neighbor_of(self, name):
        row = self._ident.index(name)
        lf, rt = self._left[row], self._right[row]
        return (self._ident[lf] if lf >= 0 else None,
                self._ident[rt] if rt >= 0 else None)


def reference_splice(chain):
    """Expected surviving adjacency of one chain."""
    survivors = [ident for ident, marked in chain if not marked]
    out = []
    for a, b in zip(survivors, survivors[1:]):
        out.append((a, b))
    if survivors:
        out.append((survivors[-1], None))
    return out


class TestContractionList:
    def test_single_run_spliced(self):
        out = Contracted([[("L", False), ("m1", True), ("m2", True),
                           ("R", False)]], random.Random(0))
        assert out.spliced == 2
        assert out.links == [("L", "R"), ("R", None)]
        assert out.neighbor_of("L") == (None, "R")
        assert out.neighbor_of("R") == ("L", None)

    def test_all_marked_chain(self):
        out = Contracted([[(i, True) for i in range(10)]], random.Random(1))
        assert out.links == []

    def test_alternating_marks(self):
        chain = [(i, i % 2 == 1) for i in range(9)]
        out = Contracted([chain], random.Random(2))
        assert out.links == reference_splice(chain)

    def test_multiple_chains_independent(self):
        c1 = [("a", False), ("x", True), ("b", False)]
        c2 = [("c", False), ("y", True), ("z", True), ("d", False)]
        out = Contracted([c1, c2], random.Random(3))
        assert set(out.links) == set(reference_splice(c1)
                                     + reference_splice(c2))

    def test_long_run_rounds_logarithmic(self):
        """A 1024-node marked run contracts in O(log) rounds, not O(n)."""
        out = Contracted([[("L", False)] + [(i, True) for i in range(1024)]
                          + [("R", False)]], random.Random(4))
        assert out.spliced == 1024
        assert out.rounds <= 60  # whp ~ log_{4/3}(1024) ~ 24
        assert out.links[0] == ("L", "R")


class TestAdjacencyBuilder:
    """The run shapes batched Delete's marking replies report."""

    def test_adjacency_equivalent_to_chain(self):
        # marked nodes m1-m2 between L and R
        out = Contracted([[("L", False), ("m1", True), ("m2", True),
                           ("R", False)]], random.Random(5))
        assert ("L", "R") in out.links

    def test_adjacency_run_at_tail(self):
        out = Contracted([[("L", False), ("m", True)]], random.Random(6))
        assert out.links == [("L", None)]

    def test_two_runs_sharing_boundary(self):
        # L m1 X m2 R : X is right boundary of run 1 and left of run 2
        out = Contracted([[("L", False), ("m1", True), ("X", False),
                           ("m2", True), ("R", False)]], random.Random(7))
        links = dict(out.links)
        assert links["L"] == "X"
        assert links["X"] == "R"


@settings(max_examples=60, deadline=None)
@given(
    marks=st.lists(st.booleans(), min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_contraction_matches_reference(marks, seed):
    """Property: contraction == sequential splice for any mark pattern."""
    chain = [(i, m) for i, m in enumerate(marks)]
    assert Contracted([chain], random.Random(seed)).links == \
        reference_splice(chain)


@pytest.mark.parametrize("k", [0, 1, 2, 33, 1000])
@pytest.mark.parametrize("seed", [0, 0x11C7, 2**40 + 3])
def test_one_wide_draw_is_k_one_bit_draws(k, seed):
    """The CPython detail ``contract_rows`` relies on: the top bit of
    32-bit word ``i`` of ``getrandbits(32 * k)`` is the ``i``-th of ``k``
    ``getrandbits(1)`` calls, and both generators end in the same
    state."""
    wide, narrow = random.Random(seed), random.Random(seed)
    bits = wide.getrandbits(32 * k)
    assert [(bits >> (32 * i + 31)) & 1 for i in range(k)] == [
        narrow.getrandbits(1) for _ in range(k)]
    assert wide.getstate() == narrow.getstate()
    assert wide.getrandbits(64) == narrow.getrandbits(64)
