"""Tests for randomized parallel list contraction (batched Delete's core)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpuside.list_contraction import ContractionList, splice_out_marked
from repro.sim.cpu import CPUSide
from repro.sim.metrics import Metrics


def make_cpu():
    return CPUSide(Metrics(num_modules=2), shared_memory_words=10_000)


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
        cl = ContractionList()
        cl.add_chain([("L", False), ("m1", True), ("m2", True), ("R", False)])
        stats = cl.contract(random.Random(0))
        assert stats.spliced == 2
        assert cl.links() == [("L", "R"), ("R", None)]
        assert cl.neighbor_of("L") == (None, "R")
        assert cl.neighbor_of("R") == ("L", None)

    def test_all_marked_chain(self):
        cl = ContractionList()
        cl.add_chain([(i, True) for i in range(10)])
        cl.contract(random.Random(1))
        assert cl.links() == []

    def test_alternating_marks(self):
        chain = [(i, i % 2 == 1) for i in range(9)]
        cl = ContractionList()
        cl.add_chain(chain)
        cl.contract(random.Random(2))
        assert cl.links() == reference_splice(chain)

    def test_multiple_chains_independent(self):
        c1 = [("a", False), ("x", True), ("b", False)]
        c2 = [("c", False), ("y", True), ("z", True), ("d", False)]
        cl = ContractionList()
        cl.add_chain(c1)
        cl.add_chain(c2)
        cl.contract(random.Random(3))
        assert set(cl.links()) == set(reference_splice(c1) + reference_splice(c2))

    def test_duplicate_ident_rejected(self):
        cl = ContractionList()
        cl.add_chain([("a", False)])
        with pytest.raises(ValueError):
            cl.add_chain([("a", True)])

    def test_neighbor_of_marked_rejected(self):
        cl = ContractionList()
        cl.add_chain([("a", True)])
        with pytest.raises(ValueError):
            cl.neighbor_of("a")

    def test_long_run_rounds_logarithmic(self):
        """A 1024-node marked run contracts in O(log) rounds, not O(n)."""
        cl = ContractionList()
        cl.add_chain([("L", False)] + [(i, True) for i in range(1024)]
                     + [("R", False)])
        stats = cl.contract(random.Random(4))
        assert stats.spliced == 1024
        assert stats.rounds <= 60  # whp ~ log_{4/3}(1024) ~ 24
        assert cl.links()[0] == ("L", "R")


class TestAdjacencyBuilder:
    def test_adjacency_equivalent_to_chain(self):
        # marked nodes m1-m2 between L and R, built from neighbor reports
        cl = ContractionList()
        cl.add_adjacency([("m1", "L", "m2"), ("m2", "m1", "R")])
        cl.contract(random.Random(5))
        assert ("L", "R") in cl.links()

    def test_adjacency_run_at_tail(self):
        cl = ContractionList()
        cl.add_adjacency([("m", "L", None)])
        cl.contract(random.Random(6))
        assert cl.links() == [("L", None)]

    def test_adjacency_duplicate_rejected(self):
        cl = ContractionList()
        with pytest.raises(ValueError):
            cl.add_adjacency([("m", None, None), ("m", None, None)])

    def test_two_runs_sharing_boundary(self):
        # L m1 X m2 R : X is right boundary of run 1 and left of run 2
        cl = ContractionList()
        cl.add_adjacency([("m1", "L", "X"), ("m2", "X", "R")])
        cl.contract(random.Random(7))
        links = dict(cl.links())
        assert links["L"] == "X"
        assert links["X"] == "R"


class TestSpliceOutMarked:
    def test_returns_links_and_charges(self):
        cpu = make_cpu()
        chain = [("L", False), (1, True), (2, True), ("R", False)]
        links, stats = splice_out_marked(cpu, random.Random(0), [chain])
        assert ("L", "R") in links
        assert cpu.metrics.cpu_work >= stats.work
        assert cpu.metrics.shared_mem_peak == 4 * 4
        assert cpu.metrics.shared_mem_in_use == 0


@settings(max_examples=60, deadline=None)
@given(
    marks=st.lists(st.booleans(), min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_contraction_matches_reference(marks, seed):
    """Property: contraction == sequential splice for any mark pattern."""
    chain = [(i, m) for i, m in enumerate(marks)]
    cl = ContractionList()
    cl.add_chain(chain)
    cl.contract(random.Random(seed))
    assert cl.links() == reference_splice(chain)


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
