"""Tests for PIM BFS."""

import random

import networkx as nx
import pytest

from repro import PIMMachine
from repro.algorithms import PIMGraph


class TestBFS:
    def test_path_graph(self):
        machine = PIMMachine(num_modules=4, seed=0)
        g = PIMGraph(machine, [(i, i + 1) for i in range(10)])
        dist = g.bfs(0)
        assert dist == {i: i for i in range(11)}

    def test_matches_networkx_on_random_graph(self):
        rng = random.Random(1)
        nxg = nx.gnm_random_graph(120, 360, seed=7)
        machine = PIMMachine(num_modules=8, seed=1)
        g = PIMGraph(machine, nxg.edges())
        src = 0
        dist = g.bfs(src)
        expect = nx.single_source_shortest_path_length(nxg, src)
        assert dist == dict(expect)

    def test_directed(self):
        machine = PIMMachine(num_modules=4, seed=2)
        g = PIMGraph(machine, [(0, 1), (1, 2)], directed=True)
        assert g.bfs(0) == {0: 0, 1: 1, 2: 2}
        assert g.bfs(2) == {2: 0}

    def test_disconnected_and_components(self):
        machine = PIMMachine(num_modules=4, seed=3)
        g = PIMGraph(machine, [(0, 1), (2, 3), (3, 4)])
        assert set(g.bfs(0)) == {0, 1}
        comp = g.connected_components()
        assert comp[0] == comp[1]
        assert comp[2] == comp[3] == comp[4]
        assert comp[0] != comp[2]

    def test_rounds_track_diameter(self):
        machine = PIMMachine(num_modules=8, seed=4)
        g = PIMGraph(machine, [(i, i + 1) for i in range(30)])
        before = machine.snapshot()
        g.bfs(0)
        d = machine.delta_since(before)
        # one round per level (+ reset round)
        assert 30 <= d.rounds <= 34

    def test_unknown_source_raises(self):
        machine = PIMMachine(num_modules=4, seed=5)
        g = PIMGraph(machine, [(0, 1)])
        with pytest.raises(KeyError):
            g.bfs(99)

    def test_balance_random_vs_star(self):
        """Degree skew, not placement, is BFS's hot-spot on PIM."""
        p = 8
        rng = random.Random(6)
        # random sparse graph
        m1 = PIMMachine(num_modules=p, seed=6)
        nxg = nx.gnm_random_graph(200, 600, seed=8)
        g1 = PIMGraph(m1, nxg.edges())
        before = m1.snapshot()
        g1.bfs(0)
        d_rand = m1.delta_since(before)
        # star: one hub of degree 199
        m2 = PIMMachine(num_modules=p, seed=6)
        g2 = PIMGraph(m2, [(0, i) for i in range(1, 200)])
        before = m2.snapshot()
        g2.bfs(0)
        d_star = m2.delta_since(before)
        # the hub's module must emit ~199 messages in one round
        assert d_star.io_time > 199
        assert d_rand.io_time < d_star.io_time
