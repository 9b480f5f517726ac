"""Level-synchronous BFS on the PIM model.

Graphs are a natural PIM workload: adjacency lists live in the modules
(vertices placed by a seeded hash, so any vertex-set is spread whp), and
a BFS wave is exactly the model's bulk-synchronous round structure --
one round per level:

- the CPU seeds the source vertex;
- a visited vertex's module marks its distance (first arrival wins; a
  message's arrival round *is* its BFS distance, because every edge
  traversal costs one module-to-module forward) and forwards one visit
  message per outgoing edge to the neighbors' owners;
- already-visited vertices absorb duplicates at O(1) work.

Costs for a graph with n vertices / m edges and diameter D:
``O((n + m)/P + D·(hub traffic))`` IO time over ``D + 1`` rounds, and
``O((n + m)/P)`` whp PIM time *if degrees are spread*.  A high-degree
hub is a genuine hot-spot -- its module must send ``deg(hub)`` messages
in one round -- which the benchmark demonstrates with a star graph: the
imbalance is in the *workload's structure*, not the placement, matching
how real PIM systems behave.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.balls.hashing import KeyLevelHash
from repro.sim.machine import PIMMachine


class PIMGraph:
    """A graph distributed over the PIM modules by vertex hash."""

    def __init__(self, machine: PIMMachine,
                 edges: Iterable[Tuple[Hashable, Hashable]],
                 directed: bool = False, name: str = "graph") -> None:
        self.machine = machine
        self.name = name
        self.hash = KeyLevelHash(
            machine.num_modules,
            seed=machine.spawn_rng(0x6AF).getrandbits(32),
        )
        adj: Dict[Hashable, List[Hashable]] = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, [])
            if not directed:
                adj[v].append(u)
        self.num_vertices = len(adj)
        self.num_edges = sum(len(vs) for vs in adj.values())
        for module in machine.modules:
            module.state[name] = {"adj": {}, "dist": {}}
        for u, vs in adj.items():
            mid = self.owner(u)
            machine.modules[mid].state[name]["adj"][u] = list(vs)
            machine.modules[mid].alloc_words(1 + len(vs))
        if f"{name}:visit" not in machine._handlers:
            machine.register_all(self._handlers())

    def owner(self, v: Hashable) -> int:
        """The module holding vertex ``v``'s adjacency and label."""
        return self.hash.module_of(("vtx", v))

    def _handlers(self) -> Dict[str, Any]:
        name = self.name

        def h_visit(ctx, v, dist, tag=None):
            state = ctx.module.state[name]
            ctx.charge(1)
            ctx.touch(("vtx", v))
            if v in state["dist"]:
                return  # duplicate arrival: absorbed at O(1)
            if v not in state["adj"]:
                raise KeyError(f"unknown vertex {v!r}")
            state["dist"][v] = dist
            ctx.reply(("visited", v, dist), size=1)
            neighbors = state["adj"][v]
            ctx.charge(len(neighbors))
            for u in neighbors:
                ctx.forward(self.owner(u), f"{name}:visit", (u, dist + 1))

        def h_reset(ctx, tag=None):
            state = ctx.module.state[name]
            ctx.charge(len(state["dist"]) + 1)
            state["dist"] = {}

        return {f"{name}:visit": h_visit, f"{name}:reset": h_reset}

    def bfs(self, source: Hashable) -> Dict[Hashable, int]:
        """Distances from ``source`` for every reachable vertex."""
        machine = self.machine
        machine.broadcast(f"{self.name}:reset", ())
        machine.drain()
        machine.send(self.owner(source), f"{self.name}:visit", (source, 0))
        dist: Dict[Hashable, int] = {}
        for r in machine.drain():
            if r.payload[0] == "visited":
                _, v, d = r.payload
                dist[v] = d
        machine.cpu.charge(len(dist) + 1,
                           max(1.0, math.log2(len(dist) + 2)))
        return dist

    def connected_components(self) -> Dict[Hashable, int]:
        """Component id (a representative vertex's index) per vertex,
        by repeated BFS from unvisited vertices."""
        machine = self.machine
        vertices: List[Hashable] = []
        for module in machine.modules:
            vertices.extend(module.state[self.name]["adj"].keys())
        comp: Dict[Hashable, int] = {}
        cid = 0
        for v in sorted(vertices, key=repr):
            if v in comp:
                continue
            for u in self.bfs(v):
                comp[u] = cid
            cid += 1
        return comp
