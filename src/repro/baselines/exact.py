"""Exact maximum independent set for small graphs.

The exact comparators cited by the paper (Robson, Xiao & Nagamochi) run in
exponential time and "are applicable to problem instances of very limited
sizes" — which is precisely how this module is used: it provides ground
truth for the unit and property-based tests and an optimality reference
for the small ablation benchmarks.

The implementation is a branch-and-bound search with the standard
reductions:

* degree-0 and degree-1 vertices are always taken (safe reductions);
* branching picks a maximum-degree vertex ``v`` and explores
  "``v`` in the set" (discard ``N[v]``) before "``v`` out of the set"
  (discard ``v``), with mirror-free pruning via the trivial bound
  ``current + remaining <= best``.

A ``max_nodes`` safety valve raises :class:`SolverError` when the search
would explode, so library users cannot accidentally hang on a large graph.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.result import MISResult
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.storage.io_stats import IOStats

__all__ = ["exact_mis", "independence_number"]


class _BranchAndBound:
    """Stateful branch-and-bound search over induced subgraphs."""

    def __init__(self, graph: Graph, max_nodes: int) -> None:
        self.graph = graph
        self.max_nodes = max_nodes
        self.nodes_expanded = 0
        self.best: Set[int] = set()

    def search(self, alive: Set[int], chosen: Set[int]) -> None:
        """Explore the subproblem induced by ``alive`` with ``chosen`` already taken."""

        self.nodes_expanded += 1
        if self.nodes_expanded > self.max_nodes:
            raise SolverError(
                f"exact search exceeded the node budget of {self.max_nodes}; "
                "the graph is too large for the exact solver"
            )
        if len(chosen) + len(alive) <= len(self.best):
            return
        if not alive:
            if len(chosen) > len(self.best):
                self.best = set(chosen)
            return

        # Reductions: repeatedly take vertices of degree <= 1 in the live subgraph.
        alive = set(alive)
        chosen = set(chosen)
        reduced = True
        while reduced and alive:
            reduced = False
            for v in list(alive):
                live_neighbors = [u for u in self.graph.neighbors(v) if u in alive]
                if len(live_neighbors) <= 1:
                    chosen.add(v)
                    alive.discard(v)
                    for u in live_neighbors:
                        alive.discard(u)
                    reduced = True
                    break
        if len(chosen) + len(alive) <= len(self.best):
            return
        if not alive:
            if len(chosen) > len(self.best):
                self.best = set(chosen)
            return

        # Branch on a maximum-degree vertex of the live subgraph.
        pivot = max(alive, key=lambda v: sum(1 for u in self.graph.neighbors(v) if u in alive))
        closed = {pivot} | {u for u in self.graph.neighbors(pivot) if u in alive}

        # Branch 1: pivot joins the set.
        self.search(alive - closed, chosen | {pivot})
        # Branch 2: pivot stays out.
        self.search(alive - {pivot}, chosen)


def exact_mis(graph: Graph, max_nodes: int = 2_000_000) -> MISResult:
    """Compute a maximum independent set exactly (small graphs only).

    Parameters
    ----------
    graph:
        The input graph; practical up to roughly 100 vertices of moderate
        density.
    max_nodes:
        Safety bound on the number of branch-and-bound nodes.

    Returns
    -------
    MISResult
        An optimum independent set (algorithm name ``"exact"``).
    """

    started = time.perf_counter()
    solver = _BranchAndBound(graph, max_nodes=max_nodes)
    solver.search(set(graph.vertices()), set())
    elapsed = time.perf_counter() - started
    return MISResult(
        algorithm="exact",
        members=solver.best,
        rounds=(),
        io=IOStats(),
        memory_bytes=0,
        elapsed_seconds=elapsed,
        initial_size=0,
        extras={"nodes_expanded": float(solver.nodes_expanded)},
    )


def independence_number(graph: Graph, max_nodes: int = 2_000_000) -> int:
    """The exact independence number of a small graph."""

    return exact_mis(graph, max_nodes=max_nodes).size
