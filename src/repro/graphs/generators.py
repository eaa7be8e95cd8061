"""Classic deterministic and random graph generators.

These generators back the unit tests (graphs with known independence
numbers), the property-based tests and several ablation benchmarks.  All
random generators take an explicit ``seed`` so experiments are
reproducible.

The deterministic generators and the configuration-model pairing build
their edge sets as int64 ndarrays and hand them straight to the vectorized CSR pipeline — no per-edge Python tuples.  The
random generators that draw one variate per candidate pair keep their
original sampling loops so seeded graphs stay bit-identical to the seed
implementation.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import GraphError
import numpy as _np

from repro.graphs.graph import Graph

__all__ = [
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "grid_graph",
    "erdos_renyi_gnp",
    "erdos_renyi_gnm",
    "random_bipartite_graph",
    "random_regular_graph",
    "caveman_graph",
    "disjoint_union",
]


def empty_graph(num_vertices: int) -> Graph:
    """Graph with ``num_vertices`` isolated vertices and no edges.

    Its maximum independent set is the whole vertex set.
    """

    return Graph(num_vertices, [])


def path_graph(num_vertices: int) -> Graph:
    """Path ``0 - 1 - ... - (n-1)``; independence number ``ceil(n / 2)``."""

    ids = _np.arange(num_vertices - 1, dtype=_np.int64)
    return Graph(num_vertices, _np.column_stack((ids, ids + 1)))


def cycle_graph(num_vertices: int) -> Graph:
    """Cycle on ``n >= 3`` vertices; independence number ``floor(n / 2)``."""

    if num_vertices < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    ids = _np.arange(num_vertices, dtype=_np.int64)
    return Graph(num_vertices, _np.column_stack((ids, (ids + 1) % num_vertices)))


def star_graph(num_leaves: int) -> Graph:
    """Star with centre 0 and ``num_leaves`` leaves; independence number ``num_leaves``."""

    if num_leaves < 0:
        raise GraphError("num_leaves must be non-negative")
    leaves = _np.arange(1, num_leaves + 1, dtype=_np.int64)
    return Graph(num_leaves + 1, _np.column_stack((_np.zeros_like(leaves), leaves)))


def complete_graph(num_vertices: int) -> Graph:
    """Complete graph K_n; independence number 1 (or 0 for the empty graph)."""

    rows, cols = _np.triu_indices(num_vertices, k=1)
    return Graph(num_vertices, _np.column_stack((rows, cols)).astype(_np.int64))


def complete_bipartite_graph(left: int, right: int) -> Graph:
    """Complete bipartite graph K_{left,right}; independence number ``max(left, right)``."""

    if left < 0 or right < 0:
        raise GraphError("part sizes must be non-negative")
    us = _np.repeat(_np.arange(left, dtype=_np.int64), right)
    vs = _np.tile(_np.arange(left, left + right, dtype=_np.int64), left)
    return Graph(left + right, _np.column_stack((us, vs)))


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows x cols`` grid; independence number ``ceil(rows * cols / 2)``."""

    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    ids = _np.arange(rows * cols, dtype=_np.int64).reshape(rows, cols)
    horizontal = _np.column_stack((ids[:, :-1].reshape(-1), ids[:, 1:].reshape(-1)))
    vertical = _np.column_stack((ids[:-1, :].reshape(-1), ids[1:, :].reshape(-1)))
    return Graph(rows * cols, _np.concatenate((horizontal, vertical)))


def erdos_renyi_gnp(num_vertices: int, probability: float, seed: Optional[int] = None) -> Graph:
    """G(n, p) random graph: every pair is an edge independently with probability ``p``."""

    if not 0.0 <= probability <= 1.0:
        raise GraphError(f"probability must be in [0, 1], got {probability}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if rng.random() < probability
    ]
    return Graph(num_vertices, edges)


def erdos_renyi_gnm(num_vertices: int, num_edges: int, seed: Optional[int] = None) -> Graph:
    """G(n, m) random graph with exactly ``num_edges`` distinct edges.

    Raises :class:`GraphError` when ``num_edges`` is negative or exceeds
    the number of vertex pairs.
    """

    if num_edges < 0:
        raise GraphError(f"num_edges must be non-negative, got {num_edges}")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise GraphError(
            f"cannot place {num_edges} edges in a simple graph on {num_vertices} vertices"
        )
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return Graph(num_vertices, sorted(chosen))


def random_bipartite_graph(
    left: int, right: int, probability: float, seed: Optional[int] = None
) -> Graph:
    """Random bipartite graph: each cross pair is an edge with probability ``p``."""

    if not 0.0 <= probability <= 1.0:
        raise GraphError(f"probability must be in [0, 1], got {probability}")
    rng = random.Random(seed)
    edges = [
        (u, left + v)
        for u in range(left)
        for v in range(right)
        if rng.random() < probability
    ]
    return Graph(left + right, edges)


def random_regular_graph(num_vertices: int, degree: int, seed: Optional[int] = None) -> Graph:
    """Approximately ``degree``-regular random graph via the configuration model.

    Self loops and parallel edges produced by the random matching are
    dropped, so a few vertices may end up with slightly smaller degree —
    exactly the behaviour of the paper's PLRG construction (Section 2.2).
    """

    if degree < 0:
        raise GraphError("degree must be non-negative")
    if degree >= num_vertices:
        raise GraphError("degree must be smaller than the number of vertices")
    if (num_vertices * degree) % 2 == 1:
        raise GraphError("num_vertices * degree must be even")
    rng = random.Random(seed)
    stubs = _np.repeat(_np.arange(num_vertices, dtype=_np.int64), degree).tolist()
    rng.shuffle(stubs)
    pairs = _np.asarray(stubs, dtype=_np.int64)
    pairs = pairs[: 2 * (pairs.size // 2)].reshape(-1, 2)
    # Graph() drops the matching's self loops and parallel edges.
    return Graph(num_vertices, pairs)


def caveman_graph(num_cliques: int, clique_size: int) -> Graph:
    """Connected caveman graph: ``num_cliques`` cliques linked in a ring.

    Its independence number is exactly ``num_cliques`` for
    ``clique_size >= 2``, which makes it a convenient exact fixture.
    """

    if num_cliques < 1 or clique_size < 1:
        raise GraphError("num_cliques and clique_size must be positive")
    edges: List[Tuple[int, int]] = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        # Link the first vertex of this clique to the first vertex of the next one.
        if num_cliques > 1:
            nxt = ((c + 1) % num_cliques) * clique_size
            edges.append((base, nxt))
    return Graph(num_cliques * clique_size, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union of graphs; vertex ids are shifted block by block."""

    total = sum(g.num_vertices for g in graphs)
    blocks = []
    offset = 0
    for g in graphs:
        blocks.append(g.edge_array() + offset)
        offset += g.num_vertices
    if not blocks:
        return Graph(total, [])
    return Graph(total, _np.concatenate(blocks))
