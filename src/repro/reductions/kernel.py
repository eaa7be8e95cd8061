"""Exact reduction rules (kernelization) with solution reconstruction.

The rules implemented here never change the independence number they
account for:

``isolated`` (degree 0)
    The vertex is in some maximum independent set; take it.
``pendant`` (degree 1)
    The vertex is in some maximum independent set; take it and delete its
    neighbour.
``triangle`` (degree 2, adjacent neighbours)
    Taking the degree-2 vertex is never worse than taking either
    neighbour; take it and delete both neighbours.
``fold`` (degree 2, non-adjacent neighbours)
    Fold the vertex ``v`` and its neighbours ``u, w`` into one new vertex
    whose neighbourhood is ``(N(u) ∪ N(w)) \\ {v, u, w}``.  A maximum
    independent set of the folded graph extends to one of the original
    graph: if the folded vertex is selected, replace it by ``{u, w}``,
    otherwise add ``v``.

Reductions operate on *tokens*: original vertex ids plus fresh ids created
by folds, so folds can stack on top of each other; reconstruction unwinds
them in reverse order.

The candidate sweep runs off the graph's cached CSR degree arrays: the
initial worklist is one vectorized ``degree <= 2`` filter, degrees are
maintained incrementally in a flat array over tokens, and adjacency sets
are never materialised per vertex — liveness is a boolean mask over the
zero-copy CSR neighbour slices, with only the fold-created edges held in
an explicit overlay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as _np

from repro.core.result import MISResult
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.storage.io_stats import IOStats

__all__ = ["ReductionStats", "ReducedGraph", "reduce_graph", "reduced_mis"]


@dataclass
class ReductionStats:
    """How often each reduction rule fired."""

    isolated: int = 0
    pendant: int = 0
    triangle: int = 0
    folds: int = 0

    @property
    def total(self) -> int:
        """Total number of rule applications."""

        return self.isolated + self.pendant + self.triangle + self.folds


@dataclass
class _Fold:
    """One degree-2 fold: ``folded`` replaces ``{vertex, left, right}``."""

    folded: int
    vertex: int
    left: int
    right: int


@dataclass
class ReducedGraph:
    """The kernel produced by :func:`reduce_graph` plus reconstruction data.

    Attributes
    ----------
    kernel:
        The reduced graph over compact vertex ids ``0 .. k-1``.
    kernel_tokens:
        Maps each kernel vertex id to its token (an original vertex id or a
        fold token).
    forced_tokens:
        Tokens forced into the independent set by the reductions.
    folds:
        Fold records in application order.
    stats:
        Rule-application counters.
    original_vertices:
        Vertex count of the original graph (for sanity checks).
    overlay_edges:
        Fold-created edges the sweep added to its overlay, a bound on the
        overlay's peak (each is held at both ends).  Not serialized: a
        graph restored by :meth:`from_payload` reports 0.
    """

    kernel: Graph
    kernel_tokens: Tuple[int, ...]
    forced_tokens: FrozenSet[int]
    folds: Tuple[_Fold, ...]
    stats: ReductionStats
    original_vertices: int
    overlay_edges: int = 0

    @property
    def kernel_size(self) -> int:
        """Number of vertices remaining in the kernel."""

        return self.kernel.num_vertices

    @property
    def guaranteed_gain(self) -> int:
        """Vertices the reductions already secured (forced picks + one per fold)."""

        return len(self.forced_tokens) + len(self.folds)

    def reconstruct(self, kernel_solution: Iterable[int]) -> FrozenSet[int]:
        """Lift a kernel independent set back to the original graph."""

        selected: Set[int] = set(self.forced_tokens)
        for kernel_vertex in kernel_solution:
            if not 0 <= kernel_vertex < len(self.kernel_tokens):
                raise SolverError(
                    f"kernel vertex {kernel_vertex} is outside the kernel of size "
                    f"{len(self.kernel_tokens)}"
                )
            selected.add(self.kernel_tokens[kernel_vertex])
        for fold in reversed(self.folds):
            if fold.folded in selected:
                selected.discard(fold.folded)
                selected.add(fold.left)
                selected.add(fold.right)
            else:
                selected.add(fold.vertex)
        if any(token >= self.original_vertices for token in selected):  # pragma: no cover
            raise SolverError("reconstruction left an unresolved fold token in the solution")
        return frozenset(selected)

    def to_payload(self) -> dict:
        """JSON-serializable form (kernel edges + reconstruction data).

        Checkpoints embed this so a resumed run can restore the kernel
        graph and the fold/forced bookkeeping without re-reading the input
        or re-running the reduction sweep.
        """

        # Edges and folds are stored as flat int arrays (sources/targets,
        # 4-tuples run together) rather than lists of pairs: the
        # checkpoint format binary-packs long int lists into its arrays
        # section, and flat layouts are what make a big kernel artifact
        # compress instead of bloating the JSON payload.
        edge_sources: list = []
        edge_targets: list = []
        for u, w in self.kernel.iter_edges():
            edge_sources.append(u)
            edge_targets.append(w)
        flat_folds: list = []
        for fold in self.folds:
            flat_folds.extend((fold.folded, fold.vertex, fold.left, fold.right))
        return {
            "kernel_vertices": self.kernel.num_vertices,
            "kernel_edge_sources": edge_sources,
            "kernel_edge_targets": edge_targets,
            "kernel_tokens": list(self.kernel_tokens),
            "forced_tokens": sorted(self.forced_tokens),
            "folds": flat_folds,
            "stats": {
                "isolated": self.stats.isolated,
                "pendant": self.stats.pendant,
                "triangle": self.stats.triangle,
                "folds": self.stats.folds,
            },
            "original_vertices": self.original_vertices,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ReducedGraph":
        """Inverse of :meth:`to_payload`."""

        kernel = Graph(
            int(payload["kernel_vertices"]),
            list(
                zip(
                    (int(u) for u in payload["kernel_edge_sources"]),
                    (int(w) for w in payload["kernel_edge_targets"]),
                )
            ),
        )
        flat_folds = [int(value) for value in payload["folds"]]
        return cls(
            kernel=kernel,
            kernel_tokens=tuple(int(t) for t in payload["kernel_tokens"]),
            forced_tokens=frozenset(int(t) for t in payload["forced_tokens"]),
            folds=tuple(
                _Fold(
                    folded=flat_folds[i],
                    vertex=flat_folds[i + 1],
                    left=flat_folds[i + 2],
                    right=flat_folds[i + 3],
                )
                for i in range(0, len(flat_folds), 4)
            ),
            stats=ReductionStats(**payload["stats"]),
            original_vertices=int(payload["original_vertices"]),
        )


def reduce_graph(graph: Graph) -> ReducedGraph:
    """Apply the isolated / pendant / triangle / fold rules exhaustively.

    The sweep never materialises per-vertex adjacency sets: degrees live
    in one flat array over tokens (seeded from the graph's cached CSR
    degrees), a vertex's live neighbourhood is its zero-copy CSR slice
    filtered by an ``alive`` mask, and only fold-created edges are stored
    explicitly.  Every fold removes three vertices and adds one token, so
    at most ``n // 2`` tokens beyond the original ids can ever exist.
    """

    n = graph.num_vertices
    capacity = n + n // 2 + 2
    # Flat per-token scalars as plain Python lists: the rule loop touches
    # them item-wise millions of times, where list indexing beats ndarray
    # scalar access several-fold.  The ndarrays are used where they win —
    # the vectorized worklist seeding below and the CSR degree source.
    deg: List[int] = list(graph.degrees()) + [0] * (capacity - n)
    alive: List[bool] = [True] * n + [False] * (capacity - n)
    csr_offsets, csr_targets = graph.csr_arrays()
    offsets_list = csr_offsets.tolist()
    targets_list = csr_targets.tolist()
    # Fold-created edges (always incident to a token >= n), symmetric.
    extra: Dict[int, Set[int]] = {}
    next_token = n
    forced: Set[int] = set()
    folds: List[_Fold] = []
    stats = ReductionStats()
    overlay_edges = 0

    def live_neighbors(vertex: int) -> List[int]:
        """Current neighbours of ``vertex`` (CSR part ascending, overlay unordered)."""

        if vertex < n:
            out = [
                w
                for w in targets_list[offsets_list[vertex] : offsets_list[vertex + 1]]
                if alive[w]
            ]
        else:
            out = []
        added = extra.get(vertex)
        if added:
            out.extend(w for w in added if alive[w])
        return out

    def has_live_edge(u: int, w: int) -> bool:
        if u < n and w < n:
            return graph.has_edge(u, w)
        added = extra.get(u)
        return bool(added and w in added)

    # Worklist seeded by one vectorized degree filter; rule applications
    # re-schedule any vertex whose degree drops into the reducible range.
    pending: List[int] = _np.flatnonzero(graph.degrees_array() <= 2).tolist()
    in_pending: Set[int] = set(pending)

    def schedule(vertex: int) -> None:
        if alive[vertex] and vertex not in in_pending:
            pending.append(vertex)
            in_pending.add(vertex)

    def remove_vertex(vertex: int) -> None:
        neighbors = live_neighbors(vertex)
        alive[vertex] = False
        extra.pop(vertex, None)
        for neighbor in neighbors:
            remaining = deg[neighbor] - 1
            deg[neighbor] = remaining
            if remaining <= 2 and neighbor not in in_pending:
                pending.append(neighbor)
                in_pending.add(neighbor)

    while pending:
        vertex = pending.pop()
        in_pending.discard(vertex)
        if not alive[vertex]:
            continue
        degree = deg[vertex]
        if degree > 2:
            continue

        if degree == 0:
            forced.add(vertex)
            remove_vertex(vertex)
            stats.isolated += 1
            continue

        if degree == 1:
            (only_neighbor,) = live_neighbors(vertex)
            forced.add(vertex)
            remove_vertex(vertex)
            remove_vertex(only_neighbor)
            stats.pendant += 1
            continue

        first, second = live_neighbors(vertex)
        left, right = (first, second) if first < second else (second, first)
        if has_live_edge(left, right):
            # Triangle rule: take the degree-2 vertex.
            forced.add(vertex)
            remove_vertex(vertex)
            remove_vertex(left)
            remove_vertex(right)
            stats.triangle += 1
        else:
            # Fold rule: merge {vertex, left, right} into a fresh token.
            folded = next_token
            next_token += 1
            merged = set(live_neighbors(left)) | set(live_neighbors(right))
            merged -= {vertex, left, right}
            remove_vertex(vertex)
            remove_vertex(left)
            remove_vertex(right)
            alive[folded] = True
            folded_edges = extra.setdefault(folded, set())
            for other in merged:
                folded_edges.add(other)
                other_edges = extra.get(other)
                if other_edges is None:
                    extra[other] = {folded}
                else:
                    other_edges.add(folded)
                deg[other] += 1
            deg[folded] = len(merged)
            overlay_edges += len(merged)
            folds.append(_Fold(folded=folded, vertex=vertex, left=left, right=right))
            stats.folds += 1
            if deg[folded] <= 2:
                schedule(folded)

    # Materialise the kernel over compact ids.
    tokens = _np.flatnonzero(alive[:next_token]).tolist()
    index_of = {token: index for index, token in enumerate(tokens)}
    edges = [
        (index_of[u], index_of[w])
        for u in tokens
        for w in live_neighbors(u)
        if u < w
    ]
    kernel = Graph(len(tokens), edges)
    return ReducedGraph(
        kernel=kernel,
        kernel_tokens=tuple(tokens),
        forced_tokens=frozenset(forced),
        folds=tuple(folds),
        stats=stats,
        original_vertices=graph.num_vertices,
        overlay_edges=overlay_edges,
    )


def reduced_mis(
    graph: Graph,
    kernel_solver: Optional[Callable[[Graph], Iterable[int]]] = None,
) -> MISResult:
    """Reduce, solve the kernel, and reconstruct a solution for ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    kernel_solver:
        Callable mapping the kernel graph to an iterable of kernel vertex
        ids; defaults to the two-k-swap pipeline.  Pass
        ``lambda g: exact_mis(g).members`` for an exact kernel
        solve on small kernels.

    Returns
    -------
    MISResult
        The reconstructed independent set of the original graph
        (algorithm name ``"reduced_mis"``); the extras record the kernel
        size and the per-rule counters.
    """

    started = time.perf_counter()
    reduced = reduce_graph(graph)
    if kernel_solver is None:
        # Imported lazily: the solver facade routes through the pipeline
        # engine, whose reduce stage imports this module.
        from repro.core.solver import solve_mis

        def kernel_solver(kernel: Graph) -> Iterable[int]:
            return solve_mis(kernel, pipeline="two_k_swap").members

    kernel_solution = (
        kernel_solver(reduced.kernel) if reduced.kernel.num_vertices else ()
    )
    solution = reduced.reconstruct(kernel_solution)
    elapsed = time.perf_counter() - started
    return MISResult(
        algorithm="reduced_mis",
        members=solution,
        rounds=(),
        io=IOStats(),
        memory_bytes=0,
        elapsed_seconds=elapsed,
        initial_size=0,
        extras={
            "kernel_vertices": float(reduced.kernel_size),
            "kernel_edges": float(reduced.kernel.num_edges),
            "forced_vertices": float(len(reduced.forced_tokens)),
            "folds": float(len(reduced.folds)),
            "rule_applications": float(reduced.stats.total),
        },
    )
