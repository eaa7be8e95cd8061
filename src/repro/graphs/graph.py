"""In-memory simple undirected graph backed by a vectorized CSR layout.

The semi-external algorithms in :mod:`repro.core` never require the whole
edge set in memory — they stream it from a
:class:`repro.storage.adjacency_file.AdjacencyFileReader`.  This module
provides the *in-memory* representation used by the graph generators, the
in-memory baselines, the exact solver and the tests.  It intentionally
mirrors the on-disk adjacency-list representation (per-vertex sorted
neighbour lists) so converting between the two is a straight copy.

The CSR arrays (``_offsets`` / ``_targets``) are ``int64`` NumPy ndarrays
built by an O(E log E) sort-and-dedup pipeline: the edge list is
symmetrised, lexicographically sorted and deduplicated with vectorized
array operations — no per-vertex Python sets are ever materialised.

Vertices are the integers ``0 .. n-1``.  The graph is simple: self loops
and parallel edges passed to the builder are silently dropped, matching
the paper's "simple undirected graph" setting (Section 2.1).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import GraphError, VertexError

__all__ = ["Graph", "GraphBuilder", "build_csr", "permutation_array"]


def _as_int64(values, what: str):
    """Coerce to an int64 ndarray, rejecting non-integral dtypes.

    ``np.asarray(..., dtype=int64)`` would silently truncate floats, which
    would turn a malformed edge or permutation into a silently different
    graph.
    """

    arr = _np.asarray(values)
    if arr.size and not (
        _np.issubdtype(arr.dtype, _np.integer) or arr.dtype == _np.bool_
    ):
        raise GraphError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(_np.int64, copy=False)


def permutation_array(values, num_vertices: int):
    """Return ``values`` as an int64 ndarray if it permutes ``0..n-1``, else ``None``.

    Shared by :meth:`Graph.relabeled` and the explicit-scan-order
    validation in :mod:`repro.storage.scan`.
    """

    try:
        arr = (
            _as_int64(values, "permutation entries")
            if len(values)
            else _np.empty(0, dtype=_np.int64)
        )
    except GraphError:
        return None
    if arr.shape != (num_vertices,):
        return None
    if num_vertices == 0:
        return arr
    if arr.min() < 0 or arr.max() >= num_vertices:
        return None
    if not bool((_np.bincount(arr, minlength=num_vertices) == 1).all()):
        return None
    return arr


def _first_invalid_endpoint(pairs, num_vertices: int) -> int:
    """Return the first out-of-range endpoint in edge order (u before v)."""

    flat = pairs.reshape(-1)
    bad = flat[(flat < 0) | (flat >= num_vertices)]
    return int(bad[0])


def build_csr(num_vertices: int, edges) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Build int64 ``(offsets, targets)`` CSR arrays from an edge iterable.

    Vectorized O(E log E) sort-and-dedup construction.
    """

    if isinstance(edges, _np.ndarray):
        pairs = edges
        if pairs.ndim == 1 and pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        pairs = _as_int64(pairs, "edge endpoints")
    else:
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        if len(edges) == 0:
            pairs = _np.empty((0, 2), dtype=_np.int64)
        else:
            pairs = _as_int64(edges, "edge endpoints")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")

    if pairs.size:
        lo = int(pairs.min())
        hi = int(pairs.max())
        if lo < 0 or hi >= num_vertices:
            raise VertexError(_first_invalid_endpoint(pairs, num_vertices), num_vertices)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    # Symmetrise, sort by (source, target), drop duplicate directed edges.
    offsets = _np.zeros(num_vertices + 1, dtype=_np.int64)
    if not pairs.size:
        return offsets, _np.empty(0, dtype=_np.int64)

    sources = pairs[:, 0]
    destinations = pairs[:, 1]
    if num_vertices <= 2**31:
        # Fuse each directed edge into one int64 key: a single-key sort is
        # substantially faster than a two-column lexsort (and than
        # np.unique, which pays for stability we do not need).
        keys = _np.sort(
            _np.concatenate(
                (
                    sources * num_vertices + destinations,
                    destinations * num_vertices + sources,
                )
            )
        )
        keep = _np.empty(keys.size, dtype=bool)
        keep[0] = True
        _np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        sym_src = keys // num_vertices
        targets = keys % num_vertices
    else:  # pragma: no cover - graphs beyond 2^31 vertices
        sym = _np.concatenate([pairs, pairs[:, ::-1]])
        order = _np.lexsort((sym[:, 1], sym[:, 0]))
        sym = sym[order]
        keep = _np.empty(sym.shape[0], dtype=bool)
        keep[0] = True
        _np.logical_or(
            sym[1:, 0] != sym[:-1, 0], sym[1:, 1] != sym[:-1, 1], out=keep[1:]
        )
        sym = sym[keep]
        sym_src = sym[:, 0]
        targets = _np.ascontiguousarray(sym[:, 1])

    counts = _np.bincount(sym_src, minlength=num_vertices)
    _np.cumsum(counts, out=offsets[1:])
    return offsets, targets


class Graph:
    """An immutable simple undirected graph in compressed sparse row form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(u, v)`` pairs — or an ``(m, 2)`` integer ndarray,
        which skips the Python-level conversion entirely.  Duplicates,
        reversed duplicates and self loops are removed.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.has_edge(0, 3)
    False
    """

    __slots__ = (
        "_offsets",
        "_targets",
        "_num_vertices",
        "_num_edges",
        "_degrees",
        "_edge_sources",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._num_vertices = int(num_vertices)
        self._offsets, self._targets = build_csr(self._num_vertices, edges)
        self._num_edges = len(self._targets) // 2
        self._degrees = None
        self._edge_sources = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Iterable[int]]) -> "Graph":
        """Build a graph from per-vertex neighbour lists.

        The input is symmetrised: an edge is created whenever either
        endpoint lists the other.
        """

        n = len(adjacency)
        edges = []
        for u, neighbours in enumerate(adjacency):
            for v in neighbours:
                edges.append((u, v))
        return cls(n, edges)

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        """Parse a whitespace separated ``u v`` edge list.

        Lines starting with ``#`` or ``%`` are treated as comments.  The
        number of vertices is one more than the largest vertex id seen.
        """

        edges: List[Tuple[int, int]] = []
        max_vertex = -1
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", "%")):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphError(f"cannot parse edge line: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            max_vertex = max(max_vertex, u, v)
            edges.append((u, v))
        return cls(max_vertex + 1, edges)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices |V|."""

        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E|."""

        return self._num_edges

    def vertices(self) -> range:
        """Return the vertex id range ``0 .. n-1``."""

        return range(self._num_vertices)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._num_vertices):
            raise VertexError(v, self._num_vertices)

    def csr_arrays(self):
        """Return the raw ``(offsets, targets)`` CSR arrays (zero-copy).

        The arrays are int64 ndarrays.  Callers — chiefly the vectorized
        kernel backend — must treat them as read-only.
        """

        return self._offsets, self._targets

    def neighbors_array(self, v: int):
        """Zero-copy slice of the sorted neighbours of ``v``."""

        self._check_vertex(v)
        return self._targets[self._offsets[v] : self._offsets[v + 1]]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Return the sorted neighbours of ``v`` as a tuple."""

        self._check_vertex(v)
        start, end = self._offsets[v], self._offsets[v + 1]
        return tuple(self._targets[start:end].tolist())

    def degree(self, v: int) -> int:
        """Return the degree of ``v``."""

        self._check_vertex(v)
        return int(self._offsets[v + 1] - self._offsets[v])

    def degrees_array(self):
        """All vertex degrees as one (cached) vectorized diff of the offsets.

        Returns an int64 ndarray.  Treat the result as read-only — it is
        shared between calls.
        """

        if self._degrees is None:
            self._degrees = _np.diff(self._offsets)
        return self._degrees

    def degrees(self) -> List[int]:
        """Return a fresh list of all vertex degrees indexed by vertex id."""

        return self.degrees_array().tolist()

    def edge_sources_array(self):
        """Source vertex of every directed CSR slot (cached).

        ``edge_sources_array()[i]`` is the vertex whose adjacency list
        holds ``targets[i]``; together with ``csr_arrays()`` this turns
        per-edge sweeps into single ``np.bincount`` calls.
        """

        if self._edge_sources is None:
            self._edge_sources = _np.repeat(
                _np.arange(self._num_vertices, dtype=_np.int64), self.degrees_array()
            )
        return self._edge_sources

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""

        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        # Binary search the smaller adjacency list (zero-copy: the search
        # runs directly on the CSR targets array).
        if self.degree(u) > self.degree(v):
            u, v = v, u
        start, end = int(self._offsets[u]), int(self._offsets[u + 1])
        index = bisect_left(self._targets, v, start, end)
        return index < end and self._targets[index] == v

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield every undirected edge exactly once as ``(u, v)`` with ``u < v``."""

        sources = self.edge_sources_array()
        mask = sources < self._targets
        yield from zip(sources[mask].tolist(), self._targets[mask].tolist())

    def edge_array(self):
        """All undirected edges as an ``(m, 2)`` int64 ndarray with u < v."""

        sources = self.edge_sources_array()
        mask = sources < self._targets
        return _np.column_stack((sources[mask], self._targets[mask]))

    def iter_adjacency(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(vertex, neighbours)`` in vertex-id order (one sequential pass).

        The pass converts the CSR targets to a Python list once and
        slices it per vertex, instead of paying a bounds-checked
        ndarray-to-tuple conversion for every record.
        """

        targets = self._targets.tolist()
        offsets = self._offsets.tolist()
        for v in range(self._num_vertices):
            yield v, tuple(targets[offsets[v] : offsets[v + 1]])

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def average_degree(self) -> float:
        """Average degree ``2 |E| / |V|`` (0.0 for the empty graph)."""

        if self._num_vertices == 0:
            return 0.0
        return 2.0 * self._num_edges / self._num_vertices

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph)."""

        if self._num_vertices == 0:
            return 0
        return int(self.degrees_array().max())

    def degree_histogram(self) -> Dict[int, int]:
        """Return a ``degree -> number of vertices`` histogram."""

        if self._num_vertices == 0:
            return {}
        counts = _np.bincount(self.degrees_array())
        return {
            int(degree): int(count)
            for degree, count in enumerate(counts.tolist())
            if count
        }

    def isolated_vertices(self) -> List[int]:
        """Return all vertices with degree zero."""

        return _np.flatnonzero(self.degrees_array() == 0).tolist()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Return the subgraph induced by ``vertices``.

        Returns the new graph together with a mapping from original vertex
        id to the new (compacted) vertex id.
        """

        selected = sorted(set(vertices))
        for v in selected[:1] + selected[-1:]:
            self._check_vertex(v)
        mapping = {old: new for new, old in enumerate(selected)}
        new_id = _np.full(self._num_vertices, -1, dtype=_np.int64)
        if selected:
            new_id[_np.asarray(selected, dtype=_np.int64)] = _np.arange(
                len(selected), dtype=_np.int64
            )
        sources = self.edge_sources_array()
        keep = (new_id[sources] >= 0) & (new_id[self._targets] >= 0)
        edges = _np.column_stack((new_id[sources[keep]], new_id[self._targets[keep]]))
        return Graph(len(selected), edges), mapping

    def relabeled(self, order: Sequence[int]) -> "Graph":
        """Return a copy whose vertex ``i`` is the original ``order[i]``.

        ``order`` must be a permutation of the vertex ids.  This is used to
        materialise a graph whose natural scan order is, e.g., ascending
        degree order.
        """

        order_arr = permutation_array(list(order), self._num_vertices)
        if order_arr is None:
            raise GraphError("order must be a permutation of all vertex ids")
        new_id = _np.empty(self._num_vertices, dtype=_np.int64)
        new_id[order_arr] = _np.arange(self._num_vertices, dtype=_np.int64)
        sources = self.edge_sources_array()
        edges = _np.column_stack((new_id[sources], new_id[self._targets]))
        return Graph(self._num_vertices, edges)

    def degree_ascending_order_array(self):
        """Vertex ids sorted by ascending degree as an ndarray."""

        # A stable argsort breaks degree ties by vertex id, exactly like
        # sorting on the (degree, id) key.
        return _np.argsort(self.degrees_array(), kind="stable")

    def degree_ascending_order(self) -> List[int]:
        """Return vertex ids sorted by ascending degree (ties by id).

        This is the scan order the paper's pre-processing step produces
        (Section 4.1): the adjacency file is sorted by vertex degree before
        the greedy pass.
        """

        return self.degree_ascending_order_array().tolist()

    def complement_edges_count(self) -> int:
        """Number of vertex pairs that are *not* edges (useful for tests)."""

        n = self._num_vertices
        return n * (n - 1) // 2 - self._num_edges

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_vertices

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self._num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._num_vertices != other._num_vertices:
            return False
        return _np.array_equal(self._offsets, other._offsets) and _np.array_equal(
            self._targets, other._targets
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are rarely hashed
        return hash((self._num_vertices, tuple(map(int, self._targets))))

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self._num_vertices}, num_edges={self._num_edges})"


class GraphBuilder:
    """Incremental builder that accumulates edges and produces a :class:`Graph`.

    The builder grows the vertex count automatically when
    :meth:`add_edge` refers to unseen vertex ids, which is convenient for
    generators that do not know the final vertex count up front.

    Examples
    --------
    >>> builder = GraphBuilder()
    >>> builder.add_edge(0, 1)
    >>> builder.add_edge(1, 2)
    >>> builder.build().num_edges
    2
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._num_vertices = num_vertices
        self._edges: List[Tuple[int, int]] = []

    @property
    def num_vertices(self) -> int:
        """Current number of vertices the built graph will have."""

        return self._num_vertices

    @property
    def num_pending_edges(self) -> int:
        """Number of edge insertions recorded so far (before deduplication)."""

        return len(self._edges)

    def ensure_vertex(self, v: int) -> None:
        """Grow the vertex count so that ``v`` is a valid vertex id."""

        if v < 0:
            raise GraphError(f"vertex ids must be non-negative, got {v}")
        if v >= self._num_vertices:
            self._num_vertices = v + 1

    def add_vertex(self) -> int:
        """Add a fresh isolated vertex and return its id."""

        self._num_vertices += 1
        return self._num_vertices - 1

    def add_edge(self, u: int, v: int) -> None:
        """Record the undirected edge ``{u, v}`` (self loops are ignored)."""

        self.ensure_vertex(u)
        self.ensure_vertex(v)
        if u != v:
            self._edges.append((u, v))

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Record many edges at once."""

        for u, v in edges:
            self.add_edge(u, v)

    def build(self) -> Graph:
        """Materialise the immutable :class:`Graph`."""

        return Graph(self._num_vertices, self._edges)
