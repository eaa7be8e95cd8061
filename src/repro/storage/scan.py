"""The scan-source protocol and its in-memory emulation.

Every semi-external solver in :mod:`repro.core` consumes a *scan source*:
an object that can enumerate ``(vertex, neighbours)`` records sequentially
and knows the number of vertices.  Two implementations exist:

* :class:`repro.storage.adjacency_file.AdjacencyFileReader` — real
  file-backed (or in-memory block device) records, exercising the full
  binary format and I/O accounting.
* :class:`InMemoryAdjacencyScan` — an adapter over an in-memory
  :class:`repro.graphs.graph.Graph` plus a scan order.  It performs the
  same accounting (scans, random lookups) without serialisation overhead,
  which keeps the property-based tests and the parameter sweeps fast.
  The scan order is held as an int64 ndarray so the vectorized kernel
  backend can consume it zero-copy via
  :meth:`InMemoryAdjacencyScan.order_array`.

The numpy kernels read a source record-major instead of calling
``scan``: an in-memory graph's CSR arrays or a ``SEXTCSR1`` memmap's
sections.  Text inputs spill once to a private ``SEXTCSR1`` memmap; the
spill is not charged to ``IOStats``.  ``charge_scan`` then charges each
scan the algorithm makes, identically to a full ``scan``.  The text
reader's
``scan_batches`` yields :class:`AdjacencyBatch` ndarray chunks; the
converters read text files through it.

``as_scan_source`` normalises whatever the caller passed (a graph or an
existing source) into a scan source, which keeps the public solver API
convenient: ``greedy_mis(graph)`` just works.
"""

from __future__ import annotations

import os as _os

from typing import (
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as _np

from repro.errors import StorageError
from repro.graphs.graph import Graph, permutation_array
from repro.storage.io_stats import IOStats

__all__ = [
    "AdjacencyBatch",
    "AdjacencyScanSource",
    "InMemoryAdjacencyScan",
    "as_scan_source",
    "batch_bounds",
]


class AdjacencyBatch(NamedTuple):
    """One block-sized chunk of a batched sequential scan.

    The batch covers a contiguous run of records in scan order as three
    int64 ndarrays forming a *local* CSR fragment:

    ``vertices``
        Vertex id of each record in the batch, in scan order.
    ``offsets``
        ``len(vertices) + 1`` offsets into ``targets``; the neighbours of
        ``vertices[i]`` are ``targets[offsets[i]:offsets[i + 1]]``.
    ``targets``
        The concatenated neighbour lists of the batch, in record order.

    Batches are produced by the text reader's ``scan_batches``; one full
    iteration is one logical sequential scan (charged once to ``IOStats``
    on exhaustion, exactly like the record-streaming ``scan``).
    """

    vertices: "object"
    offsets: "object"
    targets: "object"


def batch_bounds(record_bytes, max_batch_bytes: int):
    """Group contiguous records into batches of roughly ``max_batch_bytes``.

    ``record_bytes`` is an int64 ndarray of per-record on-disk sizes in
    scan order.  A record belongs to batch ``start_offset // max_batch_bytes``
    where ``start_offset`` is its byte position relative to the first
    record, so every batch is a contiguous record range spanning at most
    ``max_batch_bytes`` of start offsets (one oversized record can make a
    batch run past the nominal limit — records are never split).  Returns
    the batch boundaries as an int64 ndarray ``[0, ..., num_records]``.
    """

    num_records = len(record_bytes)
    if num_records == 0:
        return _np.zeros(1, dtype=_np.int64)
    starts = _np.zeros(num_records, dtype=_np.int64)
    _np.cumsum(record_bytes[:-1], out=starts[1:])
    bucket = starts // max(int(max_batch_bytes), 1)
    cuts = _np.flatnonzero(_np.diff(bucket)) + 1
    return _np.concatenate(
        (
            _np.zeros(1, dtype=_np.int64),
            cuts,
            _np.full(1, num_records, dtype=_np.int64),
        )
    )


@runtime_checkable
class AdjacencyScanSource(Protocol):
    """Structural protocol implemented by every adjacency scan source."""

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""

    @property
    def stats(self) -> IOStats:
        """I/O counters accumulated by this source."""

    def scan(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(vertex, neighbours)`` sequentially in the source's order."""

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Random single-vertex lookup (counted separately from scans)."""


class InMemoryAdjacencyScan:
    """Scan source backed by an in-memory graph.

    Parameters
    ----------
    graph:
        The graph to expose.
    order:
        Scan order of the records.  ``"degree"`` (default) scans in
        ascending-degree order, matching the paper's pre-processed file;
        ``"id"`` scans in raw vertex-id order (the Baseline setting);
        an explicit sequence of vertex ids is also accepted.
    stats:
        Optional shared :class:`IOStats`.
    """

    def __init__(
        self,
        graph: Graph,
        order: Union[str, Sequence[int]] = "degree",
        stats: Optional[IOStats] = None,
    ) -> None:
        self._graph = graph
        self._stats = stats if stats is not None else IOStats()
        self._csr_lists: Optional[Tuple[List[int], List[int]]] = None
        num_vertices = graph.num_vertices
        if isinstance(order, str):
            if order == "degree":
                self._order = graph.degree_ascending_order_array()
            elif order == "id":
                self._order = _np.arange(num_vertices, dtype=_np.int64)
            else:
                raise StorageError(f"unknown scan order {order!r}; use 'degree' or 'id'")
        else:
            arr = permutation_array(list(order), num_vertices)
            if arr is None:
                raise StorageError(
                    "explicit scan order must be a permutation of all vertices"
                )
            self._order = arr

    @property
    def graph(self) -> Graph:
        """The underlying in-memory graph."""

        return self._graph

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""

        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""

        return self._graph.num_edges

    @property
    def stats(self) -> IOStats:
        """The accounting counters of this source."""

        return self._stats

    def scan(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield every record in the configured order, counting one scan."""

        # Slicing a Python list per record is about twice as fast as
        # building a tuple from an ndarray view for every vertex; the graph
        # is immutable, so the converted lists are cached across the many
        # scans a swap run performs.
        if self._csr_lists is None:
            offsets, targets = self._graph.csr_arrays()
            self._csr_lists = (offsets.tolist(), targets.tolist())
        offsets_list, targets_list = self._csr_lists
        for vertex in self._order.tolist():
            yield vertex, tuple(
                targets_list[offsets_list[vertex] : offsets_list[vertex + 1]]
            )
        self._stats.record_scan()

    def charge_scan(self) -> bool:
        """Charge one logical sequential scan without enumerating records.

        The in-memory source charges nothing per record — ``scan`` records
        exactly one sequential scan on exhaustion — so the charge is that
        single ``record_scan``.  The numpy kernels call it wherever the
        algorithm scans the source.
        """

        self._stats.record_scan()
        return True

    def scan_order(self) -> List[int]:
        """Vertex ids in scan order."""

        return self._order.tolist()

    def order_array(self):
        """Scan order as an int64 ndarray (zero-copy; treat as read-only)."""

        return self._order

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Random lookup of one neighbour list (counted)."""

        self._stats.record_vertex_lookup()
        return self._graph.neighbors(vertex)

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex`` (no I/O charge: degrees are per-vertex state)."""

        return self._graph.degree(vertex)


def as_scan_source(
    graph_or_source: Union[str, "_os.PathLike", Graph, AdjacencyScanSource],
    order: Union[str, Sequence[int]] = "degree",
    stats: Optional[IOStats] = None,
) -> AdjacencyScanSource:
    """Coerce a graph, a path or an existing scan source into a scan source.

    A :class:`Graph` is wrapped into an :class:`InMemoryAdjacencyScan` with
    the requested order; a filesystem path is opened through the format
    registry (text adjacency file or binary CSR artifact, detected by
    magic); an existing source is returned unchanged (the ``order``
    argument is ignored for both file cases, because their order is fixed
    by the file layout).
    """

    if isinstance(graph_or_source, Graph):
        return InMemoryAdjacencyScan(graph_or_source, order=order, stats=stats)
    if isinstance(graph_or_source, (str, _os.PathLike)):
        from repro.storage.registry import open_adjacency_source

        return open_adjacency_source(graph_or_source, stats=stats)
    if isinstance(graph_or_source, AdjacencyScanSource):
        return graph_or_source
    raise StorageError(
        f"expected a Graph, a graph file path or an adjacency scan source, "
        f"got {type(graph_or_source).__name__}"
    )
