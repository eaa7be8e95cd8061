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
  The scan order is held as an int64 ndarray (when numpy is available)
  so the vectorized kernel backend can consume it zero-copy via
  :meth:`InMemoryAdjacencyScan.order_array`.

Both sources also expose ``scan_batches``, the block-batched variant of
``scan`` used by the vectorized semi-external execution: the records come
back as contiguous :class:`AdjacencyBatch` ndarray chunks instead of
per-vertex tuples, with identical ordering and identical ``IOStats``
charges (one sequential scan per full iteration).

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

from repro.errors import StorageError
from repro.graphs.graph import HAVE_NUMPY, Graph, permutation_array

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - the container ships numpy
    _np = None

from repro.storage.blocks import DEFAULT_BATCH_BLOCKS, DEFAULT_BLOCK_SIZE
from repro.storage.io_stats import IOStats

__all__ = [
    "AdjacencyBatch",
    "AdjacencyScanSource",
    "DEFAULT_BATCH_BYTES",
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

    Batches are produced by ``scan_batches`` on the scan sources; one full
    iteration is one logical sequential scan (charged once to ``IOStats``
    on exhaustion, exactly like the record-streaming ``scan``).
    """

    vertices: "object"
    offsets: "object"
    targets: "object"


#: Target payload of one :class:`AdjacencyBatch` when the source has no
#: block device to derive a batch size from (matches the file default of
#: ``DEFAULT_BATCH_BLOCKS`` 64 KiB blocks).
DEFAULT_BATCH_BYTES = DEFAULT_BLOCK_SIZE * DEFAULT_BATCH_BLOCKS


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

    if _np is None:  # pragma: no cover - callers are numpy-only
        raise StorageError("batch_bounds requires numpy")
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
                if _np is not None:
                    self._order = graph.degree_ascending_order_array()
                else:
                    self._order = graph.degree_ascending_order()
            elif order == "id":
                if _np is not None:
                    self._order = _np.arange(num_vertices, dtype=_np.int64)
                else:
                    self._order = list(range(num_vertices))
            else:
                raise StorageError(f"unknown scan order {order!r}; use 'degree' or 'id'")
        else:
            explicit = list(order)
            if _np is not None:
                arr = permutation_array(explicit, num_vertices)
                if arr is None:
                    raise StorageError(
                        "explicit scan order must be a permutation of all vertices"
                    )
                self._order = arr
            else:
                if sorted(explicit) != list(range(num_vertices)):
                    raise StorageError(
                        "explicit scan order must be a permutation of all vertices"
                    )
                self._order = explicit

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

        graph = self._graph
        if _np is not None:
            # Slicing a Python list per record is about twice as fast as
            # building a tuple from an ndarray view for every vertex; the
            # graph is immutable, so the converted lists are cached across
            # the many scans a swap run performs.
            if self._csr_lists is None:
                offsets, targets = graph.csr_arrays()
                self._csr_lists = (offsets.tolist(), targets.tolist())
            offsets_list, targets_list = self._csr_lists
            for vertex in self._order.tolist():
                yield vertex, tuple(
                    targets_list[offsets_list[vertex] : offsets_list[vertex + 1]]
                )
        else:
            for vertex in self._order:
                yield vertex, graph.neighbors(vertex)
        self._stats.record_scan()

    def scan_batches(
        self, max_batch_bytes: Optional[int] = None
    ) -> Iterator[AdjacencyBatch]:
        """Yield the scan as block-sized :class:`AdjacencyBatch` chunks.

        The batches cover exactly the records ``scan()`` would yield, in
        the same order, grouped so each batch models roughly
        ``max_batch_bytes`` of the on-disk record encoding (8-byte record
        header + 4 bytes per neighbour, see :mod:`repro.storage.format`).
        One full iteration charges one sequential scan, identical to
        ``scan()``.  Requires numpy; the vectorized kernel backend is the
        main consumer.
        """

        if _np is None:
            raise StorageError("scan_batches requires numpy")
        if max_batch_bytes is None:
            max_batch_bytes = DEFAULT_BATCH_BYTES
        from repro.storage import format as fmt

        graph = self._graph
        offsets, targets = graph.csr_arrays()
        order = self._order
        lens = offsets[order + 1] - offsets[order]
        record_bytes = fmt.RECORD_HEADER_SIZE + fmt.VERTEX_ID_BYTES * lens
        bounds = batch_bounds(record_bytes, max_batch_bytes)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            verts = order[a:b]
            batch_lens = lens[a:b]
            local_offsets = _np.zeros(batch_lens.size + 1, dtype=_np.int64)
            _np.cumsum(batch_lens, out=local_offsets[1:])
            total = int(local_offsets[-1])
            gather = _np.arange(total, dtype=_np.int64) + _np.repeat(
                offsets[verts] - local_offsets[:-1], batch_lens
            )
            yield AdjacencyBatch(verts, local_offsets, targets[gather])
        self._stats.record_scan()

    def charge_scan(self, max_batch_bytes: Optional[int] = None) -> bool:
        """Charge one logical sequential scan without enumerating records.

        The in-memory source charges nothing per batch — ``scan`` and
        ``scan_batches`` record exactly one sequential scan on exhaustion
        — so the replay is that single ``record_scan``.  The record-major
        kernels call it wherever the algorithm scans the source.
        """

        self._stats.record_scan()
        return True

    def scan_order(self) -> List[int]:
        """Vertex ids in scan order."""

        if _np is not None:
            return self._order.tolist()
        return list(self._order)

    def order_array(self):
        """Scan order as an int64 ndarray (zero-copy; treat as read-only)."""

        if _np is None:
            raise StorageError("order_array requires numpy")
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
