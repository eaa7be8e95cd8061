"""Writer and sequential-scan reader for adjacency-list files.

``write_adjacency_file`` serialises an in-memory
:class:`repro.graphs.graph.Graph` into the binary format described in
:mod:`repro.storage.format`, in an arbitrary vertex order (by default the
ascending-degree order the paper's pre-processing would produce).

``AdjacencyFileReader`` streams the records back with a true sequential
access pattern through a :class:`repro.storage.blocks.BlockDevice`.  It
also supports *random* per-vertex lookups through an in-memory offset
index (|V| integers — allowed by the semi-external model); every such
lookup is charged as a random seek so the experiments can report how many
the solvers needed.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import FormatError, StorageError
from repro.graphs.graph import HAVE_NUMPY, Graph, permutation_array
from repro.storage import format as fmt
from repro.storage.blocks import DEFAULT_BATCH_BLOCKS, DEFAULT_BLOCK_SIZE, BlockDevice
from repro.storage.io_stats import IOStats
from repro.storage.scan import AdjacencyBatch

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - the container ships numpy
    _np = None

__all__ = ["write_adjacency_file", "AdjacencyFileReader"]


def write_adjacency_file(
    graph: Graph,
    backing: Optional[str] = None,
    order: Optional[Sequence[int]] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    stats: Optional[IOStats] = None,
    sort_neighbors_by_degree: bool = True,
) -> BlockDevice:
    """Serialise ``graph`` into a new adjacency file and return its device.

    Parameters
    ----------
    graph:
        The graph to serialise.
    backing:
        Path of the output file, or ``None`` for an in-memory device.
    order:
        Vertex order of the records.  ``None`` writes the ascending-degree
        order (the paper's pre-processed layout).  Pass
        ``range(graph.num_vertices)`` to write the raw id order, as the
        "Baseline" algorithm expects.
    block_size:
        Block size used for I/O accounting.
    stats:
        Optional shared :class:`IOStats` object.
    sort_neighbors_by_degree:
        When true, each record's neighbour list is sorted by ascending
        neighbour degree (the layout described in Section 2.1); otherwise
        neighbours are written in ascending id order.
    """

    scan_order = list(order) if order is not None else graph.degree_ascending_order()
    order_array = None
    if _np is not None:
        order_array = permutation_array(scan_order, graph.num_vertices)
        if order_array is None:
            raise StorageError("order must be a permutation of all vertex ids")
    elif sorted(scan_order) != list(range(graph.num_vertices)):
        raise StorageError("order must be a permutation of all vertex ids")

    device = BlockDevice(backing, block_size=block_size, stats=stats, create=True)
    device.append(fmt.pack_header(graph.num_vertices, graph.num_edges))
    if order_array is not None and _write_records_vectorized(
        graph, device, order_array, sort_neighbors_by_degree
    ):
        device.flush()
        return device
    for vertex in scan_order:
        neighbors = list(graph.neighbors(vertex))
        if sort_neighbors_by_degree:
            neighbors.sort(key=lambda w: (graph.degree(w), w))
        device.append(fmt.pack_record(vertex, neighbors))
    device.flush()
    return device


#: Append granularity of the vectorized writer.  Chunked appends of one
#: contiguous byte stream telescope to the same ``IOStats`` totals as the
#: per-record appends of the scalar path (partially filled tail blocks are
#: charged once either way), so the chunk size is a pure memory knob.
_WRITE_CHUNK_BYTES = 8 << 20


def _write_records_vectorized(
    graph: Graph, device: BlockDevice, order_array, sort_neighbors_by_degree: bool
) -> bool:
    """Append all records as one vectorized uint32 stream (numpy graphs only).

    Produces bytes identical to the scalar per-record path — same record
    order, same neighbour order (the ``(degree, id)`` sort is a stable
    lexsort over the id-sorted CSR rows, matching ``list.sort`` on unique
    keys) — at array speed, which is what makes writing the n >= 1e7
    benchmark inputs practical.  Returns False when the graph's CSR is not
    ndarray-backed, leaving the scalar path to do the work.
    """

    offsets, targets = graph.csr_arrays()
    if not isinstance(offsets, _np.ndarray):
        return False
    num_vertices = graph.num_vertices
    if num_vertices > fmt.MAX_VERTEX_ID + 1:
        raise FormatError(
            f"vertex id {num_vertices - 1} does not fit in 4 bytes"
        )
    degrees = offsets[order_array + 1] - offsets[order_array]
    total = int(degrees.sum())
    local = _np.zeros(num_vertices + 1, dtype=_np.int64)
    _np.cumsum(degrees, out=local[1:])
    gather = _np.arange(total, dtype=_np.int64) + _np.repeat(
        offsets[order_array] - local[:-1], degrees
    )
    record_targets = targets[gather]
    if sort_neighbors_by_degree:
        all_degrees = offsets[1:] - offsets[:-1]
        rows = _np.repeat(_np.arange(num_vertices, dtype=_np.int64), degrees)
        sort_idx = _np.lexsort(
            (record_targets, all_degrees[record_targets], rows)
        )
        record_targets = record_targets[sort_idx]
    words = _np.empty(2 * num_vertices + total, dtype="<u4")
    word_starts = 2 * _np.arange(num_vertices, dtype=_np.int64) + local[:-1]
    words[word_starts] = order_array
    words[word_starts + 1] = degrees
    positions = _np.arange(total, dtype=_np.int64) + _np.repeat(
        word_starts + 2 - local[:-1], degrees
    )
    words[positions] = record_targets
    payload = words.tobytes()
    for start in range(0, len(payload), _WRITE_CHUNK_BYTES):
        device.append(payload[start : start + _WRITE_CHUNK_BYTES])
    return True


class AdjacencyFileReader:
    """Sequential-scan reader over an adjacency file.

    The reader implements the scan-source protocol used by all
    semi-external solvers (see :mod:`repro.storage.scan`):

    ``num_vertices`` / ``num_edges``
        Graph dimensions from the header.
    ``scan()``
        Yield ``(vertex, neighbours)`` in file order; one full pass counts
        as one sequential scan.
    ``neighbors(v)``
        Random single-record lookup (charged as a random seek and a vertex
        lookup).
    ``csr_views()`` / ``charge_scan()``
        The record-major execution of the numpy kernels: the file is
        spilled once to a private ``SEXTCSR1`` memmap whose sections the
        kernels read, while every scan they stand for is charged here.
        The spill is format conversion and is not charged to ``IOStats``.
    """

    def __init__(
        self,
        backing: Union[str, BlockDevice],
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IOStats] = None,
    ) -> None:
        if isinstance(backing, BlockDevice):
            self._device = backing
            if stats is not None:
                self._device.stats = stats
        else:
            self._device = BlockDevice(backing, block_size=block_size, stats=stats)
        header = fmt.unpack_header(self._device.read_at(0, fmt.HEADER_SIZE))
        self._num_vertices = header.num_vertices
        self._num_edges = header.num_edges
        # The record index random lookups need: built by the first
        # complete ``scan()``, or — once the file is spilled — served by
        # the spill after the first charged scan.  A cold lookup scans.
        self._offsets: Optional[Dict[int, int]] = None
        self._scan_order: Optional[List[int]] = None
        self._indexed = False
        #: Private ``SEXTCSR1`` memmap of this file (see :meth:`csr_views`).
        self._spill = None

    # ------------------------------------------------------------------
    # Scan-source protocol
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices declared in the file header."""

        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges declared in the file header."""

        return self._num_edges

    @property
    def stats(self) -> IOStats:
        """The I/O counters shared with the underlying block device."""

        return self._device.stats

    def scan(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(vertex, neighbours)`` for every record, in file order.

        The first complete scan also builds the in-memory offset index used
        by :meth:`neighbors`.
        """

        offset = fmt.HEADER_SIZE
        building_index = self._offsets is None
        offsets: Dict[int, int] = {}
        order: List[int] = []
        file_size = self._device.size
        count = 0
        while offset < file_size and count < self._num_vertices:
            vertex, _, neighbors, next_offset = self._read_record(offset)
            if building_index:
                offsets[vertex] = offset
                order.append(vertex)
            count += 1
            yield vertex, neighbors
            offset = next_offset
        if count != self._num_vertices:
            raise FormatError(
                f"file declares {self._num_vertices} vertices but contains {count} records"
            )
        if building_index:
            self._offsets = offsets
            self._scan_order = order
        self._indexed = True
        self._device.stats.record_scan()

    def scan_order(self) -> List[int]:
        """Vertex ids in file order (performs a scan if the index is not built yet)."""

        self.build_index()
        if self._scan_order is None:  # indexed through the spill
            return self._spill.csr_views()[0].tolist()
        return list(self._scan_order)

    # ------------------------------------------------------------------
    # Record-major execution (the numpy kernels)
    # ------------------------------------------------------------------
    def csr_views(self):
        """Zero-copy ``(order, indptr, indices)`` of this file, record-major.

        The first call spills the file to a private ``SEXTCSR1`` memmap
        (:func:`repro.storage.converters.spill_to_memmap`); later calls,
        and every pass of a multi-stage solve, reuse it.  The spill reads
        through a second handle, so it charges nothing to ``IOStats`` and
        leaves this reader's read cursor and index state as they were.
        The mapping is released by :meth:`close`.
        """

        if self._spill is None:
            from repro.storage.converters import spill_to_memmap

            self._spill = spill_to_memmap(self._device)
        return self._spill.csr_views()

    def charge_scan(self) -> bool:
        """Charge one full sequential scan of the records without reading them.

        The record-major kernels read :meth:`csr_views` and call this
        wherever the algorithm scans the file.  The scan's reads are
        contiguous from the end of the file header to the end of the
        records, and contiguous reads telescope under the block device's
        rules, so one charged read of that range gives ``IOStats`` equal
        to a record-by-record :meth:`scan`.
        """

        self.csr_views()  # the spill has checked the records fill the file
        if self._num_vertices:
            self._device.charge_read(
                fmt.HEADER_SIZE,
                fmt.file_size_bytes(self._num_vertices, self._num_edges)
                - fmt.HEADER_SIZE,
            )
        self._indexed = True
        self._device.stats.record_scan()
        return True

    # ------------------------------------------------------------------
    # Batched scanning (format conversion)
    # ------------------------------------------------------------------
    def scan_batches(
        self, max_batch_bytes: Optional[int] = None
    ) -> Iterator[AdjacencyBatch]:
        """Yield the file as block-sized :class:`AdjacencyBatch` ndarray chunks.

        The batches cover exactly the records ``scan()`` yields, in file
        order.  The file is read in chunks of ``max_batch_bytes`` (default
        ``DEFAULT_BATCH_BLOCKS`` device blocks), a record straddling a
        chunk boundary is carried over to the next chunk, and the record
        starts inside each chunk are found and parsed into int64 ndarrays
        with ``np.frombuffer``.  Because the chunks read the byte range
        ``[HEADER_SIZE, end-of-records)`` contiguously, the ``IOStats``
        charges (bytes, blocks, seeks, one sequential scan on exhaustion)
        are identical to the record-streaming ``scan()``.

        This is the converters' single read of a text file; it builds no
        record index, so it leaves random lookups as cold as it found them.
        """

        if _np is None:
            raise StorageError("scan_batches requires numpy")
        if max_batch_bytes is None:
            max_batch_bytes = self._device.batch_bytes(DEFAULT_BATCH_BLOCKS)
        max_batch_bytes = max(int(max_batch_bytes), fmt.RECORD_HEADER_SIZE)
        file_size = self._device.size
        offset = fmt.HEADER_SIZE
        pending = b""
        count = 0
        header_words = fmt.RECORD_HEADER_SIZE // fmt.VERTEX_ID_BYTES
        while offset < file_size and count < self._num_vertices:
            chunk = self._device.read_at(offset, min(max_batch_bytes, file_size - offset))
            offset += len(chunk)
            data = pending + chunk if pending else chunk
            usable_words = len(data) // fmt.VERTEX_ID_BYTES
            words = _np.frombuffer(data, dtype="<u4", count=usable_words)
            # Record-boundary discovery.  Records of equal degree have
            # equal stride, so a degree-sorted file (the paper's layout)
            # decomposes into a handful of constant-degree runs per chunk
            # that a strided compare finds in one shot each.  When runs
            # turn out short (an id-ordered file), the loop drops to a
            # plain Python-list walk for the rest of the chunk.
            start_runs: List = []
            degree_runs: List = []
            pos = 0
            remaining = self._num_vertices - count
            iterations = 0
            parsed = 0
            while remaining > 0 and pos + header_words <= usable_words:
                degree = int(words[pos + 1])
                stride = header_words + degree
                max_run = min((usable_words - pos) // stride, remaining)
                if max_run <= 0:
                    break  # record straddles the chunk boundary
                if max_run == 1:
                    run = 1
                else:
                    run_degrees = words[pos + 1 : pos + 1 + (max_run - 1) * stride + 1 : stride]
                    mismatches = _np.flatnonzero(run_degrees != degree)
                    run = int(mismatches[0]) if mismatches.size else max_run
                start_runs.append(
                    _np.arange(pos, pos + run * stride, stride, dtype=_np.int64)
                )
                degree_runs.append(_np.full(run, degree, dtype=_np.int64))
                pos += run * stride
                remaining -= run
                parsed += run
                iterations += 1
                if iterations >= 512 and parsed < 2 * iterations:
                    # Short runs: scalar walk is cheaper from here on.
                    word_list = words.tolist()
                    tail_starts: List[int] = []
                    tail_degrees: List[int] = []
                    while remaining > 0 and pos + header_words <= usable_words:
                        tail_degree = word_list[pos + 1]
                        end = pos + header_words + tail_degree
                        if end > usable_words:
                            break
                        tail_starts.append(pos)
                        tail_degrees.append(tail_degree)
                        pos = end
                        remaining -= 1
                    if tail_starts:
                        start_runs.append(_np.asarray(tail_starts, dtype=_np.int64))
                        degree_runs.append(_np.asarray(tail_degrees, dtype=_np.int64))
                    break
            if start_runs:
                starts = _np.concatenate(start_runs)
                count += starts.size
                yield self._parse_batch_words(
                    words, starts, _np.concatenate(degree_runs)
                )
            pending = data[pos * fmt.VERTEX_ID_BYTES :]
        if count != self._num_vertices:
            raise FormatError(
                f"file declares {self._num_vertices} vertices but contains {count} records"
            )
        self._device.stats.record_scan()

    def _parse_batch_words(self, words, word_starts, degrees) -> AdjacencyBatch:
        """Build an :class:`AdjacencyBatch` from uint32 record words.

        ``word_starts[i]`` is the index of record ``i``'s header inside
        ``words``; its neighbours are the ``degrees[i]`` words after the
        2-word header.  Raises :class:`FormatError` for an id >= n.
        """

        local_offsets = _np.zeros(degrees.size + 1, dtype=_np.int64)
        _np.cumsum(degrees, out=local_offsets[1:])
        vertices = words[word_starts].astype(_np.int64)
        gather = _np.arange(int(local_offsets[-1]), dtype=_np.int64) + _np.repeat(
            word_starts + 2 - local_offsets[:-1], degrees
        )
        targets = words[gather].astype(_np.int64)
        for ids in (vertices, targets):
            if ids.size and int(ids.max()) >= self._num_vertices:
                self._raise_bad_id(int(ids.max()))
        return AdjacencyBatch(vertices, local_offsets, targets)

    def build_index(self) -> None:
        """Ensure the in-memory record index exists (one full scan if not).

        Normally the index rides along with the first complete scan (a
        charged one, for a spilled reader, which this runs if cold).  A
        *resumed* run starts from a cold reader whose first action may be
        a random :meth:`neighbors` lookup mid-round; the pipeline engine
        calls this during resume restoration — before resetting the I/O
        counters to the checkpoint snapshot — so the rebuild is physical
        I/O of the restore phase, not part of the logical run accounting.
        """

        if not self._indexed:
            if self._spill is not None:
                self.charge_scan()
            else:
                for _ in self.scan():
                    pass

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Random lookup of one vertex's neighbour list.

        This is the operation the semi-external algorithms avoid on their
        hot path; it is charged to ``random_vertex_lookups`` so experiments
        can report how many were needed (only skeleton re-verification in
        the two-k-swap solver uses it).
        """

        # The lookup is serviced from a dedicated probe buffer: the random
        # read (and, on the very first lookup, the index-building scan) is
        # charged in full, but the sequential read-ahead position is saved
        # and restored so an ongoing scan — streaming or batched — resumes
        # without being re-charged for the block it already holds.  This
        # keeps the I/O accounting of a scan independent of how many
        # lookups interrupt it.
        saved_cursor = self._device.sequential_cursor()
        offset = self._record_offset(vertex)
        if offset is None:
            self._device.restore_sequential_cursor(saved_cursor)
            raise StorageError(f"vertex {vertex} is not present in the adjacency file")
        self._device.reset_sequential_cursor()
        self._device.stats.record_vertex_lookup()
        _, _, neighbors, _ = self._read_record(offset)
        self._device.restore_sequential_cursor(saved_cursor)
        return neighbors

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex`` via a random record lookup."""

        return len(self.neighbors(vertex))

    def _record_offset(self, vertex: int) -> Optional[int]:
        """Byte offset of ``vertex``'s record (``None`` if absent).

        A cold reader first builds its index with one charged scan.
        """

        self.build_index()
        if self._offsets is None:  # indexed through the spill
            return self._spill.record_offset(vertex)
        return self._offsets.get(vertex)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _read_record(self, offset: int) -> Tuple[int, int, Tuple[int, ...], int]:
        header_bytes = self._device.read_at(offset, fmt.RECORD_HEADER_SIZE)
        vertex, degree = fmt.unpack_record_header(header_bytes)
        body_offset = offset + fmt.RECORD_HEADER_SIZE
        body_bytes = self._device.read_at(body_offset, degree * fmt.VERTEX_ID_BYTES)
        neighbors = fmt.unpack_neighbors(body_bytes, degree)
        if vertex >= self._num_vertices:
            self._raise_bad_id(vertex)
        if neighbors and max(neighbors) >= self._num_vertices:
            self._raise_bad_id(max(neighbors))
        return vertex, degree, neighbors, body_offset + degree * fmt.VERTEX_ID_BYTES

    def _raise_bad_id(self, vertex: int) -> None:
        raise FormatError(
            f"record holds vertex id {vertex}, but the file declares "
            f"{self._num_vertices} vertices (ids 0 .. {self._num_vertices - 1})"
        )

    def to_graph(self) -> Graph:
        """Materialise the file contents as an in-memory :class:`Graph`."""

        adjacency: List[Tuple[int, Tuple[int, ...]]] = list(self.scan())
        edges = []
        for vertex, neighbors in adjacency:
            for w in neighbors:
                edges.append((vertex, w))
        return Graph(self._num_vertices, edges)

    def close(self) -> None:
        """Close the underlying device and release the spill, if any."""

        if self._spill is not None:
            self._spill.close()
            self._spill = None
        self._device.close()

    def __enter__(self) -> "AdjacencyFileReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
