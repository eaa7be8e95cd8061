"""Memory-mapped binary CSR graph store.

The text adjacency format (:mod:`repro.storage.format`) must be *parsed*
on every open: record boundaries are discovered by walking the variable
length records.  For the service's fork-based worker pool that parse is
the dominant startup cost, and it caps the graph size at what a scan can
re-tokenise per job.  This module stores the same graph as a fixed-layout
binary CSR artifact that ``np.memmap`` can expose with **zero parsing**:
opening is a header read, the OS page cache shares the mapped pages
across every worker process, and graphs larger than RAM remain usable
because pages are faulted in on demand.

Layout (all integers little-endian, one file)::

    header (64 bytes)
        ======== ======= ===========================================
        offset   type    meaning
        ======== ======= ===========================================
        0        8s      magic ``b"SEXTCSR1"``
        8        I       format version (currently 1)
        12       I       reserved / flags (0)
        16       Q       number of vertices |V|
        24       Q       number of undirected edges |E|
        32       16s     BLAKE2b-128 content digest of the sections
        48       I       CRC32 of header bytes [0, 48)
        52       12x     reserved padding
        ======== ======= ===========================================
    order    int64  * |V|         vertex id of each record, in scan order
    indptr   int64  * (|V| + 1)   neighbour offsets (doubles as the
                                  degree cache: ``diff(indptr)``)
    indices  uint32 * 2|E|        concatenated neighbour ids (4-byte ids,
                                  as in the text format)

The section offsets are fully determined by ``(|V|, |E|)``, so a file
whose size disagrees with its header is detected as truncated before any
array is mapped.  The content digest covers the three sections; it keys
the service's result cache and the engine's checkpoint provenance, and
``verify=True`` (or :meth:`MemmapAdjacencySource.verify`) recomputes it
to detect bit rot.

:class:`MemmapAdjacencySource` is drop-in compatible with
:class:`~repro.storage.adjacency_file.AdjacencyFileReader`: same
``scan()`` / ``charge_scan()`` / ``neighbors()`` contract *and the same
IOStats accounting*.  The artifact has no block device underneath, so the
source charges I/O in the **equivalent text-adjacency byte space**: record
``i`` is modeled at the byte offset it would occupy in the text file
(32-byte header, then ``8 + 4*degree`` bytes per record), and every
access replays :class:`~repro.storage.blocks.BlockDevice`'s sequential
cursor, block-dedup and seek rules over that geometry.  The semi-external
benchmarks therefore stay honest — a solve over the memmap artifact
reports bit-identical bytes/blocks/scans/seeks to the same solve over the
text file — while the wall-clock startup cost drops to a header read.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as _np

from repro.errors import (
    BinaryCorruptError,
    BinaryFormatError,
    BinaryVersionError,
    StorageError,
)
from repro.graphs.graph import Graph
from repro.storage import format as fmt
from repro.storage.blocks import (
    DEFAULT_BATCH_BLOCKS,
    DEFAULT_BLOCK_SIZE,
    fsync_directory,
)
from repro.storage.io_stats import IOStats
from repro.storage.scan import batch_bounds

__all__ = [
    "BINARY_MAGIC",
    "BINARY_FORMAT_VERSION",
    "BINARY_HEADER_SIZE",
    "BinaryCSRHeader",
    "MemmapAdjacencySource",
    "binary_file_size",
    "read_binary_header",
    "write_binary_csr",
    "write_binary_records",
    "write_records",
]

BINARY_MAGIC = b"SEXTCSR1"
BINARY_FORMAT_VERSION = 1

#: ``magic, version, flags, |V|, |E|, digest, crc`` — padded to 64 bytes.
_HEADER_PREFIX_STRUCT = struct.Struct("<8sIIQQ16s")
_HEADER_CRC_STRUCT = struct.Struct("<I")
BINARY_HEADER_SIZE = 64

_DIGEST_SIZE = 16
_ORDER_DTYPE = "<i8"
_INDPTR_DTYPE = "<i8"
_INDICES_DTYPE = "<u4"

#: Chunk size of the read-back that digests the written indices section.
_READ_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class BinaryCSRHeader:
    """Decoded header of a binary CSR artifact."""

    version: int
    num_vertices: int
    num_edges: int
    digest: str  # hex


def binary_file_size(num_vertices: int, num_edges: int) -> int:
    """Total artifact size in bytes for a graph of the given dimensions."""

    return (
        BINARY_HEADER_SIZE
        + 8 * num_vertices  # order
        + 8 * (num_vertices + 1)  # indptr
        + 4 * 2 * num_edges  # indices
    )


def _section_offsets(num_vertices: int, num_edges: int) -> Tuple[int, int, int, int]:
    order_off = BINARY_HEADER_SIZE
    indptr_off = order_off + 8 * num_vertices
    indices_off = indptr_off + 8 * (num_vertices + 1)
    return order_off, indptr_off, indices_off, indices_off + 4 * 2 * num_edges


def _pack_header(num_vertices: int, num_edges: int, digest: bytes) -> bytes:
    prefix = _HEADER_PREFIX_STRUCT.pack(
        BINARY_MAGIC, BINARY_FORMAT_VERSION, 0, num_vertices, num_edges, digest
    )
    crc = zlib.crc32(prefix) & 0xFFFFFFFF
    return prefix + _HEADER_CRC_STRUCT.pack(crc) + b"\x00" * (
        BINARY_HEADER_SIZE - _HEADER_PREFIX_STRUCT.size - _HEADER_CRC_STRUCT.size
    )


def _unpack_header(data: bytes, where: str) -> BinaryCSRHeader:
    if len(data) < BINARY_HEADER_SIZE:
        raise BinaryCorruptError(
            f"{where}: header truncated (expected {BINARY_HEADER_SIZE} bytes, "
            f"got {len(data)})"
        )
    prefix = data[: _HEADER_PREFIX_STRUCT.size]
    magic, version, _flags, num_vertices, num_edges, digest = (
        _HEADER_PREFIX_STRUCT.unpack(prefix)
    )
    if magic != BINARY_MAGIC:
        raise BinaryFormatError(
            f"{where}: bad magic {magic!r}; this is not a binary CSR artifact"
        )
    (stored_crc,) = _HEADER_CRC_STRUCT.unpack(
        data[_HEADER_PREFIX_STRUCT.size : _HEADER_PREFIX_STRUCT.size + 4]
    )
    if zlib.crc32(prefix) & 0xFFFFFFFF != stored_crc:
        raise BinaryCorruptError(f"{where}: header checksum mismatch")
    if version != BINARY_FORMAT_VERSION:
        raise BinaryVersionError(version, BINARY_FORMAT_VERSION)
    return BinaryCSRHeader(
        version=version,
        num_vertices=num_vertices,
        num_edges=num_edges,
        digest=digest.hex(),
    )


def read_binary_header(path: Union[str, os.PathLike]) -> BinaryCSRHeader:
    """Read and validate the header of a binary CSR artifact.

    Validates magic, header checksum, format version and that the file
    size matches the dimensions the header declares (truncation check) —
    without touching the section arrays.
    """

    path = os.fspath(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise StorageError(f"cannot read binary CSR artifact {path!r}: {exc}") from None
    with handle:
        return _read_header(handle, path)


def _read_header(handle: BinaryIO, where: str) -> BinaryCSRHeader:
    handle.seek(0)
    data = handle.read(BINARY_HEADER_SIZE)
    actual_size = os.fstat(handle.fileno()).st_size
    header = _unpack_header(data, where)
    expected = binary_file_size(header.num_vertices, header.num_edges)
    if actual_size != expected:
        raise BinaryCorruptError(
            f"{where}: artifact truncated or padded (header declares "
            f"{header.num_vertices} vertices / {header.num_edges} edges = "
            f"{expected} bytes, file has {actual_size})"
        )
    return header


def _digest_sections(num_vertices: int, num_edges: int, arrays) -> str:
    """BLAKE2b-128 over the dimensions and the raw section bytes."""

    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(struct.pack("<QQ", num_vertices, num_edges))
    for arr in arrays:
        digest.update(memoryview(_np.ascontiguousarray(arr)).cast("B"))
    return digest.hexdigest()


def write_binary_csr(
    path: Union[str, os.PathLike],
    order,
    indptr,
    indices,
    num_edges: Optional[int] = None,
) -> BinaryCSRHeader:
    """Write a binary CSR artifact atomically and return its header.

    ``order`` is the vertex id of each record (the scan order — a
    permutation of ``0 .. n-1``), ``indptr`` the ``n+1`` neighbour
    offsets, ``indices`` the concatenated neighbour ids.  Validation is
    strict: the artifact is checked for internal consistency at birth so
    every later open can trust the header + size check alone.
    """

    order = _np.ascontiguousarray(order, dtype=_ORDER_DTYPE)
    indptr = _np.ascontiguousarray(indptr, dtype=_INDPTR_DTYPE)
    indices = _np.ascontiguousarray(indices, dtype=_INDICES_DTYPE)
    num_vertices = int(order.size)
    if indptr.size != num_vertices + 1:
        raise BinaryFormatError(
            f"indptr must have {num_vertices + 1} entries, got {indptr.size}"
        )
    if num_vertices and (int(indptr[0]) != 0 or (_np.diff(indptr) < 0).any()):
        raise BinaryFormatError("indptr must start at 0 and be non-decreasing")
    if int(indptr[-1]) != indices.size:
        raise BinaryFormatError(
            f"indptr ends at {int(indptr[-1])} but indices has {indices.size} entries"
        )
    if indices.size % 2 != 0:
        raise BinaryFormatError(
            "indices must hold both directions of every undirected edge "
            f"(even length), got {indices.size} entries"
        )
    if num_edges is None:
        num_edges = indices.size // 2
    records = [(order, _np.diff(indptr), indices)]
    return write_binary_records(path, num_vertices, num_edges, records)


def write_binary_records(
    path: Union[str, os.PathLike], num_vertices: int, num_edges: int, records
) -> BinaryCSRHeader:
    """Atomically write an artifact from record chunks; see :func:`write_records`.

    The artifact is written to a temporary sibling, fsynced, renamed over
    ``path`` and the rename made durable by fsyncing the directory.
    """

    path = os.fspath(path)
    temp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp_path, "w+b") as handle:
            header = write_records(handle, num_vertices, num_edges, records)
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        fsync_directory(path)
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
    return header


def write_records(
    handle: BinaryIO, num_vertices: int, num_edges: int, records
) -> BinaryCSRHeader:
    """Write a complete artifact into the empty file ``handle`` and return its header.

    ``records`` yields ``(vertices, degrees, targets)`` chunks covering the
    records in scan order.  The section offsets are fixed by
    ``(num_vertices, num_edges)``, so each chunk's targets are written as
    ``<u4`` straight to their place; only ``order`` and the degrees
    (O(n)) are held until the end, when ``order`` and ``indptr`` are
    written and the digest is computed over the written sections.  Every
    chunk is validated before it is written: ids in ``0 .. n-1``, no more
    than ``n`` records and ``2 * num_edges`` targets in total, and at the
    end ``order`` a permutation of all ids.
    """

    n, m = int(num_vertices), int(num_edges)
    order_off, indptr_off, indices_off, _ = _section_offsets(n, m)
    order = _np.empty(n, dtype=_ORDER_DTYPE)
    degrees = _np.empty(n, dtype=_INDPTR_DTYPE)
    count = stored = 0
    handle.seek(indices_off)
    for vertices, lens, targets in records:
        size = len(vertices)
        if count + size > n:
            raise BinaryFormatError(f"more than the declared {n} records")
        if stored + len(targets) > 2 * m:
            raise BinaryFormatError(
                f"num_edges={m} disagrees with more than {2 * m} stored targets"
            )
        targets = _np.asarray(targets)
        if len(targets) and (int(targets.min()) < 0 or int(targets.max()) >= n):
            raise BinaryFormatError("indices contain a vertex id >= num_vertices")
        order[count : count + size] = vertices
        degrees[count : count + size] = lens
        handle.write(memoryview(targets.astype(_INDICES_DTYPE, copy=False)).cast("B"))
        count += size
        stored += len(targets)
    if count != n:
        raise BinaryFormatError(f"{count} records for the declared {n} vertices")
    if stored != 2 * m:
        raise BinaryFormatError(
            f"num_edges={m} disagrees with {stored} stored targets"
        )
    if n and (
        order.min() < 0
        or order.max() >= n
        or (_np.bincount(order, minlength=n) != 1).any()
    ):
        raise BinaryFormatError(
            "order must be a permutation of all vertex ids 0 .. n-1"
        )
    indptr = _np.zeros(n + 1, dtype=_INDPTR_DTYPE)
    _np.cumsum(degrees, out=indptr[1:])
    del degrees
    handle.seek(order_off)
    handle.write(memoryview(order).cast("B"))
    handle.write(memoryview(indptr).cast("B"))
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(struct.pack("<QQ", n, m))
    digest.update(memoryview(order).cast("B"))
    digest.update(memoryview(indptr).cast("B"))
    handle.seek(indices_off)
    indices_bytes = 4 * stored
    for start in range(0, indices_bytes, _READ_CHUNK_BYTES):
        digest.update(handle.read(min(_READ_CHUNK_BYTES, indices_bytes - start)))
    digest_hex = digest.hexdigest()
    handle.seek(0)
    handle.write(_pack_header(n, m, bytes.fromhex(digest_hex)))
    handle.flush()
    return BinaryCSRHeader(
        version=BINARY_FORMAT_VERSION,
        num_vertices=n,
        num_edges=m,
        digest=digest_hex,
    )


class MemmapAdjacencySource:
    """Scan source over a memory-mapped binary CSR artifact.

    Drop-in compatible with
    :class:`~repro.storage.adjacency_file.AdjacencyFileReader`: the same
    scan-source protocol, the same record order and neighbour order, and
    the same ``IOStats`` charges (see the module docstring for how the
    text-file byte geometry is modeled).  Opening performs no parsing
    beyond the 64-byte header — the sections are mapped read-only and
    pages are shared with every other process mapping the same artifact.

    Parameters
    ----------
    path:
        Filesystem path of the artifact, or an open binary file holding
        one (mapped through its descriptor).
    block_size:
        Block size ``B`` used for the modeled I/O accounting (identical
        role to the text reader's device block size).
    stats:
        Optional shared :class:`IOStats`.
    verify:
        When true, recompute the content digest at open and raise
        :class:`~repro.errors.BinaryCorruptError` on mismatch (reads the
        whole file once; the default trusts the header + size check).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike, BinaryIO],
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IOStats] = None,
        verify: bool = False,
    ) -> None:
        if block_size <= 0:
            raise StorageError(f"block_size must be positive, got {block_size}")
        self.block_size = int(block_size)
        self._stats = stats if stats is not None else IOStats()
        if hasattr(path, "fileno"):
            # An open artifact, mapped through its descriptor — how a
            # spill that was never linked into a directory is opened.
            self._path = f"<open file {path.name!r}>"
            self._header = _read_header(path, self._path)
            mapped = path
        else:
            self._path = mapped = os.fspath(path)
            self._header = read_binary_header(self._path)
        n = self._header.num_vertices
        m = self._header.num_edges
        order_off, indptr_off, indices_off, _ = _section_offsets(n, m)
        if n:
            self._order = _np.memmap(
                mapped, dtype=_ORDER_DTYPE, mode="r", offset=order_off, shape=(n,)
            )
        else:
            self._order = _np.zeros(0, dtype=_ORDER_DTYPE)
        self._indptr = _np.memmap(
            mapped, dtype=_INDPTR_DTYPE, mode="r", offset=indptr_off, shape=(n + 1,)
        )
        if m:
            self._indices = _np.memmap(
                mapped,
                dtype=_INDICES_DTYPE,
                mode="r",
                offset=indices_off,
                shape=(2 * m,),
            )
        else:
            self._indices = _np.zeros(0, dtype=_INDICES_DTYPE)
        self._closed = False
        # Modeled text-file geometry (lazy): byte offset of each record in
        # the equivalent adjacency file, plus the reader's derived caches.
        self._modeled_starts = None
        self._batch_plan: Optional[Tuple[int, object]] = None
        self._record_of = None  # vertex id -> record position
        self._scan_lists: Optional[Tuple[List[int], List[int], List[int]]] = None
        #: True once a full scan has completed — the reader's "index built"
        #: state, which gates the charged discovery scan of a cold lookup.
        self._index_built = False
        # Replicated BlockDevice read-cursor state for the modeled charges.
        self._next_sequential_offset = 0
        self._last_block_read = -1
        if verify:
            self.verify()
        # The text reader's constructor reads the 32-byte file header; the
        # same charge lands here so open-time accounting matches.
        self._charge_read(0, fmt.HEADER_SIZE)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Filesystem path of the artifact."""

        return self._path

    @property
    def header(self) -> BinaryCSRHeader:
        """The decoded artifact header."""

        return self._header

    @property
    def content_digest(self) -> str:
        """Hex content digest from the artifact header.

        Keys the service's result cache and the pipeline engine's
        checkpoint provenance: two artifacts with equal digests hold the
        same graph in the same record order.
        """

        return self._header.digest

    @property
    def num_vertices(self) -> int:
        """Number of vertices declared in the artifact header."""

        return self._header.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges declared in the artifact header."""

        return self._header.num_edges

    @property
    def stats(self) -> IOStats:
        """The modeled I/O counters of this source."""

        return self._stats

    def verify(self) -> None:
        """Recompute the content digest; raise on mismatch (full read)."""

        actual = _digest_sections(
            self._header.num_vertices,
            self._header.num_edges,
            (self._order, self._indptr, self._indices),
        )
        if actual != self._header.digest:
            raise BinaryCorruptError(
                f"{self._path}: content digest mismatch (header says "
                f"{self._header.digest}, sections hash to {actual}); the "
                f"artifact is corrupt — re-run 'repro-mis convert'"
            )

    # ------------------------------------------------------------------
    # Modeled BlockDevice accounting
    # ------------------------------------------------------------------
    def _charge_read(self, offset: int, length: int) -> None:
        """Charge one read in the equivalent text-file byte space.

        Replicates ``BlockDevice.read_at`` exactly: ceil-spanned blocks, a
        sequential read starting inside the previously-read block charged
        one block less, and a non-contiguous read counted as a seek.
        """

        block_size = self.block_size
        sequential = offset == self._next_sequential_offset
        self._next_sequential_offset = offset + length
        if length > 0:
            first = offset // block_size
            blocks = (offset + length - 1) // block_size - first + 1
            if sequential and first == self._last_block_read:
                blocks -= 1
            self._last_block_read = (offset + length - 1) // block_size
        else:
            blocks = 0
        self._stats.record_read(length, blocks, sequential)

    def _starts(self):
        """Byte offset of each record (plus the end) in the modeled file."""

        if self._modeled_starts is None:
            n = self._header.num_vertices
            self._modeled_starts = (
                fmt.HEADER_SIZE
                + fmt.RECORD_HEADER_SIZE * _np.arange(n + 1, dtype=_np.int64)
                + fmt.VERTEX_ID_BYTES * _np.asarray(self._indptr, dtype=_np.int64)
            )
        return self._modeled_starts

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"memmap source over {self._path!r} is closed")

    # ------------------------------------------------------------------
    # Scan-source protocol
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(vertex, neighbours)`` for every record, in artifact order."""

        self._ensure_open()
        if self._scan_lists is None:
            # Converted once: python-level streaming (the reference
            # backend's path) iterates these lists every round.
            self._scan_lists = (
                self._order.tolist(),
                self._indptr.tolist(),
                self._starts().tolist(),
            )
        order_list, indptr_list, starts_list = self._scan_lists
        indices = self._indices
        for i in range(self._header.num_vertices):
            offset = starts_list[i]
            begin, end = indptr_list[i], indptr_list[i + 1]
            self._charge_read(offset, fmt.RECORD_HEADER_SIZE)
            self._charge_read(
                offset + fmt.RECORD_HEADER_SIZE,
                (end - begin) * fmt.VERTEX_ID_BYTES,
            )
            yield order_list[i], tuple(indices[begin:end].tolist())
        self._index_built = True
        self._stats.record_scan()

    def charge_scan(self, max_batch_bytes: Optional[int] = None) -> bool:
        """Charge one full sequential scan to ``IOStats`` without reading.

        Replays the modeled reads of a batched scan of the equivalent text
        file — one ``_charge_read`` per batch of roughly
        ``max_batch_bytes``, then one ``record_scan``.  Contiguous reads
        telescope, so the totals equal a record-by-record ``scan()``.  The
        record-major kernels use this: they read :meth:`csr_views`
        directly and charge the sequential scan they stand for.
        """

        self._ensure_open()
        if max_batch_bytes is None:
            max_batch_bytes = self.block_size * DEFAULT_BATCH_BLOCKS
        max_batch_bytes = max(int(max_batch_bytes), fmt.RECORD_HEADER_SIZE)
        starts = self._starts()
        if self._batch_plan is None or self._batch_plan[0] != max_batch_bytes:
            self._batch_plan = (
                max_batch_bytes,
                batch_bounds(_np.diff(starts), max_batch_bytes),
            )
        _, bounds = self._batch_plan
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            self._charge_read(int(starts[a]), int(starts[b] - starts[a]))
        self._index_built = True
        self._stats.record_scan()
        return True

    def csr_views(self):
        """Zero-copy ``(order, indptr, indices)`` views of the mapped sections.

        ``order[i]`` is the vertex id of record ``i`` (the scan order),
        ``indptr``/``indices`` the record-major CSR.  No charges — callers
        model their access via :meth:`charge_scan`.
        """

        self._ensure_open()
        return self._order, self._indptr, self._indices

    def scan_order(self) -> List[int]:
        """Vertex ids in artifact order (charges a scan if none ran yet).

        The order section is already mapped, so no parse happens — but a
        cold text reader must stream the whole file to learn its order,
        and the modeled accounting says so here too.
        """

        self._ensure_open()
        if not self._index_built:
            self._charge_discovery_scan()
        return self._order.tolist()

    def build_index(self) -> None:
        """Match the reader's resume hook: one full (charged) scan if cold.

        The pipeline engine calls this during resume restoration before
        resetting the I/O counters to the checkpoint snapshot, so the
        charges — like the text reader's physical index rebuild — belong
        to the restore phase, not the logical run.
        """

        self._ensure_open()
        if not self._index_built:
            self._charge_discovery_scan()

    def _record_positions(self):
        """Record position of every vertex id (the inverse of ``order``)."""

        if self._record_of is None:
            n = self._header.num_vertices
            positions = _np.full(n, -1, dtype=_np.int64)
            positions[_np.asarray(self._order, dtype=_np.int64)] = _np.arange(
                n, dtype=_np.int64
            )
            if n and (positions < 0).any():
                raise BinaryCorruptError(
                    f"{self._path}: order section is not a permutation; the "
                    f"artifact is corrupt — re-run 'repro-mis convert'"
                )
            self._record_of = positions
        return self._record_of

    def record_offset(self, vertex: int) -> Optional[int]:
        """Byte offset of ``vertex``'s record in the equivalent text file.

        ``None`` for an id outside ``0 .. n-1``.  Not charged: a text
        reader spilled to this artifact uses it as its record index.
        """

        self._ensure_open()
        vertex = int(vertex)
        if not 0 <= vertex < self._header.num_vertices:
            return None
        return int(self._starts()[self._record_positions()[vertex]])

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Random lookup of one vertex's neighbour list.

        Charged exactly like the text reader's: the random record read
        (and, on the very first lookup before any scan, the reader's
        index-building discovery scan) is counted in full, while the
        sequential read-ahead state is saved and restored so an ongoing
        scan resumes without being re-charged for the block it holds.
        """

        self._ensure_open()
        saved_cursor = (self._next_sequential_offset, self._last_block_read)
        if not self._index_built:
            self._charge_discovery_scan()
        vertex = int(vertex)
        n = self._header.num_vertices
        if not 0 <= vertex < n:
            self._next_sequential_offset, self._last_block_read = saved_cursor
            raise StorageError(
                f"vertex {vertex} is not present in the adjacency file"
            )
        position = int(self._record_positions()[vertex])
        starts = self._starts()
        self._next_sequential_offset = -1
        self._last_block_read = -1
        self._stats.record_vertex_lookup()
        offset = int(starts[position])
        begin = int(self._indptr[position])
        end = int(self._indptr[position + 1])
        self._charge_read(offset, fmt.RECORD_HEADER_SIZE)
        self._charge_read(
            offset + fmt.RECORD_HEADER_SIZE, (end - begin) * fmt.VERTEX_ID_BYTES
        )
        result = tuple(self._indices[begin:end].tolist())
        self._next_sequential_offset, self._last_block_read = saved_cursor
        return result

    def _charge_discovery_scan(self) -> None:
        """Charge the full streaming scan a cold text reader would perform.

        Computed in aggregate rather than per record — this is the
        zero-parse path, so the accounting must not cost a Python loop
        over every record.  The scan's reads are two per record (header,
        then neighbour bytes) and contiguous, so against
        :meth:`_charge_read`'s rules: bytes are the full spanned range,
        only the first read can be a seek, and the sequential one-block
        discount applies to every positive-length read that does not
        start on a block boundary (the first read instead consults the
        incoming cursor state).
        """

        n = self._header.num_vertices
        if n == 0:
            self._index_built = True
            self._stats.record_scan()
            return
        block_size = self.block_size
        starts = self._starts()
        offsets = _np.empty(2 * n, dtype=_np.int64)
        offsets[0::2] = starts[:-1]
        offsets[1::2] = starts[:-1] + fmt.RECORD_HEADER_SIZE
        lengths = _np.empty(2 * n, dtype=_np.int64)
        lengths[0::2] = fmt.RECORD_HEADER_SIZE
        lengths[1::2] = starts[1:] - offsets[1::2]
        positive = lengths > 0
        spans = _np.where(
            positive,
            (offsets + lengths - 1) // block_size - offsets // block_size + 1,
            0,
        )
        discounts = positive & (offsets % block_size != 0)
        first_sequential = int(offsets[0]) == self._next_sequential_offset
        discounts[0] = (
            first_sequential
            and int(offsets[0]) // block_size == self._last_block_read
        )
        self._stats.record_read(
            int(lengths.sum()),
            int(spans.sum() - discounts.sum()),
            first_sequential,
        )
        end = int(starts[-1])
        self._next_sequential_offset = end
        self._last_block_read = (end - 1) // block_size
        self._index_built = True
        self._stats.record_scan()

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex`` via a random record lookup (charged)."""

        return len(self.neighbors(vertex))

    def to_graph(self) -> Graph:
        """Materialise the artifact as an in-memory :class:`Graph`.

        Charged as one full streaming scan — the same accounting as the
        text reader's ``to_graph`` — while the edge array itself is built
        vectorized from the mapped sections.
        """

        self._ensure_open()
        self._charge_discovery_scan()
        degrees = _np.diff(_np.asarray(self._indptr, dtype=_np.int64))
        edges = _np.column_stack(
            (
                _np.repeat(_np.asarray(self._order, dtype=_np.int64), degrees),
                _np.asarray(self._indices, dtype=_np.int64),
            )
        )
        return Graph(self._header.num_vertices, edges)

    def close(self) -> None:
        """Release the mappings (pages stay shared until every view dies)."""

        self._closed = True
        self._order = None
        self._indptr = None
        self._indices = None
        self._modeled_starts = None
        self._scan_lists = None
        self._record_of = None
        self._batch_plan = None

    def __enter__(self) -> "MemmapAdjacencySource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
