"""Record-major CSR materialisation for the parallel execution layer.

The parallel kernels (see :mod:`repro.core.parallel.passes`) run their
sharded sweeps over a *record-major* CSR: ``order[i]`` is the vertex id of
the ``i``-th record in scan order, ``pos`` its inverse, and
``indptr``/``indices`` the concatenated neighbour lists in record order.
Worker processes own contiguous record ranges, so the arrays must be
visible across processes:

* an :class:`~repro.storage.scan.InMemoryAdjacencyScan` is gathered into
  ``multiprocessing.shared_memory`` segments once (one modeled scan, like
  the serial labelling sweep that would have read it);
* an :class:`~repro.storage.adjacency_file.AdjacencyFileReader` is parsed
  into the same shared segments — by the parent on a cold reader (the
  discovery scan that serial execution would perform anyway), or by the
  workers in parallel byte stripes when the record layout is already
  known (see :func:`plan_text_stripes`);
* a :class:`~repro.storage.binary_format.MemmapAdjacencySource` needs no
  copy at all: its sections are already on disk in record-major layout,
  and every process maps them independently at zero cost.

Materialising the edge arrays trades the batch-streaming memory profile
of the serial semi-external path for cross-process sharing — the same
trade the SEXTCSR1 artifact makes — while the *modeled* ``IOStats`` keep
charging the semi-external scan schedule through the sources'
``charge_scan`` replay hooks.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.kernels.numpy_backend import RecordCSR, record_csr
from repro.errors import SolverError
from repro.storage import format as fmt
from repro.storage.adjacency_file import AdjacencyFileReader
from repro.storage.binary_format import MemmapAdjacencySource
from repro.storage.scan import InMemoryAdjacencyScan, batch_bounds

__all__ = ["SharedCSR", "materialize_csr", "plan_text_stripes"]


def _shared_array(shape, dtype, segments: List[shared_memory.SharedMemory]):
    """Allocate one ndarray backed by a fresh shared-memory segment."""

    nbytes = max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    segments.append(segment)
    return np.ndarray(shape, dtype=dtype, buffer=segment.buf)


class SharedCSR:
    """Record-major CSR arrays visible to every worker process.

    ``order`` (int64, one entry per record), ``pos`` (int64 per vertex id,
    the inverse permutation), ``indptr`` (int64, records + 1) and
    ``indices`` (int64 for in-memory graphs, uint32 for text files — the
    kernels are dtype-agnostic).  The arrays live in shared-memory
    segments owned by this object, so forked workers read them without
    copies.  Memmap artifacts need none of this: their
    :class:`~repro.core.kernels.numpy_backend.RecordCSR` views are shared
    by the file mapping itself.
    """

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self.order = None
        self.pos = None
        self.indptr = None
        self.indices = None
        self._segments: List[shared_memory.SharedMemory] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _finish(self) -> "SharedCSR":
        if self.pos is None:
            self.pos = np.empty(self.num_vertices, dtype=np.int64)
        self.pos[self.order] = np.arange(self.order.size, dtype=np.int64)
        return self

    @classmethod
    def from_in_memory(cls, source: InMemoryAdjacencyScan) -> "SharedCSR":
        """Publish the graph's record-major CSR (:func:`record_csr`) shared."""

        gathered = record_csr(source)
        csr = cls(gathered.num_vertices)
        for name in ("order", "indptr", "indices"):
            array = getattr(gathered, name)
            shared = _shared_array(array.shape, array.dtype, csr._segments)
            shared[:] = array
            setattr(csr, name, shared)
        return csr._finish()

    @classmethod
    def from_text_serial(cls, reader: AdjacencyFileReader) -> "SharedCSR":
        """Parse an adjacency file into shared segments with one real scan.

        This *is* the pass's first sequential scan — the reader charges it
        exactly as the serial backend's first ``scan_batches`` iteration
        would, and it leaves the record-degree cache behind so every later
        scan point replays through ``charge_scan``.
        """

        n = reader.num_vertices
        csr = cls(n)
        csr.order = _shared_array((n,), np.int64, csr._segments)
        csr.indptr = _shared_array((n + 1,), np.int64, csr._segments)
        csr.indices = _shared_array((2 * reader.num_edges,), np.uint32, csr._segments)
        record = 0
        slot = 0
        csr.indptr[0] = 0
        for verts, local_offsets, tgts in reader.scan_batches():
            csr.order[record : record + verts.size] = verts
            csr.indptr[record + 1 : record + verts.size + 1] = slot + local_offsets[1:]
            csr.indices[slot : slot + tgts.size] = tgts
            record += verts.size
            slot += tgts.size
        if record != n or slot != 2 * reader.num_edges:
            raise SolverError(
                f"adjacency file yielded {record} records / {slot} slots, "
                f"expected {n} / {2 * reader.num_edges}"
            )
        return csr._finish()

    @classmethod
    def allocate_for_text(cls, reader: AdjacencyFileReader) -> "SharedCSR":
        """Empty shared segments sized from the header, for a striped fill.

        ``pos`` is allocated shared as well: the workers fork *before* the
        striped fill completes, so the inverse permutation the parent
        computes afterwards must be visible through shared pages rather
        than copy-on-write ones.
        """

        n = reader.num_vertices
        csr = cls(n)
        csr.order = _shared_array((n,), np.int64, csr._segments)
        csr.pos = _shared_array((n,), np.int64, csr._segments)
        csr.indptr = _shared_array((n + 1,), np.int64, csr._segments)
        csr.indices = _shared_array((2 * reader.num_edges,), np.uint32, csr._segments)
        return csr

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the shared segments (views first, to avoid BufferError)."""

        self.order = None
        self.pos = None
        self.indptr = None
        self.indices = None
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - defensive
                pass
        self._segments = []


def plan_text_stripes(
    reader: AdjacencyFileReader, workers: int
) -> Optional[List[Tuple[int, int, int, int]]]:
    """Contiguous record stripes of an indexed adjacency file, one per worker.

    Returns ``None`` when the reader has not cached its record degrees yet
    (a cold reader must run a discovery scan first — striping needs the
    record boundaries up front).  Each stripe is
    ``(record_lo, record_hi, byte_start, prev_last_block)``: the half-open
    record range, the absolute byte offset of its first record, and the
    device block the *previous* stripe's last byte lives in — the cursor
    seed that makes the stripe's modeled ``IOStats`` delta telescope with
    its neighbours' to exactly the serial sequential-scan charges when the
    per-worker deltas are summed in rank order.
    """

    degrees = reader.record_degrees_array()
    if degrees is None:
        return None
    record_bytes = fmt.RECORD_HEADER_SIZE + fmt.VERTEX_ID_BYTES * degrees
    starts = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(record_bytes, out=starts[1:])
    # Stripe boundaries land on the batch grid the serial scan reads, so
    # every read a worker models is byte-for-byte one the serial
    # ``_scan_batches_indexed`` pass would issue.
    max_batch_bytes = reader.batch_bytes()
    bounds = batch_bounds(record_bytes, max_batch_bytes)
    per_worker = max(1, -(-int(bounds.size - 1) // workers))
    block_size = reader.block_size
    stripes: List[Tuple[int, int, int, int]] = []
    for w in range(workers):
        lo_b = min(w * per_worker, bounds.size - 1)
        hi_b = min((w + 1) * per_worker, bounds.size - 1)
        record_lo = int(bounds[lo_b])
        record_hi = int(bounds[hi_b])
        byte_start = fmt.HEADER_SIZE + int(starts[record_lo])
        prev_last_block = (byte_start - 1) // block_size if record_lo > 0 else -1
        stripes.append((record_lo, record_hi, byte_start, prev_last_block))
    return stripes


def materialize_csr(source) -> Tuple[Union[SharedCSR, RecordCSR], bool]:
    """Build the record-major CSR for ``source``.

    Returns ``(csr, charged)`` where ``charged`` reports whether the
    materialisation itself performed (and charged) the pass's first
    sequential scan — true only for the text-reader parse, which streams
    the file for real.  In-memory and memmap sources materialise for free
    and leave the first scan point to the caller's charge replay.
    """

    if isinstance(source, InMemoryAdjacencyScan):
        return SharedCSR.from_in_memory(source), False
    if isinstance(source, MemmapAdjacencySource):
        # Already record-major on disk: every process maps it at zero copy.
        return record_csr(source), False
    if isinstance(source, AdjacencyFileReader):
        return SharedCSR.from_text_serial(source), True
    raise SolverError(
        f"parallel execution does not support source type "
        f"{type(source).__name__}"
    )
