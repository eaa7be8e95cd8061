"""Semi-external storage substrate.

The paper's algorithms operate in the *semi-external* memory model: the
per-vertex state fits in main memory, but the adjacency lists live on disk
and may only be read through a small number of **sequential scans**.  This
sub-package provides that substrate:

* :mod:`repro.storage.io_stats` — I/O accounting (blocks, scans, seeks).
* :mod:`repro.storage.blocks` — a block device abstraction over a real file
  or an in-memory buffer, with a configurable block size ``B``.
* :mod:`repro.storage.format` — the binary adjacency-list file format.
* :mod:`repro.storage.adjacency_file` — writer and sequential-scan reader.
* :mod:`repro.storage.scan` — the scan-source protocol shared by the
  on-disk reader and the in-memory emulation used in tests/benchmarks.
* :mod:`repro.storage.binary_format` — the memory-mapped binary CSR
  artifact (zero-parse startup, page-cache sharing, graphs beyond RAM)
  and its checksummed on-disk format.
* :mod:`repro.storage.registry` — magic-based dispatch that opens either
  on-disk format as a scan source.
* :mod:`repro.storage.external_sort` — degree-ordered external sorting of
  adjacency files (the pre-processing step of Section 4.1).
* :mod:`repro.storage.memory` — the semi-external memory budget model used
  to reproduce the memory columns of Table 6.
* :mod:`repro.storage.checkpoint` — versioned, checksummed checkpoint
  files backing the pipeline engine's crash/resume support.

The names below load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.storage.io_stats": ("IOStats",),
    "repro.storage.checkpoint": (
        "CHECKPOINT_FORMAT",
        "CHECKPOINT_VERSION",
        "read_checkpoint",
        "write_checkpoint",
    ),
    "repro.storage.blocks": ("BlockDevice",),
    "repro.storage.adjacency_file": ("AdjacencyFileReader", "write_adjacency_file"),
    "repro.storage.scan": (
        "AdjacencyBatch",
        "AdjacencyScanSource",
        "InMemoryAdjacencyScan",
        "as_scan_source",
    ),
    "repro.storage.binary_format": (
        "BINARY_FORMAT_VERSION",
        "BINARY_MAGIC",
        "BinaryCSRHeader",
        "MemmapAdjacencySource",
        "read_binary_header",
        "write_binary_csr",
    ),
    "repro.storage.registry": ("open_adjacency_source",),
    "repro.storage.external_sort": (
        "external_sort_by_degree",
        "greedy_total_io_cost",
        "sort_io_cost",
    ),
    "repro.storage.memory": ("MemoryBudget", "MemoryModel"),
}

__all__ = [
    "IOStats",
    "BlockDevice",
    "AdjacencyBatch",
    "AdjacencyFileReader",
    "write_adjacency_file",
    "AdjacencyScanSource",
    "InMemoryAdjacencyScan",
    "as_scan_source",
    "BINARY_FORMAT_VERSION",
    "BINARY_MAGIC",
    "BinaryCSRHeader",
    "MemmapAdjacencySource",
    "read_binary_header",
    "write_binary_csr",
    "open_adjacency_source",
    "external_sort_by_degree",
    "greedy_total_io_cost",
    "sort_io_cost",
    "MemoryBudget",
    "MemoryModel",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "read_checkpoint",
    "write_checkpoint",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
