"""I/O accounting for the semi-external substrate.

The paper's cost model (Table 1) counts block transfers: a *scan* of a
structure of ``x`` items costs ``x / B`` block reads, and random accesses
are the expensive operation the algorithms are designed to avoid.  The
:class:`IOStats` object is threaded through the block device, the readers
and the solvers so that every experiment can report how many sequential
scans and how many random seeks it actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["IOStats"]


@dataclass
class IOStats:
    """Mutable counter bundle describing the I/O performed by an operation.

    Attributes
    ----------
    bytes_read / bytes_written:
        Raw byte counts that crossed the (possibly simulated) disk boundary.
    blocks_read / blocks_written:
        Number of device blocks touched; a partial block counts as one.
    sequential_scans:
        Number of complete sequential passes over an adjacency file or
        scan source.
    random_seeks:
        Number of reads that were *not* contiguous with the previous read
        (the expensive operation in the external-memory model).
    random_vertex_lookups:
        Number of single-vertex adjacency lookups requested by a solver
        outside a sequential scan (used only for skeleton re-verification;
        see ``core/two_k.py``).
    """

    bytes_read: int = 0
    bytes_written: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    sequential_scans: int = 0
    random_seeks: int = 0
    random_vertex_lookups: int = 0

    # ------------------------------------------------------------------
    # Recording primitives
    # ------------------------------------------------------------------
    def record_read(self, num_bytes: int, num_blocks: int, sequential: bool) -> None:
        """Record a read of ``num_bytes`` spanning ``num_blocks`` blocks."""

        self.bytes_read += num_bytes
        self.blocks_read += num_blocks
        if not sequential:
            self.random_seeks += 1

    def record_write(self, num_bytes: int, num_blocks: int) -> None:
        """Record a write of ``num_bytes`` spanning ``num_blocks`` blocks."""

        self.bytes_written += num_bytes
        self.blocks_written += num_blocks

    def record_scan(self) -> None:
        """Record the completion of one full sequential scan."""

        self.sequential_scans += 1

    def record_vertex_lookup(self) -> None:
        """Record one random single-vertex adjacency lookup."""

        self.random_vertex_lookups += 1

    # ------------------------------------------------------------------
    # Combination and reporting
    # ------------------------------------------------------------------
    def merge(self, other: "IOStats") -> None:
        """Add the counters of ``other`` into this object in place."""

        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.blocks_read += other.blocks_read
        self.blocks_written += other.blocks_written
        self.sequential_scans += other.sequential_scans
        self.random_seeks += other.random_seeks
        self.random_vertex_lookups += other.random_vertex_lookups

    def reset_to(self, snapshot: "IOStats") -> None:
        """Set every counter back to ``snapshot``'s value, in place.

        Undoes I/O a run must not be charged for — a resume's replay of
        work the checkpointed run already counted.
        """

        self.merge(snapshot.delta_since(self))

    def __add__(self, other: "IOStats") -> "IOStats":
        combined = IOStats()
        combined.merge(self)
        combined.merge(other)
        return combined

    def copy(self) -> "IOStats":
        """Return an independent snapshot of the current counters."""

        snapshot = IOStats()
        snapshot.merge(self)
        return snapshot

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Return the counters accumulated since the ``earlier`` snapshot."""

        diff = IOStats(
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            blocks_read=self.blocks_read - earlier.blocks_read,
            blocks_written=self.blocks_written - earlier.blocks_written,
            sequential_scans=self.sequential_scans - earlier.sequential_scans,
            random_seeks=self.random_seeks - earlier.random_seeks,
            random_vertex_lookups=self.random_vertex_lookups - earlier.random_vertex_lookups,
        )
        return diff

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary (for reports and JSON)."""

        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "sequential_scans": self.sequential_scans,
            "random_seeks": self.random_seeks,
            "random_vertex_lookups": self.random_vertex_lookups,
        }

    def __str__(self) -> str:
        return (
            f"IOStats(scans={self.sequential_scans}, blocks_read={self.blocks_read}, "
            f"blocks_written={self.blocks_written}, random_seeks={self.random_seeks}, "
            f"vertex_lookups={self.random_vertex_lookups})"
        )
