"""Scan-source registry: open any on-disk graph format by magic.

Two on-disk representations coexist — the streaming text-adjacency
format (:mod:`repro.storage.format`, magic ``SEXTADJ1``) and the
memory-mapped binary CSR artifact (:mod:`repro.storage.binary_format`,
magic ``SEXTCSR1``).  ``open_adjacency_source`` sniffs the leading magic
bytes and returns the matching scan source, so the CLI, the run-spec
executor, :func:`repro.storage.scan.as_scan_source` and the service
worker all accept either format through one call.  The formats are a
fixed table: magic bytes to a factory that receives
``(path, block_size, stats)`` and returns a scan source.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Union

from repro.errors import FormatError, StorageError
from repro.storage import format as fmt
from repro.storage.binary_format import BINARY_MAGIC, MemmapAdjacencySource
from repro.storage.blocks import DEFAULT_BLOCK_SIZE
from repro.storage.io_stats import IOStats
from repro.storage.scan import AdjacencyScanSource

__all__ = ["open_adjacency_source", "sniff_magic"]

_MAGIC_BYTES = 8

ScanFactory = Callable[[str, int, Optional[IOStats]], AdjacencyScanSource]


def _open_text(path: str, block_size: int, stats: Optional[IOStats]):
    # Imported here so opening a binary artifact never loads the text reader.
    from repro.storage.adjacency_file import AdjacencyFileReader

    return AdjacencyFileReader(path, block_size=block_size, stats=stats)


_SCAN_FORMATS: Dict[bytes, ScanFactory] = {
    fmt.MAGIC: _open_text,
    BINARY_MAGIC: lambda path, block_size, stats: MemmapAdjacencySource(
        path, block_size=block_size, stats=stats
    ),
}


def sniff_magic(path: Union[str, os.PathLike]) -> bytes:
    """The leading magic bytes of ``path`` (may be short for tiny files)."""

    try:
        with open(os.fspath(path), "rb") as handle:
            return handle.read(_MAGIC_BYTES)
    except OSError as exc:
        raise StorageError(f"cannot open graph file {path!r}: {exc}") from None


def open_adjacency_source(
    path: Union[str, os.PathLike],
    block_size: int = DEFAULT_BLOCK_SIZE,
    stats: Optional[IOStats] = None,
) -> AdjacencyScanSource:
    """Open a graph file as a scan source, dispatching on its magic bytes.

    Returns an :class:`~repro.storage.adjacency_file.AdjacencyFileReader`
    for text-adjacency files and a
    :class:`~repro.storage.binary_format.MemmapAdjacencySource` for binary
    CSR artifacts; raises :class:`~repro.errors.FormatError` for anything
    else.
    """

    magic = sniff_magic(path)
    factory = _SCAN_FORMATS.get(magic)
    if factory is None:
        known = ", ".join(repr(m) for m in sorted(_SCAN_FORMATS))
        raise FormatError(
            f"{os.fspath(path)}: unrecognised graph format (magic {magic!r}); "
            f"known formats: {known}"
        )
    return factory(os.fspath(path), block_size, stats)
