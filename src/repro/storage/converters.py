"""Converters between graph file formats.

Real graph collections (SNAP, KONECT, LAW) distribute graphs as plain-text
edge lists.  These helpers stream such files into the adjacency-list
format the semi-external solvers consume, convert an adjacency file into
the memory-mapped binary CSR artifact, and back:

* :func:`edge_list_file_to_graph` — parse a text edge list from disk;
* :func:`graph_to_edge_list_file` — write a graph as a text edge list;
* :func:`import_edge_list` — text edge list → degree-sorted binary
  adjacency file, ready for the solvers;
* :func:`export_edge_list` — adjacency file (either format) → text edge
  list;
* :func:`adjacency_to_binary` — text adjacency file → binary CSR artifact
  (``repro-mis convert --to-binary``), preserving record and neighbour
  order exactly;
* :func:`binary_to_adjacency` — binary CSR artifact → text adjacency
  file, the exact inverse;
* :func:`spill_to_memmap` — text adjacency file → private, unnamed
  ``SEXTCSR1`` memmap (the numpy kernels' record-major view of a text
  input).

Lines starting with ``#`` or ``%`` are treated as comments, vertex ids may
be arbitrary non-negative integers (they are compacted to ``0 .. n-1``,
and the mapping is returned so results can be translated back).
"""

from __future__ import annotations

import tempfile
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import StorageError
from repro.graphs.graph import HAVE_NUMPY, Graph, GraphBuilder
from repro.storage import format as fmt
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.binary_format import (
    BinaryCSRHeader,
    MemmapAdjacencySource,
    write_binary_records,
    write_records,
)
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, BlockDevice

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - the container ships numpy
    _np = None

__all__ = [
    "adjacency_to_binary",
    "binary_to_adjacency",
    "edge_list_file_to_graph",
    "graph_to_edge_list_file",
    "import_edge_list",
    "export_edge_list",
    "spill_to_memmap",
]


def _parse_edge_lines(
    lines: Iterable[str], compact: bool
) -> Tuple[GraphBuilder, Dict[int, int]]:
    """Parse edge lines into a builder.

    When ``compact`` is true, arbitrary vertex ids are renumbered to
    ``0 .. n-1`` in order of first appearance (useful for SNAP-style files
    with sparse ids); otherwise ids are kept verbatim, which makes a
    write-then-read round trip the identity.
    """

    builder = GraphBuilder()
    compact_map: Dict[int, int] = {}

    def compact_id(raw: int) -> int:
        if raw < 0:
            raise StorageError(f"vertex ids must be non-negative, got {raw}")
        if not compact:
            compact_map.setdefault(raw, raw)
            return raw
        if raw not in compact_map:
            compact_map[raw] = len(compact_map)
        return compact_map[raw]

    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise StorageError(f"line {line_number}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as error:
            raise StorageError(f"line {line_number}: non-integer vertex id") from error
        builder.add_edge(compact_id(u), compact_id(v))
    builder.ensure_vertex(max(compact_map.values(), default=-1))
    return builder, compact_map


def edge_list_file_to_graph(path: str, compact: bool = False) -> Tuple[Graph, Dict[int, int]]:
    """Parse a text edge list from ``path``.

    Returns the graph plus the ``original id -> graph id`` mapping (the
    identity unless ``compact=True``).
    """

    with open(path, "r", encoding="utf-8") as handle:
        builder, mapping = _parse_edge_lines(handle, compact)
    return builder.build(), mapping


def graph_to_edge_list_file(graph: Graph, path: str, header_comment: Optional[str] = None) -> int:
    """Write ``graph`` as a text edge list; returns the number of edge lines."""

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header_comment:
            handle.write(f"# {header_comment}\n")
        handle.write(f"# vertices={graph.num_vertices} edges={graph.num_edges}\n")
        for u, v in graph.iter_edges():
            handle.write(f"{u} {v}\n")
            count += 1
    return count


def import_edge_list(
    text_path: str,
    adjacency_path: str,
    order: str = "degree",
    block_size: int = DEFAULT_BLOCK_SIZE,
    compact: bool = False,
) -> Tuple[Graph, Dict[int, int]]:
    """Convert a text edge list into a binary adjacency file.

    Parameters
    ----------
    text_path:
        Input edge-list path.
    adjacency_path:
        Output binary adjacency file path.
    order:
        ``"degree"`` writes the paper's pre-sorted layout; ``"id"`` writes
        the raw id order (the Baseline layout).
    block_size:
        Block size recorded for I/O accounting.
    compact:
        Renumber sparse vertex ids to ``0 .. n-1`` while importing.

    Returns
    -------
    (Graph, mapping)
        The in-memory graph and the original-id → graph-id mapping.
    """

    graph, mapping = edge_list_file_to_graph(text_path, compact=compact)
    if order == "degree":
        vertex_order = graph.degree_ascending_order()
    elif order == "id":
        vertex_order = list(range(graph.num_vertices))
    else:
        raise StorageError(f"unknown order {order!r}; use 'degree' or 'id'")
    write_adjacency_file(graph, adjacency_path, order=vertex_order,
                         block_size=block_size).close()
    return graph, mapping


def export_edge_list(adjacency_path: str, text_path: str) -> int:
    """Convert an adjacency file (either on-disk format) to a text edge list."""

    from repro.storage.registry import open_adjacency_source

    reader = open_adjacency_source(adjacency_path)
    count = 0
    try:
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(
                f"# vertices={reader.num_vertices} edges={reader.num_edges}\n"
            )
            for vertex, neighbors in reader.scan():
                for neighbor in neighbors:
                    if vertex < neighbor:
                        handle.write(f"{vertex} {neighbor}\n")
                        count += 1
    finally:
        reader.close()
    return count


def _text_records(reader: AdjacencyFileReader):
    """The ``(vertices, degrees, targets)`` chunks of one batched scan."""

    for vertices, offsets, targets in reader.scan_batches():
        yield vertices, _np.diff(offsets), targets


def adjacency_to_binary(
    adjacency_path: str,
    binary_path: str,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BinaryCSRHeader:
    """Convert a text adjacency file into a binary CSR artifact.

    The artifact preserves the file's record order and each record's
    neighbour order exactly, so a solve over the converted artifact is
    bit-identical (sets, rounds, I/O accounting) to one over the text
    file.  This is the one-time cost: every later open of the artifact is
    a 64-byte header read.

    The text file is read once, in batches, and each batch's targets go
    straight to their place in the output (:func:`write_records`), so
    the edges are never held in memory — only O(n) per-vertex arrays.
    """

    reader = AdjacencyFileReader(adjacency_path, block_size=block_size)
    try:
        return write_binary_records(
            binary_path, reader.num_vertices, reader.num_edges, _text_records(reader)
        )
    finally:
        reader.close()


def spill_to_memmap(device: BlockDevice) -> MemmapAdjacencySource:
    """Spill the text adjacency file on ``device`` to a private memmap.

    Writes the artifact :func:`adjacency_to_binary` would write, through
    the same writer, into an unnamed file in :mod:`tempfile`'s directory
    (``TMPDIR``): the file is unlinked before its first byte is written,
    so nothing is left behind however the process ends.  The text is read
    through :meth:`BlockDevice.reopen`, so the spill charges nothing to
    ``device``'s ``IOStats`` and does not move its read cursor.
    """

    reader = AdjacencyFileReader(device.reopen())
    try:
        with tempfile.TemporaryFile() as handle:
            write_records(
                handle, reader.num_vertices, reader.num_edges, _text_records(reader)
            )
            return MemmapAdjacencySource(handle, block_size=device.block_size)
    finally:
        reader.close()


def binary_to_adjacency(
    binary_path: str,
    adjacency_path: str,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BinaryCSRHeader:
    """Convert a binary CSR artifact back into a text adjacency file.

    The exact inverse of :func:`adjacency_to_binary`: the written file has
    the same records in the same order, so converting back and forth is
    the identity on bytes.
    """

    source = MemmapAdjacencySource(binary_path, block_size=block_size)
    try:
        num_vertices = source.num_vertices
        device = BlockDevice(adjacency_path, block_size=block_size, create=True)
        try:
            device.append(fmt.pack_header(num_vertices, source.num_edges))
            for vertex, neighbors in source.scan():
                device.append(fmt.pack_record(vertex, neighbors))
            device.flush()
        finally:
            device.close()
        return source.header
    finally:
        source.close()

