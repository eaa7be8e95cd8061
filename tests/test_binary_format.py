"""The memory-mapped binary CSR artifact and its integrity guarantees.

Three claim groups are pinned here:

* **drop-in parity** — a solve over the converted artifact is
  bit-identical to the same solve over the text adjacency file: same
  independent sets, same round telemetry, and the same ``IOStats``
  (the memmap source charges modeled I/O in the text file's byte
  geometry), across both kernel backends, for streaming scans, batched
  scans, random lookups (cold and mid-scan) and ``to_graph``;
* **integrity** — truncation, flipped section bytes, a damaged header
  checksum, a foreign magic and an unsupported format version each raise
  the matching typed error (mirroring ``tests/test_checkpoint.py`` for
  the checkpoint format);
* **identity** — the embedded content digest is stable across
  re-conversion, differs between different graphs, and converting
  binary → adjacency reproduces the original text file byte for byte.
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest

np = pytest.importorskip("numpy")

from repro.core import greedy_mis, one_k_swap, two_k_swap
from repro.errors import (
    BinaryCorruptError,
    BinaryFormatError,
    BinaryVersionError,
    FormatError,
    StorageError,
)
from repro.graphs.generators import (
    complete_graph,
    empty_graph,
    erdos_renyi_gnm,
    star_graph,
)
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.binary_format import (
    BINARY_HEADER_SIZE,
    BINARY_MAGIC,
    MemmapAdjacencySource,
    binary_file_size,
    read_binary_header,
    write_binary_csr,
)
from repro.storage.converters import adjacency_to_binary, binary_to_adjacency
from repro.storage.io_stats import IOStats
from repro.storage.registry import open_adjacency_source
from repro.storage.scan import as_scan_source

_HEADER_PREFIX = struct.Struct("<8sIIQQ16s")


def _write_pair(graph, tmp_path, name="g", block_size=4096, order=None):
    """Write ``graph`` as a text adjacency file and its binary twin."""

    text_path = os.path.join(str(tmp_path), f"{name}.adj")
    binary_path = os.path.join(str(tmp_path), f"{name}.csr")
    if order is None:
        order = graph.degree_ascending_order()
    write_adjacency_file(
        graph, text_path, order=order, block_size=block_size
    ).close()
    adjacency_to_binary(text_path, binary_path, block_size=block_size)
    return text_path, binary_path


def _open_pair(text_path, binary_path, block_size=4096):
    reader = AdjacencyFileReader(text_path, block_size=block_size, stats=IOStats())
    memmap = MemmapAdjacencySource(
        binary_path, block_size=block_size, stats=IOStats()
    )
    return reader, memmap


def assert_binary_parity(graph, tmp_path, block_size=4096, max_rounds=8):
    """Every algorithm × backend over text vs binary: identical everything."""

    text_path, binary_path = _write_pair(graph, tmp_path, block_size=block_size)
    for algorithm, kwargs in (
        (greedy_mis, {}),
        (one_k_swap, {"max_rounds": max_rounds}),
        (two_k_swap, {"max_rounds": max_rounds}),
    ):
        for backend in ("python", "numpy"):
            reader, memmap = _open_pair(text_path, binary_path, block_size)
            text_result = algorithm(reader, backend=backend, **kwargs)
            binary_result = algorithm(memmap, backend=backend, **kwargs)
            name = f"{algorithm.__name__}/{backend}"
            assert (
                text_result.independent_set == binary_result.independent_set
            ), name
            assert text_result.rounds == binary_result.rounds, name
            assert text_result.extras == binary_result.extras, name
            assert reader.stats.as_dict() == memmap.stats.as_dict(), (
                name,
                reader.stats.as_dict(),
                memmap.stats.as_dict(),
            )
            reader.close()
            memmap.close()


class TestSolverParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_gnm_files(self, seed, tmp_path):
        graph = erdos_renyi_gnm(220, 700 + 40 * seed, seed=seed)
        assert_binary_parity(graph, tmp_path)

    @pytest.mark.parametrize("seed", range(3))
    def test_plrg_files(self, seed, tmp_path):
        graph = plrg_graph_with_vertex_count(240, beta=2.2, seed=seed)
        assert_binary_parity(graph, tmp_path)

    def test_structured_graphs(self, tmp_path):
        assert_binary_parity(complete_graph(9), tmp_path)
        assert_binary_parity(star_graph(16), tmp_path)
        assert_binary_parity(empty_graph(11), tmp_path)
        assert_binary_parity(empty_graph(0), tmp_path)

    @pytest.mark.parametrize("block_size", [48, 4096, 64 * 1024])
    def test_block_sizes(self, block_size, tmp_path):
        graph = erdos_renyi_gnm(150, 450, seed=1)
        assert_binary_parity(graph, tmp_path, block_size=block_size)


class TestScanParity:
    def test_streaming_scan_records_and_charges(self, tmp_path):
        graph = erdos_renyi_gnm(200, 650, seed=5)
        reader, memmap = _open_pair(*_write_pair(graph, tmp_path))
        assert list(reader.scan()) == list(memmap.scan())
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        # A second scan hits the degree cache on both sides identically.
        assert list(reader.scan()) == list(memmap.scan())
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        assert reader.scan_order() == memmap.scan_order()
        reader.close()
        memmap.close()

    @pytest.mark.parametrize("batch_bytes", [None, 64, 777])
    def test_batched_scan_records_and_charges(self, batch_bytes, tmp_path):
        graph = erdos_renyi_gnm(200, 650, seed=6)
        text_path, binary_path = _write_pair(graph, tmp_path)
        reader, memmap = _open_pair(text_path, binary_path)
        records = []
        for vertices, offsets, targets in reader.scan_batches(batch_bytes):
            for i, vertex in enumerate(vertices.tolist()):
                records.append(
                    (vertex, tuple(targets[offsets[i] : offsets[i + 1]].tolist()))
                )
        assert records == list(_open_pair(text_path, binary_path)[1].scan())
        # The record-major kernels read the memmap's sections and charge
        # the scan they stand for: identical totals to the text reader's
        # batched reads, on the first pass (record-boundary discovery)
        # and on the second (cached degree plan) alike.
        memmap.charge_scan(batch_bytes)
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        for _ in reader.scan_batches(batch_bytes):
            pass
        memmap.charge_scan(batch_bytes)
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        reader.close()
        memmap.close()

    def test_cold_random_lookup_charges_discovery_scan(self, tmp_path):
        graph = erdos_renyi_gnm(120, 380, seed=7)
        reader, memmap = _open_pair(*_write_pair(graph, tmp_path))
        assert reader.neighbors(11) == memmap.neighbors(11)
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        assert reader.neighbors(42) == memmap.neighbors(42)
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        assert memmap.stats.random_vertex_lookups == 2
        reader.close()
        memmap.close()

    def test_mid_scan_lookup_preserves_scan_accounting(self, tmp_path):
        graph = erdos_renyi_gnm(120, 380, seed=8)
        reader, memmap = _open_pair(*_write_pair(graph, tmp_path))
        text_iter, binary_iter = reader.scan(), memmap.scan()
        for _ in range(7):
            assert next(text_iter) == next(binary_iter)
        assert reader.neighbors(3) == memmap.neighbors(3)
        assert list(text_iter) == list(binary_iter)
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        reader.close()
        memmap.close()

    def test_degree_and_to_graph(self, tmp_path):
        graph = erdos_renyi_gnm(90, 260, seed=9)
        reader, memmap = _open_pair(*_write_pair(graph, tmp_path))
        text_graph = reader.to_graph()
        binary_graph = memmap.to_graph()
        assert text_graph.num_vertices == binary_graph.num_vertices
        assert text_graph.num_edges == binary_graph.num_edges
        for vertex in range(text_graph.num_vertices):
            assert text_graph.neighbors(vertex) == binary_graph.neighbors(vertex)
        assert reader.degree(5) == memmap.degree(5)
        assert reader.stats.as_dict() == memmap.stats.as_dict()
        reader.close()
        memmap.close()

    def test_unknown_vertex_raises(self, tmp_path):
        graph = erdos_renyi_gnm(40, 100, seed=10)
        _, binary_path = _write_pair(graph, tmp_path)
        with MemmapAdjacencySource(binary_path) as memmap:
            with pytest.raises(StorageError):
                memmap.neighbors(40)
            with pytest.raises(StorageError):
                memmap.neighbors(-1)

    def test_closed_source_raises(self, tmp_path):
        graph = erdos_renyi_gnm(30, 60, seed=11)
        _, binary_path = _write_pair(graph, tmp_path)
        memmap = MemmapAdjacencySource(binary_path)
        memmap.close()
        with pytest.raises(StorageError):
            list(memmap.scan())
        with pytest.raises(StorageError):
            memmap.neighbors(0)


class TestIntegrity:
    def _artifact(self, tmp_path, seed=0):
        graph = erdos_renyi_gnm(80, 240, seed=seed)
        return _write_pair(graph, tmp_path)[1]

    def test_header_round_trip(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        header = read_binary_header(binary_path)
        assert header.num_vertices == 80
        assert header.num_edges == 240
        assert os.path.getsize(binary_path) == binary_file_size(80, 240)

    def test_truncated_file_raises(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        size = os.path.getsize(binary_path)
        with open(binary_path, "r+b") as handle:
            handle.truncate(size - 5)
        with pytest.raises(BinaryCorruptError):
            MemmapAdjacencySource(binary_path)

    def test_truncated_header_raises(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        with open(binary_path, "r+b") as handle:
            handle.truncate(BINARY_HEADER_SIZE - 10)
        with pytest.raises(BinaryCorruptError):
            read_binary_header(binary_path)

    def test_flipped_section_byte_fails_verify(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        with open(binary_path, "r+b") as handle:
            handle.seek(BINARY_HEADER_SIZE + 3)
            byte = handle.read(1)
            handle.seek(BINARY_HEADER_SIZE + 3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # The default open trusts the header; verify=True catches the rot.
        MemmapAdjacencySource(binary_path).close()
        with pytest.raises(BinaryCorruptError):
            MemmapAdjacencySource(binary_path, verify=True)
        source = MemmapAdjacencySource(binary_path)
        with pytest.raises(BinaryCorruptError):
            source.verify()
        source.close()

    def test_damaged_header_checksum_raises(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        with open(binary_path, "r+b") as handle:
            handle.seek(16)  # inside the num_vertices field
            handle.write(b"\xff")
        with pytest.raises(BinaryCorruptError):
            read_binary_header(binary_path)

    def test_version_mismatch_raises_typed_error(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        header = read_binary_header(binary_path)
        prefix = _HEADER_PREFIX.pack(
            BINARY_MAGIC,
            99,
            0,
            header.num_vertices,
            header.num_edges,
            bytes.fromhex(header.digest),
        )
        crc = zlib.crc32(prefix) & 0xFFFFFFFF
        with open(binary_path, "r+b") as handle:
            handle.write(prefix + struct.pack("<I", crc))
        with pytest.raises(BinaryVersionError) as excinfo:
            read_binary_header(binary_path)
        assert excinfo.value.found == 99
        assert excinfo.value.supported == 1

    def test_foreign_magic_raises(self, tmp_path):
        binary_path = self._artifact(tmp_path)
        with open(binary_path, "r+b") as handle:
            handle.write(b"NOTACSR!")
        with pytest.raises(BinaryFormatError):
            read_binary_header(binary_path)

    def test_missing_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            read_binary_header(os.path.join(str(tmp_path), "absent.csr"))

    def test_writer_validation(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.csr")
        with pytest.raises(BinaryFormatError):
            write_binary_csr(path, [0, 1], [0, 1], [1])  # odd target count
        with pytest.raises(BinaryFormatError):
            write_binary_csr(path, [0, 1], [0, 1, 1, 1], [1, 0])  # bad indptr len
        with pytest.raises(BinaryFormatError):
            write_binary_csr(path, [0, 0], [0, 1, 2], [1, 0])  # not a permutation
        with pytest.raises(BinaryFormatError):
            write_binary_csr(path, [0, 1], [0, 1, 2], [1, 7])  # id out of range
        with pytest.raises(BinaryFormatError):
            write_binary_csr(path, [0, 1], [0, 2, 2], [1, 0], num_edges=9)
        assert not os.path.exists(path)


class TestIdentity:
    def test_digest_stable_across_reconversion(self, tmp_path):
        graph = erdos_renyi_gnm(70, 210, seed=3)
        text_path, binary_path = _write_pair(graph, tmp_path, name="a")
        first = read_binary_header(binary_path).digest
        adjacency_to_binary(text_path, binary_path)
        assert read_binary_header(binary_path).digest == first

    def test_digest_differs_between_graphs(self, tmp_path):
        _, path_a = _write_pair(erdos_renyi_gnm(70, 210, seed=3), tmp_path, "a")
        _, path_b = _write_pair(erdos_renyi_gnm(70, 210, seed=4), tmp_path, "b")
        assert read_binary_header(path_a).digest != read_binary_header(path_b).digest

    def test_binary_to_adjacency_is_the_inverse(self, tmp_path):
        graph = plrg_graph_with_vertex_count(130, beta=2.3, seed=2)
        text_path, binary_path = _write_pair(graph, tmp_path)
        restored_path = os.path.join(str(tmp_path), "restored.adj")
        binary_to_adjacency(binary_path, restored_path)
        with open(text_path, "rb") as original, open(restored_path, "rb") as restored:
            assert original.read() == restored.read()

    def test_registry_dispatches_both_formats(self, tmp_path):
        graph = erdos_renyi_gnm(50, 140, seed=5)
        text_path, binary_path = _write_pair(graph, tmp_path)
        text_source = open_adjacency_source(text_path)
        binary_source = open_adjacency_source(binary_path)
        assert isinstance(text_source, AdjacencyFileReader)
        assert isinstance(binary_source, MemmapAdjacencySource)
        text_source.close()
        binary_source.close()

    def test_registry_rejects_unknown_magic(self, tmp_path):
        path = os.path.join(str(tmp_path), "junk.bin")
        with open(path, "wb") as handle:
            handle.write(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(FormatError):
            open_adjacency_source(path)

    def test_as_scan_source_accepts_paths(self, tmp_path):
        graph = erdos_renyi_gnm(50, 140, seed=6)
        text_path, binary_path = _write_pair(graph, tmp_path)
        for path, expected in (
            (text_path, AdjacencyFileReader),
            (binary_path, MemmapAdjacencySource),
        ):
            source = as_scan_source(path)
            assert isinstance(source, expected)
            assert source.num_vertices == graph.num_vertices
            source.close()

    def test_vectorized_writer_matches_scalar_writer(self, tmp_path):
        import repro.storage.adjacency_file as adjacency_file

        for name, graph, sort in (
            ("gnm", erdos_renyi_gnm(150, 500, seed=12), True),
            ("nosort", erdos_renyi_gnm(150, 500, seed=13), False),
            ("isolated", empty_graph(7), True),
            ("empty", empty_graph(0), True),
        ):
            fast_path = os.path.join(str(tmp_path), f"{name}.fast")
            slow_path = os.path.join(str(tmp_path), f"{name}.slow")
            order = graph.degree_ascending_order()
            write_adjacency_file(
                graph, fast_path, order=order, sort_neighbors_by_degree=sort
            ).close()
            original = adjacency_file._write_records_vectorized
            adjacency_file._write_records_vectorized = lambda *a, **k: False
            try:
                write_adjacency_file(
                    graph, slow_path, order=order, sort_neighbors_by_degree=sort
                ).close()
            finally:
                adjacency_file._write_records_vectorized = original
            with open(fast_path, "rb") as fast, open(slow_path, "rb") as slow:
                assert fast.read() == slow.read(), name
