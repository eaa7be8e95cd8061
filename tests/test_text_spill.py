"""Text inputs on the numpy backend: the private ``SEXTCSR1`` spill.

A text adjacency reader hands the numpy kernels the sections of a private
``SEXTCSR1`` memmap it spills to once.  Pinned here:

* the streaming converter (``adjacency_to_binary``, which the spill
  shares) writes byte-identical artifacts to ``write_binary_csr`` over
  the gathered arrays, holds O(n) memory plus one batch, and makes its
  rename durable;
* the spill happens once per reader, charges nothing to ``IOStats``,
  leaves the reader's read cursor alone, and leaves no file behind;
* records with out-of-range ids raise ``FormatError`` on every backend.
"""

from __future__ import annotations

import os
import tempfile
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

import repro.storage.binary_format as binary_format
import repro.storage.blocks as blocks
import repro.storage.converters as converters
from repro.core import greedy_mis, one_k_swap, solve_mis, two_k_swap
from repro.errors import FormatError
from repro.graphs.generators import empty_graph, erdos_renyi_gnm
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage import format as fmt
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.binary_format import read_binary_header, write_binary_csr
from repro.storage.blocks import DEFAULT_BATCH_BLOCKS, DEFAULT_BLOCK_SIZE
from repro.storage.converters import adjacency_to_binary
from repro.storage.io_stats import IOStats


def _text_file(graph, tmp_path, name="g", order=None):
    path = str(tmp_path / f"{name}.adj")
    write_adjacency_file(graph, path, order=order).close()
    return path


def _gathered_arrays(path):
    """``(order, indptr, indices)`` of a text file, read record by record."""

    reader = AdjacencyFileReader(path)
    order, indptr, indices = [], [0], []
    for vertex, neighbors in reader.scan():
        order.append(vertex)
        indices.extend(neighbors)
        indptr.append(len(indices))
    reader.close()
    return order, indptr, indices


class TestStreamingConverter:
    @pytest.mark.parametrize(
        "name, graph, id_order",
        [
            ("gnm", erdos_renyi_gnm(3000, 12000, seed=1), False),
            ("gnm-id", erdos_renyi_gnm(3000, 12000, seed=2), True),
            ("plrg", plrg_graph_with_vertex_count(3000, 2.1, seed=1), False),
            ("plrg-id", plrg_graph_with_vertex_count(3000, 2.1, seed=2), True),
            ("isolated", empty_graph(9), False),
            ("empty", empty_graph(0), False),
        ],
    )
    def test_matches_write_binary_csr_byte_for_byte(
        self, name, graph, id_order, tmp_path
    ):
        order = list(range(graph.num_vertices)) if id_order else None
        text = _text_file(graph, tmp_path, name, order=order)
        streamed = str(tmp_path / f"{name}.stream.csr")
        gathered = str(tmp_path / f"{name}.gather.csr")
        header = adjacency_to_binary(text, streamed)
        expected = write_binary_csr(gathered, *_gathered_arrays(text))
        assert header == expected
        assert read_binary_header(streamed).digest == expected.digest
        with open(streamed, "rb") as a, open(gathered, "rb") as b:
            assert a.read() == b.read()

    def test_memory_is_vertices_plus_one_batch(self, tmp_path):
        # A concatenating converter holds every target (as int64, then as
        # uint32) and exceeds this bound several times over; the streaming
        # one keeps O(n) per-vertex arrays plus the arrays of one batch.
        n = 200_000
        text = _text_file(erdos_renyi_gnm(n, 4 * n, seed=3), tmp_path)
        batch_bytes = DEFAULT_BLOCK_SIZE * DEFAULT_BATCH_BLOCKS
        tracemalloc.start()
        try:
            adjacency_to_binary(text, str(tmp_path / "g.csr"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * n + 16 * batch_bytes, peak

    def test_rename_fsyncs_the_directory(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(
            binary_format, "fsync_directory", lambda path: synced.append(path)
        )
        path = str(tmp_path / "a.csr")
        write_binary_csr(path, [0, 1], [0, 1, 2], [1, 0])
        assert synced == [path]
        text = _text_file(erdos_renyi_gnm(30, 60, seed=4), tmp_path)
        converted = str(tmp_path / "b.csr")
        adjacency_to_binary(text, converted)
        assert synced == [path, converted]

    def test_directory_fsync_opens_the_parent(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open
        monkeypatch.setattr(
            blocks.os,
            "open",
            lambda path, flags: opened.append(path) or real_open(path, flags),
        )
        write_binary_csr(str(tmp_path / "a.csr"), [0, 1], [0, 1, 2], [1, 0])
        assert opened == [str(tmp_path)]


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """A fresh, empty directory as :mod:`tempfile`'s directory."""

    directory = tmp_path / "tmpdir"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


@pytest.fixture
def spill_calls(monkeypatch):
    calls = []
    real = converters.spill_to_memmap

    def counting(device):
        calls.append(device)
        return real(device)

    monkeypatch.setattr(converters, "spill_to_memmap", counting)
    return calls


class TestSpill:
    def test_greedy_then_one_k_spills_once(self, tmp_path, spill_calls):
        reader = AdjacencyFileReader(
            _text_file(erdos_renyi_gnm(400, 1200, seed=5), tmp_path)
        )
        greedy = greedy_mis(reader, backend="numpy")
        one_k_swap(reader, initial=greedy, max_rounds=4, backend="numpy")
        # ``initial=None`` runs the greedy inside the one-k pass.
        one_k_swap(reader, max_rounds=4, backend="numpy")
        assert len(spill_calls) == 1
        reader.close()

    def test_python_backend_never_spills(self, tmp_path, spill_calls):
        reader = AdjacencyFileReader(
            _text_file(erdos_renyi_gnm(200, 600, seed=6), tmp_path)
        )
        two_k_swap(reader, max_rounds=3, backend="python")
        assert spill_calls == []
        reader.close()

    def test_spill_charges_nothing_and_keeps_the_cursor(self, tmp_path):
        reader = AdjacencyFileReader(
            _text_file(erdos_renyi_gnm(300, 900, seed=7), tmp_path),
            block_size=256,
            stats=IOStats(),
        )
        stats = reader.stats.as_dict()
        cursor = reader._device.sequential_cursor()
        order, indptr, indices = reader.csr_views()
        assert reader.stats.as_dict() == stats
        assert reader._device.sequential_cursor() == cursor
        assert [int(v) for v in order] == reader.scan_order()
        reader.close()

    def test_tmpdir_empty_after_a_solve(self, tmp_path, spill_dir):
        text = _text_file(plrg_graph_with_vertex_count(500, 2.1, seed=8), tmp_path)
        reader = AdjacencyFileReader(text)
        reader.csr_views()
        if os.path.exists("/proc/self/maps"):
            # The spill is mapped from this directory, never linked in it.
            with open("/proc/self/maps") as maps:
                mapped = [line for line in maps if str(spill_dir) in line]
            assert mapped and all("(deleted)" in line for line in mapped)
        assert os.listdir(spill_dir) == []
        reader.close()
        solve_mis(text, pipeline="two_k_swap", max_rounds=3, backend="numpy")
        assert os.listdir(spill_dir) == []

    def test_tmpdir_empty_after_an_exception_mid_run(self, tmp_path, spill_dir):
        reader = AdjacencyFileReader(
            _text_file(erdos_renyi_gnm(400, 1200, seed=9), tmp_path)
        )

        def crash(snapshot):
            raise RuntimeError("killed mid-run")

        with pytest.raises(RuntimeError):
            one_k_swap(reader, backend="numpy", on_round=crash)
        assert os.listdir(spill_dir) == []
        reader.close()
        assert os.listdir(spill_dir) == []


def _bad_file(tmp_path, bad):
    """A 3-vertex text file whose last record holds an id >= 3."""

    vertex, neighbors = (7, []) if bad == "vertex" else (2, [7])
    path = str(tmp_path / f"bad_{bad}.adj")
    with open(path, "wb") as handle:
        handle.write(fmt.pack_header(3, 1))
        handle.write(fmt.pack_record(0, [1]))
        handle.write(fmt.pack_record(1, [0]))
        handle.write(fmt.pack_record(vertex, neighbors))
    return path


@pytest.mark.parametrize("bad", ["vertex", "neighbour"])
class TestOutOfRangeIds:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("algorithm", [greedy_mis, one_k_swap, two_k_swap])
    def test_solvers_raise_format_error(self, bad, backend, algorithm, tmp_path):
        reader = AdjacencyFileReader(_bad_file(tmp_path, bad))
        with pytest.raises(FormatError, match="7"):
            algorithm(reader, backend=backend)
        reader.close()

    def test_convert_raises_format_error(self, bad, tmp_path):
        output = str(tmp_path / "bad.csr")
        with pytest.raises(FormatError, match="7"):
            adjacency_to_binary(_bad_file(tmp_path, bad), output)
        assert not os.path.exists(output)
        assert os.listdir(tmp_path) == [f"bad_{bad}.adj"]
