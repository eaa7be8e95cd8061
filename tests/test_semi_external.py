"""The semi-external file path and its parity guarantees.

Three claim groups are pinned here:

* the batched reader (``scan_batches``, which the converters read text
  files through) yields exactly the records the streaming ``scan``
  yields, with identical ``IOStats`` charges, for any block size / batch
  size / record order — including records straddling batch boundaries
  and the degree-run fast path vs. the scalar fallback;
* the numpy backend running over a text file (through its private
  ``SEXTCSR1`` spill) returns bit-identical independent sets, round
  telemetry *and I/O counters* to the python reference streaming the
  same file;
* the vectorized two-k membership join matches the reference's
  dict-of-lists construction, and the oscillation guard stops
  ``max_rounds=None`` swap loops identically under both backends.
"""

from __future__ import annotations

import itertools
import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy_mis, one_k_swap, solve_mis, two_k_swap
from repro.core.kernels.numpy_backend import _TwoKRound, _ADJ
from repro.core.kernels.sc_store import SwapCandidateStore
from repro.graphs.generators import (
    complete_graph,
    empty_graph,
    erdos_renyi_gnm,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.io_stats import IOStats


def _fresh_reader(graph, block_size=4096, order=None):
    device = write_adjacency_file(
        graph, block_size=block_size, stats=IOStats(), order=order
    )
    return AdjacencyFileReader(device, stats=IOStats())


def _batched_records(reader, max_batch_bytes=None):
    records = []
    for vertices, offsets, targets in reader.scan_batches(max_batch_bytes):
        for i, vertex in enumerate(vertices.tolist()):
            records.append((vertex, tuple(targets[offsets[i] : offsets[i + 1]].tolist())))
    return records


class TestBatchedReader:
    @pytest.mark.parametrize("block_size", [32, 64, 4096, 64 * 1024])
    @pytest.mark.parametrize("batch_bytes", [None, 40, 333])
    def test_batches_reproduce_streaming_records(self, block_size, batch_bytes):
        graph = erdos_renyi_gnm(80, 220, seed=3)
        streaming = list(_fresh_reader(graph, block_size).scan())
        batched = _batched_records(_fresh_reader(graph, block_size), batch_bytes)
        assert batched == streaming

    @pytest.mark.parametrize("order_kind", ["degree", "id"])
    @pytest.mark.parametrize("block_size", [48, 64 * 1024])
    def test_io_charges_match_streaming_scan(self, order_kind, block_size):
        graph = plrg_graph_with_vertex_count(400, 2.1, seed=1)
        order = None if order_kind == "degree" else list(range(graph.num_vertices))
        streaming_reader = _fresh_reader(graph, block_size, order=order)
        for _ in streaming_reader.scan():
            pass
        batched_reader = _fresh_reader(graph, block_size, order=order)
        for _ in batched_reader.scan_batches():
            pass
        assert streaming_reader.stats.as_dict() == batched_reader.stats.as_dict()

    def test_second_pass_stays_identical(self):
        graph = erdos_renyi_gnm(60, 150, seed=5)
        reader = _fresh_reader(graph, block_size=64)
        first = _batched_records(reader)
        second = _batched_records(reader)
        assert first == second
        assert reader.stats.sequential_scans == 2
        # Both passes read the same bytes.
        assert reader.stats.bytes_read % 2 == 0

    def test_streaming_scan_primes_the_batched_path(self):
        graph = erdos_renyi_gnm(40, 90, seed=8)
        reader = _fresh_reader(graph)
        streaming = list(reader.scan())
        assert _batched_records(reader) == streaming

    def test_first_lookup_mid_scan_leaves_scan_accounting_intact(self):
        # A first-ever lookup on an unindexed reader runs the
        # index-building scan inside the probe buffer: the interrupted
        # outer scan must resume sequentially, with no extra seek or
        # block re-charge beyond the lookup's own reads.
        graph = erdos_renyi_gnm(50, 120, seed=12)
        baseline = _fresh_reader(graph)
        records = list(baseline.scan())
        # Baseline stats include the 32-byte header read of the
        # constructor; the scan body itself is the remainder.
        scan_bytes = baseline.stats.bytes_read - 32

        reader = _fresh_reader(graph)
        iterator = reader.scan()
        for _ in range(3):
            next(iterator)
        vertex, neighbors = records[0]
        assert reader.neighbors(vertex) == neighbors
        for _ in iterator:
            pass
        # One outer scan + one index-building scan; one seek starting the
        # index scan mid-stream + one for the probe read; the outer scan
        # resumes without a third.
        assert reader.stats.sequential_scans == 2
        assert reader.stats.random_seeks == 2
        lookup_bytes = 8 + 4 * len(neighbors)
        assert reader.stats.bytes_read == 32 + 2 * scan_bytes + lookup_bytes

    def test_empty_graph_and_isolated_vertices(self):
        for graph in (empty_graph(0), empty_graph(5), star_graph(4)):
            reader = _fresh_reader(graph, block_size=32)
            assert _batched_records(reader) == list(_fresh_reader(graph, 32).scan())
            assert reader.stats.sequential_scans == 1

    def test_record_larger_than_batch_size(self):
        graph = star_graph(50)  # centre record spans many tiny batches
        reader = _fresh_reader(graph, block_size=32)
        assert _batched_records(reader, max_batch_bytes=40) == list(
            _fresh_reader(graph, 32).scan()
        )


def _solve_file(graph, algorithm, backend, block_size=4096, order=None, **kwargs):
    reader = _fresh_reader(graph, block_size=block_size, order=order)
    result = algorithm(reader, backend=backend, **kwargs)
    reader.close()
    return result


def assert_semi_external_parity(graph, block_size=4096, order=None, max_rounds=8):
    """Both backends over the same file: same sets, telemetry and IOStats."""

    for algorithm, kwargs in (
        (greedy_mis, {}),
        (one_k_swap, {"max_rounds": max_rounds}),
        (two_k_swap, {"max_rounds": max_rounds}),
    ):
        python_result = _solve_file(
            graph, algorithm, "python", block_size, order, **kwargs
        )
        numpy_result = _solve_file(
            graph, algorithm, "numpy", block_size, order, **kwargs
        )
        name = algorithm.__name__
        assert python_result.independent_set == numpy_result.independent_set, name
        assert python_result.rounds == numpy_result.rounds, name
        assert python_result.extras == numpy_result.extras, name
        assert python_result.io == numpy_result.io, (
            name,
            python_result.io.as_dict(),
            numpy_result.io.as_dict(),
        )


class TestSemiExternalParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_gnm_files(self, seed):
        n = 30 + (seed * 17) % 80
        m = (seed * 23) % (3 * n)
        graph = erdos_renyi_gnm(n, min(m, n * (n - 1) // 2), seed=seed)
        block_size = (32, 128, 64 * 1024)[seed % 3]
        assert_semi_external_parity(graph, block_size=block_size)

    @pytest.mark.parametrize("seed", range(6))
    def test_plrg_files(self, seed):
        graph = plrg_graph_with_vertex_count(150 + 20 * seed, 1.9 + 0.1 * seed, seed=seed)
        assert_semi_external_parity(graph, block_size=64 if seed % 2 else 4096)

    @pytest.mark.parametrize("seed", range(4))
    def test_id_order_files_use_scalar_fallback(self, seed):
        graph = erdos_renyi_gnm(90, 260, seed=seed)
        assert_semi_external_parity(
            graph, block_size=96, order=list(range(graph.num_vertices))
        )

    def test_structured_graphs(self):
        for graph in (star_graph(9), complete_graph(8), empty_graph(6), empty_graph(0)):
            assert_semi_external_parity(graph, block_size=32)

    def test_two_k_lookup_io_parity(self):
        # A graph where two-k re-verification lookups actually fire, so the
        # probe-buffer accounting is exercised on both backends.
        for seed in range(8):
            graph = erdos_renyi_gnm(70, 130, seed=seed)
            python_result = _solve_file(graph, two_k_swap, "python", max_rounds=8)
            if python_result.io.random_vertex_lookups:
                numpy_result = _solve_file(graph, two_k_swap, "numpy", max_rounds=8)
                assert python_result.io == numpy_result.io
                break

    def test_file_results_match_in_memory_same_order(self):
        graph = plrg_graph_with_vertex_count(250, 2.1, seed=3)
        reader = _fresh_reader(graph)
        file_result = two_k_swap(reader, backend="numpy", max_rounds=5)
        in_memory = two_k_swap(
            graph, order=reader.scan_order(), backend="numpy", max_rounds=5
        )
        assert file_result.independent_set == in_memory.independent_set
        assert file_result.rounds == in_memory.rounds
        reader.close()

    def test_solver_pipelines_on_files(self):
        graph = plrg_graph_with_vertex_count(180, 2.2, seed=6)
        for pipeline in ("greedy", "one_k_swap", "two_k_swap"):
            python_result = solve_mis(
                _fresh_reader(graph), pipeline=pipeline, backend="python", max_rounds=6
            )
            numpy_result = solve_mis(
                _fresh_reader(graph), pipeline=pipeline, backend="numpy", max_rounds=6
            )
            assert python_result.independent_set == numpy_result.independent_set
            assert python_result.io == numpy_result.io


def _reference_members(state, isn1, isn2, num_vertices):
    """The python backend's dict-of-lists membership build."""

    members = {w: [] for w in range(num_vertices)}
    for v in range(num_vertices):
        if state[v] != _ADJ:
            continue
        members[isn1[v]].append(v)
        if isn2[v] >= 0:
            members[isn2[v]].append(v)
    return members


class TestVectorizedMembershipJoin:
    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_join_matches_reference_dict_build(self, n, seed):
        rng = random.Random(seed)
        state = np.zeros(n, dtype=np.uint8)
        isn1 = np.full(n, -1, dtype=np.int64)
        isn2 = np.full(n, -1, dtype=np.int64)
        for v in range(n):
            if rng.random() < 0.5:
                state[v] = _ADJ
                anchors = rng.sample(range(n), k=min(n, rng.choice((1, 1, 2))))
                isn1[v] = min(anchors)
                if len(anchors) == 2 and anchors[0] != anchors[1]:
                    isn2[v] = max(anchors)
        ctx = _TwoKRound(
            n, state, isn1, isn2, SwapCandidateStore(), source=None, max_partner_checks=64
        )
        reference = _reference_members(state, isn1, isn2, n)
        for anchor in range(n):
            lo, hi = ctx.mem_starts[anchor], ctx.mem_starts[anchor + 1]
            assert ctx.mem_sorted[lo:hi].tolist() == reference[anchor]
        singles = [
            v for v in range(n) if state[v] == _ADJ and isn2[v] < 0 and isn1[v] >= 0
        ]
        expected = np.bincount([isn1[v] for v in singles], minlength=n)
        assert ctx.single_count.tolist() == expected.tolist()


def _oscillating_graph():
    """A G(24, 236) instance whose one-k-swap loop cycles forever unguarded."""

    pairs = list(itertools.combinations(range(24), 2))
    edges = random.Random(168).sample(pairs, 236)
    return Graph(24, edges)


class TestOscillationGuard:
    def test_unbounded_one_k_swap_terminates_with_flag(self):
        graph = _oscillating_graph()
        results = {}
        for backend in ("python", "numpy"):
            result = one_k_swap(
                graph, order="degree", max_rounds=None, backend=backend
            )
            assert result.extras.get("oscillation_guard") == 1.0
            results[backend] = result
        assert results["python"].independent_set == results["numpy"].independent_set
        assert results["python"].rounds == results["numpy"].rounds

    def test_guard_silent_on_terminating_runs(self):
        graph = erdos_renyi_gnm(120, 300, seed=4)
        for backend in ("python", "numpy"):
            one_k = one_k_swap(graph, max_rounds=None, backend=backend)
            assert "oscillation_guard" not in one_k.extras
        two_k = two_k_swap(plrg_graph_with_vertex_count(150, 2.1, seed=1), max_rounds=8)
        assert "oscillation_guard" not in two_k.extras

    def test_bounded_runs_never_engage_the_guard(self):
        graph = _oscillating_graph()
        for backend in ("python", "numpy"):
            result = one_k_swap(graph, order="degree", max_rounds=12, backend=backend)
            assert result.num_rounds == 12
            assert "oscillation_guard" not in result.extras
