"""Unit tests for Algorithm 2, the one-k-swap pass."""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.errors import SolverError
from repro.graphs.cascade import cascade_initial_independent_set, cascade_swap_graph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_gnm,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.validation.checks import is_independent_set, is_maximal_independent_set


def figure2_graph() -> Graph:
    """The swap-conflict example of Figure 2.

    Vertices 0 (v1) and 3 (v4) are in the initial IS; v1 can be exchanged
    with {v2, v3} and v4 with {v5, v6}, but v3 and v5 are adjacent, so the
    two swaps conflict and only one may be performed.
    """

    # v1=0, v2=1, v3=2, v4=3, v5=4, v6=5
    return Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (2, 4)])


class TestOneKSwapBasics:
    def test_improves_a_seeded_star_swap(self):
        # Initial set {centre}; the swap replaces it by all leaves.
        graph = star_graph(5)
        result = one_k_swap(graph, initial={0})
        assert result.size == 5
        assert 0 not in result.independent_set

    def test_never_decreases_the_initial_size(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(120, 360, seed=seed)
            start = greedy_mis(graph)
            result = one_k_swap(graph, initial=start)
            assert result.size >= start.size
            assert result.initial_size == start.size

    def test_output_is_maximal_independent(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(150, 500, seed=seed)
            result = one_k_swap(graph)
            assert is_independent_set(graph, result.independent_set)
            assert is_maximal_independent_set(graph, result.independent_set)

    def test_empty_and_trivial_graphs(self):
        assert one_k_swap(empty_graph(4)).size == 4
        assert one_k_swap(complete_graph(5)).size == 1
        assert one_k_swap(path_graph(2)).size == 1

    def test_default_initial_is_greedy(self):
        graph = erdos_renyi_gnm(100, 300, seed=3)
        explicit = one_k_swap(graph, initial=greedy_mis(graph))
        implicit = one_k_swap(graph)
        assert implicit.size == explicit.size

    def test_invalid_initial_vertex_rejected(self):
        with pytest.raises(SolverError):
            one_k_swap(path_graph(3), initial={7})

    def test_known_optimum_graphs_never_exceed_optimum(self, known_optimum_graph):
        graph, optimum = known_optimum_graph
        result = one_k_swap(graph)
        assert result.size <= optimum
        assert is_maximal_independent_set(graph, result.independent_set)


class TestSwapConflictResolution:
    def test_figure2_conflict_allows_exactly_one_swap(self):
        graph = figure2_graph()
        result = one_k_swap(graph, initial={0, 3}, order="id")
        # One of the two conflicting 1-2 swaps is performed; the final set
        # has 3 vertices (the paper's Example 1 ends with {v2, v3, v4}).
        assert result.size == 3
        assert is_independent_set(graph, result.independent_set)

    def test_figure2_without_conflict_edge_allows_both_swaps(self):
        # Removing the conflicting edge (v3, v5) lets both swaps happen.
        graph = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        result = one_k_swap(graph, initial={0, 3}, order="id")
        assert result.size == 4


class TestCascadeBehaviour:
    def test_cascade_graph_requires_one_round_per_triple(self):
        num_triples = 4
        graph = cascade_swap_graph(num_triples)
        initial = cascade_initial_independent_set(num_triples)
        result = one_k_swap(graph, initial=initial, order="id")
        assert result.size == 2 * num_triples
        # One 1-2 swap cascades per round (plus a final no-op round).
        assert result.num_rounds >= num_triples

    def test_max_rounds_early_stop(self):
        num_triples = 5
        graph = cascade_swap_graph(num_triples)
        initial = cascade_initial_independent_set(num_triples)
        limited = one_k_swap(graph, initial=initial, order="id", max_rounds=1)
        full = one_k_swap(graph, initial=initial, order="id")
        assert limited.num_rounds == 1
        assert limited.size < full.size
        assert is_independent_set(graph, limited.independent_set)


class TestOneKSwapTelemetry:
    def test_round_stats_are_consistent(self):
        graph = erdos_renyi_gnm(200, 700, seed=9)
        result = one_k_swap(graph)
        assert result.num_rounds >= 1
        total_gain = sum(r.gained for r in result.rounds)
        assert total_gain == result.size - result.initial_size
        assert result.rounds[-1].is_size_after == result.size

    def test_round_indices_are_sequential(self):
        graph = erdos_renyi_gnm(200, 700, seed=10)
        result = one_k_swap(graph)
        assert [r.round_index for r in result.rounds] == list(range(1, result.num_rounds + 1))

    def test_no_random_lookups_needed(self):
        graph = erdos_renyi_gnm(200, 700, seed=11)
        result = one_k_swap(graph)
        assert result.io.random_vertex_lookups == 0

    def test_memory_model_is_two_words_per_vertex_plus_labelled_start(self):
        graph = erdos_renyi_gnm(100, 200, seed=12)
        result = one_k_swap(graph)
        # The paper's state byte + ISN word, and the labelled start the
        # round snapshots are overlays on (the same again).
        assert result.memory_bytes == graph.num_vertices * 5 * 2

    def test_runs_from_file_reader(self):
        graph = erdos_renyi_gnm(150, 500, seed=13)
        reader = AdjacencyFileReader(write_adjacency_file(graph))
        result = one_k_swap(reader)
        assert is_maximal_independent_set(graph, result.independent_set)
        assert result.io.sequential_scans >= 3
