"""Unit tests for Algorithms 3 & 4, the two-k-swap pass."""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.two_k import two_k_swap
from repro.errors import SolverError
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_gnm,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.validation.checks import is_independent_set, is_maximal_independent_set


def figure7_graph() -> Graph:
    """The 2-k-swap example of Figure 7.

    Vertices 1 and 2 (v2 and v3 in the paper) form the IS pair that can be
    exchanged against four vertices {v4, v5, v6, v8}; vertex 6 (v7)
    conflicts and stays out; vertex 0 (v1) is an independent pendant.
    """

    # v1=0, v2=1, v3=2, v4=3, v5=4, v6=5, v7=6, v8=7
    # v4, v5, v6, v8 are each adjacent to both v2 and v3; v7 is adjacent to
    # v5 and v6; v1 is adjacent to v2 (degree 1).
    return Graph(
        8,
        [
            (0, 1),
            (3, 1), (3, 2),
            (4, 1), (4, 2),
            (5, 1), (5, 2),
            (7, 1), (7, 2),
            (6, 4), (6, 5),
        ],
    )


class TestTwoKSwapBasics:
    def test_two_two_swap_on_bipartite_pair(self):
        # IS = the 2-side of K_{2,3}: a 2-3 swap replaces it by the 3-side.
        graph = complete_bipartite_graph(2, 3)
        result = two_k_swap(graph, initial={0, 1})
        assert result.size == 3
        assert result.independent_set == frozenset({2, 3, 4})

    def test_figure7_example_reaches_size_five(self):
        graph = figure7_graph()
        result = two_k_swap(graph, initial={0, 1, 2}, order="id")
        # Paper's Example 3: the larger IS is {v1, v4, v5, v6, v8}.
        assert result.size == 5
        assert result.independent_set == frozenset({0, 3, 4, 5, 7})

    def test_never_decreases_the_initial_size(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(120, 360, seed=seed)
            start = greedy_mis(graph)
            result = two_k_swap(graph, initial=start)
            assert result.size >= start.size

    def test_output_is_maximal_independent(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(150, 500, seed=seed)
            result = two_k_swap(graph)
            assert is_independent_set(graph, result.independent_set)
            assert is_maximal_independent_set(graph, result.independent_set)

    def test_at_least_as_large_as_one_k_swap_on_power_law_graphs(self):
        for seed in range(3):
            graph = plrg_graph_with_vertex_count(1_200, 2.0, seed=seed)
            one_k = one_k_swap(graph)
            two_k = two_k_swap(graph)
            assert two_k.size >= one_k.size

    def test_trivial_graphs(self):
        assert two_k_swap(empty_graph(3)).size == 3
        assert two_k_swap(complete_graph(4)).size == 1
        assert two_k_swap(star_graph(6)).size == 6
        assert two_k_swap(path_graph(9)).size == 5
        assert two_k_swap(cycle_graph(8)).size == 4

    def test_invalid_initial_vertex_rejected(self):
        with pytest.raises(SolverError):
            two_k_swap(path_graph(3), initial={9})

    def test_known_optimum_graphs_never_exceed_optimum(self, known_optimum_graph):
        graph, optimum = known_optimum_graph
        result = two_k_swap(graph)
        assert result.size <= optimum
        assert is_maximal_independent_set(graph, result.independent_set)


class TestTwoKSwapTelemetry:
    def test_round_stats_are_consistent(self):
        graph = erdos_renyi_gnm(200, 700, seed=21)
        result = two_k_swap(graph)
        assert result.num_rounds >= 1
        assert sum(r.gained for r in result.rounds) == result.size - result.initial_size
        assert result.rounds[-1].is_size_after == result.size

    def test_sc_telemetry_reported(self):
        graph = figure7_graph()
        result = two_k_swap(graph, initial={0, 1, 2}, order="id")
        assert result.extras["max_sc_vertices"] >= 2
        assert result.rounds[0].two_k_swaps >= 1

    def test_sc_size_stays_below_vertex_count(self):
        graph = plrg_graph_with_vertex_count(1_500, 2.0, seed=4)
        result = two_k_swap(graph)
        assert result.extras["max_sc_vertices"] <= graph.num_vertices

    def test_memory_model_includes_sc(self):
        graph = erdos_renyi_gnm(100, 250, seed=22)
        result = two_k_swap(graph)
        # State + two ISN words + SC entries, and the labelled start
        # (state + two ISN words) the round snapshots are overlays on.
        expected = 100 * (1 + 8) * 2 + int(result.extras["max_sc_vertices"]) * 4
        assert result.memory_bytes == expected

    def test_max_rounds_limits_rounds(self):
        graph = erdos_renyi_gnm(300, 1_200, seed=23)
        limited = two_k_swap(graph, max_rounds=1)
        assert limited.num_rounds <= 1
        assert is_independent_set(graph, limited.independent_set)

    def test_runs_from_file_reader(self):
        graph = erdos_renyi_gnm(150, 500, seed=24)
        reader = AdjacencyFileReader(write_adjacency_file(graph))
        result = two_k_swap(reader)
        assert is_maximal_independent_set(graph, result.independent_set)
        assert result.io.sequential_scans >= 3

    def test_random_lookups_only_for_skeleton_verification(self):
        # The safety re-verification may need a handful of random lookups,
        # but never anywhere near one per vertex.
        graph = plrg_graph_with_vertex_count(1_500, 2.0, seed=5)
        result = two_k_swap(graph)
        assert result.io.random_vertex_lookups <= graph.num_vertices // 10
