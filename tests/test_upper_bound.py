"""Unit tests for Algorithm 5, the independence-number upper bound."""

from __future__ import annotations

import pytest

from repro.analysis.ratios import approximation_ratio, ratio_table
from repro.analysis.upper_bound import independence_upper_bound
from repro.baselines.exact import independence_number
from repro.core.greedy import greedy_mis
from repro.core.two_k import two_k_swap
from repro.errors import AnalysisError
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_gnm,
    path_graph,
    star_graph,
)
from repro.graphs.plrg import plrg_graph_with_vertex_count


class TestUpperBound:
    def test_bound_is_exact_on_stars(self):
        assert independence_upper_bound(star_graph(7)) == 7

    def test_bound_on_empty_graph_is_vertex_count(self):
        assert independence_upper_bound(empty_graph(9)) == 9

    def test_bound_is_at_least_the_exact_optimum(self, known_optimum_graph):
        graph, optimum = known_optimum_graph
        assert independence_upper_bound(graph) >= optimum

    def test_bound_dominates_exact_on_random_graphs(self, small_random_graph):
        assert independence_upper_bound(small_random_graph) >= independence_number(
            small_random_graph
        )

    def test_bound_dominates_heuristics_on_larger_graphs(self):
        for seed in range(3):
            graph = erdos_renyi_gnm(400, 1_400, seed=seed)
            bound = independence_upper_bound(graph)
            assert bound >= two_k_swap(graph).size

    def test_bound_never_exceeds_vertex_count(self):
        graph = plrg_graph_with_vertex_count(2_000, 2.1, seed=1)
        assert independence_upper_bound(graph) <= graph.num_vertices

    def test_bound_is_tight_on_power_law_graphs(self):
        # The Table 2 / Figure 8 setting: the greedy size should already be
        # within a few percent of the bound on PLRG graphs.
        graph = plrg_graph_with_vertex_count(3_000, 2.1, seed=2)
        bound = independence_upper_bound(graph)
        greedy = greedy_mis(graph)
        assert greedy.size / bound > 0.9

    def test_order_changes_bound_but_not_validity(self, small_random_graph):
        optimum = independence_number(small_random_graph)
        assert independence_upper_bound(small_random_graph, order="degree") >= optimum
        assert independence_upper_bound(small_random_graph, order="id") >= optimum


class TestRatioHelpers:
    def test_ratio_with_explicit_bound(self):
        assert approximation_ratio(50, upper_bound=100) == pytest.approx(0.5)

    def test_ratio_from_graph(self):
        graph = complete_bipartite_graph(3, 5)
        result = greedy_mis(graph)
        ratio = approximation_ratio(result, graph=graph)
        assert 0 < ratio <= 1.0

    def test_ratio_requires_a_bound_or_graph(self):
        with pytest.raises(AnalysisError):
            approximation_ratio(10)

    def test_ratio_rejects_non_positive_bound(self):
        with pytest.raises(AnalysisError):
            approximation_ratio(10, upper_bound=0)

    def test_ratio_table(self):
        graph = cycle_graph(12)
        results = {"greedy": greedy_mis(graph), "two_k": two_k_swap(graph)}
        table = ratio_table(results, graph=graph)
        assert set(table) == {"greedy", "two_k"}
        assert all(0 < value <= 1.0 for value in table.values())

    def test_ratio_table_requires_bound_or_graph(self):
        with pytest.raises(AnalysisError):
            ratio_table({"greedy": 5})

    def test_complete_graph_bound_is_loose_but_valid(self):
        # Algorithm 5 charges max(N, 1) per star, so K_6 gets a bound of 5
        # even though the optimum is 1 — the ratio is well defined but small.
        graph = complete_graph(6)
        result = greedy_mis(graph)
        assert independence_upper_bound(graph) == 5
        assert approximation_ratio(result, graph=graph) == pytest.approx(1 / 5)

    def test_path_graph_ratio(self):
        graph = path_graph(20)
        result = greedy_mis(graph)
        assert approximation_ratio(result, graph=graph) >= 0.9
