"""Unit tests for the deterministic and random graph generators."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs.cascade import (
    cascade_initial_independent_set,
    cascade_optimal_size,
    cascade_swap_graph,
)
from repro.graphs.generators import (
    caveman_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    grid_graph,
    path_graph,
    random_bipartite_graph,
    random_regular_graph,
    star_graph,
)
from repro.validation.checks import is_independent_set


class TestDeterministicGenerators:
    def test_empty_graph(self):
        g = empty_graph(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0

    def test_path_graph_edge_count(self):
        assert path_graph(10).num_edges == 9
        assert path_graph(1).num_edges == 0

    def test_cycle_graph_edge_count(self):
        assert cycle_graph(8).num_edges == 8

    def test_cycle_graph_requires_three_vertices(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_graph_degrees(self):
        g = star_graph(6)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_star_graph_rejects_negative(self):
        with pytest.raises(GraphError):
            star_graph(-1)

    def test_complete_graph_edge_count(self):
        assert complete_graph(6).num_edges == 15
        assert complete_graph(0).num_edges == 0

    def test_complete_bipartite_edge_count(self):
        g = complete_bipartite_graph(3, 4)
        assert g.num_vertices == 7
        assert g.num_edges == 12

    def test_complete_bipartite_rejects_negative(self):
        with pytest.raises(GraphError):
            complete_bipartite_graph(-1, 3)

    def test_grid_graph_edges(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_graph_rejects_bad_dimensions(self):
        with pytest.raises(GraphError):
            grid_graph(0, 5)

    def test_caveman_graph_structure(self):
        g = caveman_graph(4, 3)
        assert g.num_vertices == 12
        # each clique has 3 edges, plus 4 ring links
        assert g.num_edges == 4 * 3 + 4

    def test_caveman_graph_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            caveman_graph(0, 3)

    def test_disjoint_union_offsets_vertices(self):
        g = disjoint_union(path_graph(3), complete_graph(3))
        assert g.num_vertices == 6
        assert g.num_edges == 2 + 3
        assert g.has_edge(3, 4)
        assert not g.has_edge(2, 3)


class TestRandomGenerators:
    def test_gnp_is_reproducible(self):
        g1 = erdos_renyi_gnp(50, 0.1, seed=5)
        g2 = erdos_renyi_gnp(50, 0.1, seed=5)
        assert g1 == g2

    def test_gnp_probability_bounds(self):
        with pytest.raises(GraphError):
            erdos_renyi_gnp(10, 1.5)
        assert erdos_renyi_gnp(10, 0.0).num_edges == 0
        assert erdos_renyi_gnp(10, 1.0).num_edges == 45

    def test_gnm_has_exact_edge_count(self):
        g = erdos_renyi_gnm(40, 100, seed=2)
        assert g.num_edges == 100

    def test_gnm_rejects_impossible_edge_count(self):
        with pytest.raises(GraphError):
            erdos_renyi_gnm(5, 100)

    def test_gnm_rejects_a_negative_edge_count(self):
        with pytest.raises(GraphError, match="non-negative"):
            erdos_renyi_gnm(10, -1)

    def test_random_bipartite_has_no_intra_part_edges(self):
        g = random_bipartite_graph(10, 12, 0.3, seed=1)
        for u, v in g.iter_edges():
            assert (u < 10) != (v < 10)

    def test_random_bipartite_probability_bounds(self):
        with pytest.raises(GraphError):
            random_bipartite_graph(4, 4, -0.1)

    def test_random_regular_degrees_close_to_target(self):
        g = random_regular_graph(60, 4, seed=3)
        assert g.num_vertices == 60
        assert max(g.degrees()) <= 4
        assert g.average_degree == pytest.approx(4.0, abs=0.5)

    def test_random_regular_rejects_odd_total_degree(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 3)

    def test_random_regular_rejects_degree_too_large(self):
        with pytest.raises(GraphError):
            random_regular_graph(4, 4)


class TestCascadeSwapGraph:
    def test_structure_counts(self):
        g = cascade_swap_graph(4)
        assert g.num_vertices == 12
        # 2 edges per triple + 2 links per non-last triple
        assert g.num_edges == 4 * 2 + 3 * 2

    def test_initial_set_is_independent(self):
        g = cascade_swap_graph(5)
        initial = cascade_initial_independent_set(5)
        assert is_independent_set(g, initial)
        assert len(initial) == 5

    def test_optimal_size(self):
        g = cascade_swap_graph(3)
        optimum = cascade_optimal_size(3)
        assert optimum == 6
        # the b/c vertices of every triple form an independent set
        candidate = {3 * i + 1 for i in range(3)} | {3 * i + 2 for i in range(3)}
        assert is_independent_set(g, candidate)

    def test_rejects_zero_triples(self):
        with pytest.raises(GraphError):
            cascade_swap_graph(0)
        with pytest.raises(GraphError):
            cascade_initial_independent_set(0)
        with pytest.raises(GraphError):
            cascade_optimal_size(0)
