"""Integration tests that replay the paper's worked examples and claims.

* Example 1 / Figure 2 — swap-conflict resolution (covered in detail in
  ``test_one_k_swap.py``; here we check the state machinery end to end).
* Example 2 / Figure 4 — the 14-vertex one-k-swap walkthrough.
* Example 3 / Figure 7 — the two-k-swap walkthrough (see
  ``test_two_k_swap.py``).
* Figure 5 — the cascading worst case.
* Section 7.4 — the early-stop claim: the first rounds capture most of the
  swap gain.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.two_k import two_k_swap
from repro.graphs.cascade import (
    cascade_initial_independent_set,
    cascade_optimal_size,
    cascade_swap_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.validation.checks import is_independent_set, is_maximal_independent_set


def figure4_graph() -> Graph:
    """A 14-vertex graph consistent with the Figure 4 walkthrough.

    The exact edge set of Figure 4 is only given pictorially; this fixture
    recreates the *situation* the example describes: an initial greedy set
    {v1, v4, v8, v12, v14} where (v2, v3, v1) and (v7, v9, v4) are 1-2 swap
    skeletons, v5/v6/v10 conflict with them, and the final set grows from
    five to seven vertices.
    """

    # 0-based ids: v1=0, v2=1, ..., v14=13.
    return Graph(
        14,
        [
            # v1 is exchangeable with v2 and v3.
            (0, 1), (0, 2),
            # v4 is exchangeable with v7 and v9.
            (3, 6), (3, 8),
            # v5 and v6 are adjacent to v4 and to swap winners -> conflicts.
            (3, 4), (3, 5), (4, 2), (5, 6),
            # v10 is adjacent to v8 and to a swap winner (v9) -> conflict.
            (7, 9), (8, 9),
            # v11 and v13 are covered by IS vertices v12 and v14.
            (11, 10), (13, 12),
            # extra edges keeping degrees varied, none between IS vertices.
            (1, 10), (6, 12),
        ],
    )


class TestFigure4Walkthrough:
    def test_initial_set_is_independent(self):
        graph = figure4_graph()
        initial = {0, 3, 7, 11, 13}
        assert is_independent_set(graph, initial)

    def test_one_k_swap_grows_the_set_by_two(self):
        graph = figure4_graph()
        initial = {0, 3, 7, 11, 13}
        result = one_k_swap(graph, initial=initial, order="id")
        # Two 1-2 swaps are available (around v1 and v4); the set grows from
        # 5 to 7 vertices, as in the paper's Example 2.
        assert result.size == 7
        assert is_maximal_independent_set(graph, result.independent_set)

    def test_swap_winners_replace_the_swapped_out_vertices(self):
        graph = figure4_graph()
        result = one_k_swap(graph, initial={0, 3, 7, 11, 13}, order="id")
        # v1 (0) and v4 (3) leave the set through 1-2 swaps; v2 and v3
        # (ids 1, 2) take v1's place.  The other IS vertices survive.
        assert 0 not in result.independent_set
        assert 3 not in result.independent_set
        assert {1, 2}.issubset(result.independent_set)
        assert {7, 11, 13}.issubset(result.independent_set)


class TestCascadeWorstCase:
    @pytest.mark.parametrize("num_triples", [2, 3, 5, 8])
    def test_rounds_grow_linearly_with_the_chain(self, num_triples):
        graph = cascade_swap_graph(num_triples)
        initial = cascade_initial_independent_set(num_triples)
        result = one_k_swap(graph, initial=initial, order="id")
        assert result.size == cascade_optimal_size(num_triples)
        assert result.num_rounds >= num_triples

    def test_two_k_swap_also_reaches_the_optimum(self):
        graph = cascade_swap_graph(4)
        initial = cascade_initial_independent_set(4)
        result = two_k_swap(graph, initial=initial, order="id")
        assert result.size == cascade_optimal_size(4)


class TestEarlyStopClaim:
    def test_first_three_rounds_capture_most_of_the_gain(self):
        # Section 7.4 / Table 8: >97% of the swap gain lands in rounds 1-3
        # on real graphs; power-law stand-ins behave the same way.
        graph = plrg_graph_with_vertex_count(4_000, 1.9, seed=13)
        result = one_k_swap(graph)
        if result.total_gain > 0:
            assert result.swap_completion_ratio(3) >= 0.9

    def test_round_count_stays_single_digit_on_power_law_graphs(self):
        # Table 7: between 2 and 9 rounds on every dataset.
        for beta, seed in ((1.9, 1), (2.1, 2), (2.4, 3)):
            graph = plrg_graph_with_vertex_count(3_000, beta, seed=seed)
            assert one_k_swap(graph).num_rounds <= 10
            assert two_k_swap(graph).num_rounds <= 10


class TestGreedyVersusSwapShapes:
    def test_table5_ordering_on_power_law_standins(self):
        # Two-k >= One-k >= Greedy >= Baseline (Table 5's qualitative shape).
        graph = plrg_graph_with_vertex_count(3_000, 2.0, seed=17)
        greedy = greedy_mis(graph)
        baseline = greedy_mis(graph, order="id")
        one_k = one_k_swap(graph, initial=greedy)
        two_k = two_k_swap(graph, initial=greedy)
        assert two_k.size >= one_k.size >= greedy.size
        assert greedy.size >= baseline.size
