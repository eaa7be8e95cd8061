"""Property-based tests (hypothesis) for the core invariants.

The invariants checked here are the ones the paper's correctness argument
relies on:

* every solver output is an independent set;
* every semi-external solver output is *maximal*;
* swap passes never shrink the set they start from;
* the Algorithm-5 bound always dominates every heuristic (and the exact
  optimum on small instances);
* the storage layer round-trips arbitrary graphs bit-exactly.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.upper_bound import independence_upper_bound
from repro.baselines.dynamic_update import dynamic_update_mis
from repro.baselines.exact import independence_number
from repro.baselines.external_mis import external_maximal_is
from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.two_k import two_k_swap
from repro.graphs.graph import Graph
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.external_sort import external_sort_by_degree
from repro.validation.checks import is_independent_set, is_maximal_independent_set

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices: int = 40, max_edge_factor: int = 3):
    """Random simple graphs with up to ``max_vertices`` vertices."""

    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    max_edges = min(
        num_vertices * (num_vertices - 1) // 2, max_edge_factor * num_vertices
    )
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_vertices - 1),
                st.integers(min_value=0, max_value=num_vertices - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return Graph(num_vertices, edges)


@st.composite
def small_graphs(draw):
    """Graphs small enough for the exact branch-and-bound solver."""

    return draw(graphs(max_vertices=18, max_edge_factor=2))


class TestSolverInvariants:
    @_settings
    @given(graphs())
    def test_greedy_output_is_maximal_independent(self, graph):
        result = greedy_mis(graph)
        assert is_independent_set(graph, result.independent_set)
        assert is_maximal_independent_set(graph, result.independent_set)

    @_settings
    @given(graphs())
    def test_one_k_swap_output_is_maximal_independent(self, graph):
        result = one_k_swap(graph)
        assert is_maximal_independent_set(graph, result.independent_set)

    @_settings
    @given(graphs())
    def test_two_k_swap_output_is_maximal_independent(self, graph):
        result = two_k_swap(graph)
        assert is_maximal_independent_set(graph, result.independent_set)

    @_settings
    @given(graphs())
    def test_swaps_never_shrink_the_greedy_set(self, graph):
        greedy = greedy_mis(graph)
        assert one_k_swap(graph, initial=greedy).size >= greedy.size
        assert two_k_swap(graph, initial=greedy).size >= greedy.size

    @_settings
    @given(graphs())
    def test_baseline_comparators_are_maximal(self, graph):
        assert is_maximal_independent_set(graph, dynamic_update_mis(graph).independent_set)
        assert is_maximal_independent_set(graph, external_maximal_is(graph).independent_set)

    @_settings
    @given(small_graphs())
    def test_exact_dominates_every_heuristic(self, graph):
        optimum = independence_number(graph)
        assert optimum >= greedy_mis(graph).size
        assert optimum >= two_k_swap(graph).size
        assert optimum >= dynamic_update_mis(graph).size

    @_settings
    @given(small_graphs())
    def test_upper_bound_dominates_the_exact_optimum(self, graph):
        assert independence_upper_bound(graph) >= independence_number(graph)

    @_settings
    @given(graphs())
    def test_upper_bound_dominates_two_k_swap(self, graph):
        assert independence_upper_bound(graph) >= two_k_swap(graph).size


class TestStorageInvariants:
    @_settings
    @given(graphs())
    def test_adjacency_file_roundtrip(self, graph):
        reader = AdjacencyFileReader(write_adjacency_file(graph))
        assert reader.to_graph() == graph

    @_settings
    @given(graphs())
    def test_external_sort_preserves_graph_and_orders_degrees(self, graph):
        unsorted_reader = AdjacencyFileReader(
            write_adjacency_file(graph, order=range(graph.num_vertices))
        )
        result = external_sort_by_degree(unsorted_reader, memory_budget=512)
        degrees = [len(neighbors) for _, neighbors in result.reader.scan()]
        assert degrees == sorted(degrees)
        assert result.reader.to_graph() == graph

    @_settings
    @given(graphs())
    def test_greedy_identical_on_file_and_in_memory_sources(self, graph):
        from_memory = greedy_mis(graph)
        reader = AdjacencyFileReader(write_adjacency_file(graph))
        from_file = greedy_mis(reader)
        assert from_memory.independent_set == from_file.independent_set
