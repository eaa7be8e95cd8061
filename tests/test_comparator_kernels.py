"""Backend parity for the in-memory comparator kernels (Tables 5-6).

The vectorized comparator passes — the (1,2)-swap local search and the
DynamicUpdate minimum-degree greedy — re-implement the reference loops
over the CSR arrays, so these tests pin them to the python backend on
randomized, power-law, regular, structured and cascade instances:
identical independent sets, identical iteration counts, and (for
DynamicUpdate) identical selection *sequences*.  The memory-limit error
paths of the wrappers are covered here too.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dynamic_update import dynamic_update_mis
from repro.baselines.local_search import local_search_mis
from repro.core.greedy import greedy_mis
from repro.core.kernels import get_backend
from repro.core.result import as_members
from repro.errors import MemoryBudgetError, SolverError, VertexError
from repro.graphs.cascade import cascade_initial_independent_set, cascade_swap_graph
from repro.graphs.generators import (
    complete_graph,
    empty_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    path_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.validation.checks import is_maximal_independent_set
from snapshot_helpers import plain


def assert_comparators_agree(graph, initial=None, max_iterations=100_000):
    """Run both comparator passes under both backends and compare everything."""

    python_backend = get_backend("python")
    numpy_backend = get_backend("numpy")

    python_order = python_backend.dynamic_update_pass(graph)
    numpy_order = numpy_backend.dynamic_update_pass(graph)
    assert python_order == numpy_order, "dynamic_update selection order"
    if graph.num_vertices:
        assert is_maximal_independent_set(graph, frozenset(python_order))

    initial = greedy_mis(graph).members if initial is None else as_members(initial)
    python_set, python_iters = python_backend.local_search_pass(
        graph, initial, max_iterations
    )
    numpy_set, numpy_iters = numpy_backend.local_search_pass(
        graph, initial, max_iterations
    )
    assert plain(python_set) == plain(numpy_set), "local_search set"
    assert python_iters == numpy_iters, "local_search iterations"
    if graph.num_vertices and max_iterations > 0:
        assert is_maximal_independent_set(graph, python_set.tolist())


class TestParitySweep:
    def test_small_random_graphs(self):
        for seed in range(60):
            assert_comparators_agree(erdos_renyi_gnm(40, 70, seed=seed))

    def test_medium_random_graphs(self):
        for seed in range(10):
            assert_comparators_agree(erdos_renyi_gnm(250, 900, seed=seed))

    def test_plrg_instances(self):
        for seed in range(3):
            assert_comparators_agree(
                plrg_graph_with_vertex_count(2_500, 2.1, seed=seed)
            )

    def test_regular_instances(self):
        for seed in range(5):
            assert_comparators_agree(random_regular_graph(120, 3, seed=seed))

    def test_cascade_instances(self):
        for triples in (1, 3, 9):
            graph = cascade_swap_graph(triples)
            assert_comparators_agree(
                graph, initial=cascade_initial_independent_set(triples)
            )

    def test_structured_graphs(self):
        for graph in (
            empty_graph(0),
            empty_graph(7),
            path_graph(400),
            star_graph(25),
            complete_graph(12),
        ):
            assert_comparators_agree(graph)

    def test_empty_initial_set(self):
        for seed in range(10):
            assert_comparators_agree(
                erdos_renyi_gnm(80, 160, seed=seed), initial=frozenset()
            )

    def test_mid_sweep_insertions_wait_for_the_next_sweep(self):
        # Regression: after the sweep swaps 0 -> (1, 2), vertex 1 is newly
        # selected and gains two loose neighbours; the reference only
        # examines it in the *next* sweep (it is not in the sweep-start
        # snapshot), and the vectorized dirty-heap must not examine it
        # early either — doing so let 1 -> (3, 4) run before vertex 5's
        # turn and blocked 5's own swap, diverging the final sets.
        graph = Graph(
            8,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (5, 6), (5, 7), (3, 6)],
        )
        assert_comparators_agree(graph, initial=frozenset({0, 5}))

    def test_random_non_maximal_initial_sets(self):
        import random

        rng = random.Random(11)
        for trial in range(60):
            graph = erdos_renyi_gnm(25, 50, seed=trial)
            initial = set()
            for v in range(25):
                if rng.random() < 0.3 and all(
                    not graph.has_edge(v, u) for u in initial
                ):
                    initial.add(v)
            assert_comparators_agree(graph, initial=frozenset(initial))

    def test_iteration_caps(self):
        graph = erdos_renyi_gnm(150, 600, seed=6)
        for cap in (0, 1, 2, 7):
            assert_comparators_agree(graph, initial=frozenset(), max_iterations=cap)

    @settings(deadline=None, max_examples=40)
    @given(
        num_vertices=st.integers(min_value=1, max_value=60),
        probability=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**30),
    )
    def test_gnp_property(self, num_vertices, probability, seed):
        assert_comparators_agree(
            erdos_renyi_gnp(num_vertices, probability, seed=seed)
        )


class TestGraphBackendResolution:
    def test_numpy_backend_supports_ndarray_graphs(self):
        graph = erdos_renyi_gnm(30, 60, seed=1)
        assert get_backend("numpy").name == "numpy"
        assert get_backend("python").name == "python"
        assert graph.csr_arrays()[0].dtype.name == "int64"

    def test_wrapper_backend_selection_is_bit_identical(self):
        graph = plrg_graph_with_vertex_count(1_500, 2.1, seed=2)
        dynamic = {
            backend: dynamic_update_mis(graph, backend=backend)
            for backend in ("python", "numpy")
        }
        assert (
            dynamic["python"].independent_set == dynamic["numpy"].independent_set
        )
        local = {
            backend: local_search_mis(graph, backend=backend)
            for backend in ("python", "numpy")
        }
        assert local["python"].independent_set == local["numpy"].independent_set
        assert local["python"].extras == local["numpy"].extras


class TestWrapperSemantics:
    def test_local_search_memory_limit_raises(self):
        graph = erdos_renyi_gnm(200, 600, seed=1)
        with pytest.raises(MemoryBudgetError):
            local_search_mis(graph, memory_limit_bytes=100)

    def test_local_search_memory_reported(self):
        graph = erdos_renyi_gnm(100, 300, seed=2)
        result = local_search_mis(graph)
        assert result.memory_bytes == (2 * 300 + 2 * 100) * 4 + 100
        # A sufficient limit must not raise.
        roomy = local_search_mis(graph, memory_limit_bytes=result.memory_bytes)
        assert roomy.size == result.size

    def test_dynamic_update_memory_limit_raises_per_backend(self):
        graph = erdos_renyi_gnm(200, 600, seed=1)
        for backend in ("python", "numpy"):
            with pytest.raises(MemoryBudgetError):
                dynamic_update_mis(graph, memory_limit_bytes=100, backend=backend)

    def test_local_search_zero_iterations_mutates_nothing(self):
        graph = star_graph(6)
        # {3} is independent but far from maximal; with a zero budget the
        # caller-supplied set must come back byte-identical (no greedy
        # maximalisation either).
        result = local_search_mis(graph, initial={3}, max_iterations=0)
        assert result.independent_set == frozenset({3})
        assert result.extras["iterations"] == 0.0
        assert result.initial_size == 1

    def test_local_search_negative_iterations_rejected(self):
        with pytest.raises(SolverError):
            local_search_mis(star_graph(3), max_iterations=-1)

    def test_local_search_rejects_out_of_range_initial(self):
        with pytest.raises(VertexError):
            local_search_mis(path_graph(4), initial={99})

    def test_dynamic_update_reports_built_size_as_initial(self):
        graph = erdos_renyi_gnm(120, 400, seed=3)
        result = dynamic_update_mis(graph)
        assert result.initial_size == result.size
        assert result.total_gain == 0

    def test_local_search_improves_cascade_initial(self):
        graph = cascade_swap_graph(6)
        initial = cascade_initial_independent_set(6)
        result = local_search_mis(graph, initial=initial)
        assert result.size >= len(initial)
        assert is_maximal_independent_set(graph, result.independent_set)
