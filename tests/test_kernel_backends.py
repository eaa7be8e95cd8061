"""Backend parity: the numpy kernels must match the python reference exactly.

The vectorized backend re-implements every pass of the three algorithms,
so these tests pin it to the reference implementation on randomized
graphs: identical independent sets (same scan order), identical per-round
telemetry, identical I/O counters and identical modeled memory.  A
deterministic sweep guarantees well over 100 distinct random graphs per
run on top of the hypothesis cases.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy_mis, one_k_swap, solve_mis, two_k_swap
from repro.baselines.local_search import local_search_mis
from repro.core.kernels import BACKEND_ENV_VAR, available_backends, get_backend
from repro.core.solver import PIPELINES
from repro.errors import SolverError, VertexError
from repro.graphs.cascade import cascade_initial_independent_set, cascade_swap_graph
from repro.graphs.generators import (
    complete_graph,
    empty_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import write_adjacency_file, AdjacencyFileReader
from repro.storage.scan import InMemoryAdjacencyScan


def assert_backends_agree(graph, order="degree", initial=None, max_rounds=8):
    """Run all three algorithms under both backends and compare everything.

    ``max_rounds`` is capped by default: the reference two-k-swap can
    oscillate forever on some graphs in unfavourable scan orders (a
    pre-existing property of the paper's conflict resolution, shared
    bit-for-bit by both backends), and parity over a bounded prefix of
    rounds already pins every state transition.
    """

    for algorithm in (greedy_mis, one_k_swap, two_k_swap):
        results = {}
        for backend in ("python", "numpy"):
            if algorithm is greedy_mis:
                results[backend] = algorithm(graph, order=order, backend=backend)
            else:
                results[backend] = algorithm(
                    graph,
                    order=order,
                    initial=initial,
                    max_rounds=max_rounds,
                    backend=backend,
                )
        python_result, numpy_result = results["python"], results["numpy"]
        name = algorithm.__name__
        assert python_result.independent_set == numpy_result.independent_set, name
        assert python_result.rounds == numpy_result.rounds, name
        assert python_result.io == numpy_result.io, name
        assert python_result.memory_bytes == numpy_result.memory_bytes, name
        assert python_result.initial_size == numpy_result.initial_size, name
        assert python_result.extras == numpy_result.extras, name


class _RecordStreamOnly:
    """Scan source with neither an in-memory CSR nor ``csr_views``."""

    num_vertices = 0
    num_edges = 0


class TestBackendLookup:
    def test_available_backends_are_fixed(self):
        assert available_backends() == ("numpy", "python")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        for request in (None, "", "auto"):
            assert get_backend(request).name == "numpy"

    def test_environment_variable_is_honoured(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        for request in (None, "", "auto"):
            assert get_backend(request).name == "python"

    def test_explicit_name_beats_environment_variable(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert get_backend("numpy").name == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend("python").name == "python"

    def test_unknown_name_raises(self):
        with pytest.raises(SolverError, match="unknown kernel backend 'fortran'"):
            get_backend("fortran")

    def test_unknown_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(SolverError, match=BACKEND_ENV_VAR):
            get_backend()
        with pytest.raises(SolverError, match=BACKEND_ENV_VAR):
            solve_mis(erdos_renyi_gnm(10, 12, seed=1))

    def test_numpy_backend_runs_file_and_in_memory_sources(self):
        graph = erdos_renyi_gnm(30, 60, seed=5)
        device = write_adjacency_file(graph)
        reader = AdjacencyFileReader(device)
        assert get_backend("numpy", reader).name == "numpy"
        source = InMemoryAdjacencyScan(graph)
        assert get_backend("numpy", source).name == "numpy"
        reader.close()

    def test_custom_source_falls_back_to_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend("numpy", _RecordStreamOnly()).name == "python"
        assert get_backend(None, _RecordStreamOnly()).name == "python"
        assert get_backend("python", _RecordStreamOnly()).name == "python"

    def test_file_source_solve_matches_in_memory(self):
        graph = erdos_renyi_gnm(40, 90, seed=6)
        device = write_adjacency_file(graph)
        reader = AdjacencyFileReader(device)
        from_file = greedy_mis(reader, backend="numpy")  # block-batched scans
        in_memory = greedy_mis(graph, backend="numpy")
        assert from_file.independent_set == in_memory.independent_set
        reader.close()


class TestEdgeCases:
    def test_empty_graph(self):
        assert_backends_agree(empty_graph(0))

    def test_single_vertex(self):
        assert_backends_agree(Graph(1))

    def test_isolated_vertices_only(self):
        assert_backends_agree(empty_graph(7))

    def test_star(self):
        assert_backends_agree(star_graph(9))

    def test_complete_graph(self):
        assert_backends_agree(complete_graph(8))

    def test_cascade_graph_with_adversarial_initial_set(self):
        graph = cascade_swap_graph(10)
        assert_backends_agree(
            graph, initial=cascade_initial_independent_set(10)
        )

    def test_cascade_graph_with_round_cap(self):
        graph = cascade_swap_graph(8)
        assert_backends_agree(
            graph, initial=cascade_initial_independent_set(8), max_rounds=2
        )

    def test_id_scan_order(self):
        assert_backends_agree(erdos_renyi_gnm(60, 140, seed=2), order="id")

    def test_explicit_scan_order(self):
        graph = erdos_renyi_gnm(25, 60, seed=3)
        order = list(reversed(range(graph.num_vertices)))
        assert_backends_agree(graph, order=order)

    def test_solver_facade_backend_parity(self):
        graph = plrg_graph_with_vertex_count(150, 2.1, seed=4)
        for pipeline in PIPELINES:
            python_result = solve_mis(graph, pipeline=pipeline, backend="python")
            numpy_result = solve_mis(graph, pipeline=pipeline, backend="numpy")
            assert python_result.independent_set == numpy_result.independent_set
            assert python_result.rounds == numpy_result.rounds


class TestMembersContract:
    """Every pass takes and returns the set as members: a strictly
    ascending 1-D int64 array, equal across the two backends."""

    @staticmethod
    def _passes(kernel, graph):
        greedy = kernel.greedy_pass(InMemoryAdjacencyScan(graph))
        one_k = kernel.one_k_swap_pass(InMemoryAdjacencyScan(graph), greedy, None)
        two_k = kernel.two_k_swap_pass(
            InMemoryAdjacencyScan(graph), greedy, None, 8, 64
        )
        local, _iterations = kernel.local_search_pass(graph, greedy, 100_000)
        return [greedy, one_k[0], two_k[0], local]

    @pytest.mark.parametrize(
        "graph",
        [
            plrg_graph_with_vertex_count(500, 2.1, seed=3),
            erdos_renyi_gnm(300, 900, seed=8),
            empty_graph(5),
            empty_graph(0),
        ],
        ids=["plrg", "gnm", "isolated", "empty"],
    )
    def test_every_pass_returns_ascending_int64_members(self, graph):
        outputs = {
            name: self._passes(get_backend(name), graph)
            for name in available_backends()
        }
        for arrays in outputs.values():
            for members in arrays:
                assert isinstance(members, np.ndarray)
                assert members.dtype == np.int64
                assert members.ndim == 1
                assert (members[1:] > members[:-1]).all()
        for python_members, numpy_members in zip(outputs["python"], outputs["numpy"]):
            assert np.array_equal(python_members, numpy_members)

    def test_results_take_the_pass_output_without_a_copy(self, monkeypatch):
        backend = type(get_backend("numpy"))
        original = backend.greedy_pass
        returned = []

        def recording(kernel, source):
            returned.append(original(kernel, source))
            return returned[-1]

        monkeypatch.setattr(backend, "greedy_pass", recording)
        result = greedy_mis(erdos_renyi_gnm(200, 500, seed=4), backend="numpy")
        assert result.members is returned[0]


class TestInitialSetRange:
    """A starting set with a vertex outside ``0 .. n - 1`` is refused."""

    GRAPH = erdos_renyi_gnm(30, 60, seed=1)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("solver", [one_k_swap, two_k_swap])
    @pytest.mark.parametrize("vertex", [-1, -7, 30, 31])
    def test_swap_passes_raise_solver_error(self, solver, backend, vertex):
        message = f"initial independent set contains unknown vertex {vertex}"
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            solver(self.GRAPH, initial=[0, vertex], backend=backend)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("vertex", [-1, -7, 30, 31])
    def test_local_search_raises_vertex_error(self, backend, vertex):
        with pytest.raises(VertexError) as caught:
            local_search_mis(self.GRAPH, initial=[0, vertex], backend=backend)
        assert str(caught.value) == str(VertexError(vertex, 30))
        assert caught.value.vertex == vertex and type(caught.value.vertex) is int
        assert caught.value.num_vertices == 30

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_every_vertex_is_out_of_range_of_an_empty_graph(self, backend):
        graph = empty_graph(0)
        for solver in (one_k_swap, two_k_swap):
            with pytest.raises(SolverError, match="unknown vertex 0$"):
                solver(graph, initial=[0], backend=backend)
        with pytest.raises(VertexError):
            local_search_mis(graph, initial=[0], backend=backend)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_an_empty_initial_set_is_accepted(self, backend):
        for solver in (one_k_swap, two_k_swap):
            result = solver(self.GRAPH, initial=[], max_rounds=4, backend=backend)
            assert result.initial_size == 0
            reference = solver(
                self.GRAPH, initial=set(), max_rounds=4, backend="python"
            )
            assert result.independent_set == reference.independent_set
        result = local_search_mis(self.GRAPH, initial=[], backend=backend)
        assert result.initial_size == 0
        assert result.independent_set == local_search_mis(
            self.GRAPH, initial=(), backend="python"
        ).independent_set
        for solver in (one_k_swap, two_k_swap):
            empty = solver(empty_graph(0), initial=[], backend=backend)
            assert empty.size == 0
        assert local_search_mis(empty_graph(0), initial=[], backend=backend).size == 0


class TestRandomizedParity:
    """Deterministic sweep: > 100 distinct random graphs, both backends."""

    @pytest.mark.parametrize("seed", range(60))
    def test_gnm_graphs(self, seed):
        n = 10 + (seed * 7) % 90
        m = (seed * 13) % (3 * n)
        graph = erdos_renyi_gnm(n, min(m, n * (n - 1) // 2), seed=seed)
        assert_backends_agree(graph, order="degree" if seed % 2 else "id")

    @pytest.mark.parametrize("seed", range(30))
    def test_plrg_graphs(self, seed):
        graph = plrg_graph_with_vertex_count(120 + 10 * (seed % 5), 1.8 + 0.1 * (seed % 7), seed=seed)
        assert_backends_agree(graph)

    @pytest.mark.parametrize("seed", range(15))
    def test_gnp_graphs_with_explicit_initial_set(self, seed):
        graph = erdos_renyi_gnp(50, 0.08, seed=seed)
        initial = greedy_mis(graph, order="id").independent_set
        assert_backends_agree(graph, initial=initial, max_rounds=3)


class TestHypothesisParity:
    @given(
        n=st.integers(min_value=0, max_value=60),
        density=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_backends_identical_on_gnp(self, n, density, seed):
        graph = erdos_renyi_gnp(n, density, seed=seed)
        assert_backends_agree(graph)

    @given(
        n=st.integers(min_value=2, max_value=50),
        extra=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_backends_identical_on_gnm_id_order(self, n, extra, seed):
        m = min(extra, n * (n - 1) // 2)
        graph = erdos_renyi_gnm(n, m, seed=seed)
        assert_backends_agree(graph, order="id")
