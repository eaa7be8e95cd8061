"""End-to-end integration tests: generate → serialise → sort → solve → verify.

These exercise the full semi-external workflow a downstream user would run:
an unsorted adjacency file on disk is degree-sorted with the external
sorter, then the greedy / swap pipeline runs against the sorted file, and
the results are validated against the in-memory ground truth.
"""

from __future__ import annotations

import pytest

from repro.analysis.upper_bound import independence_upper_bound
from repro.baselines.external_mis import external_maximal_is
from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.two_k import two_k_swap
from repro.graphs.datasets import load_dataset
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.external_sort import external_sort_by_degree
from repro.storage.memory import MemoryBudget, MemoryModel
from repro.validation.checks import is_independent_set, is_maximal_independent_set


@pytest.fixture(scope="module")
def workload_graph():
    """A power-law workload graph of ~2,500 vertices shared by the module."""

    return plrg_graph_with_vertex_count(2_500, 2.0, seed=42, sort_by_degree=False)


class TestFullSemiExternalWorkflow:
    def test_disk_pipeline_matches_in_memory_pipeline(self, workload_graph, tmp_path):
        # 1. Write the unsorted file the way a crawler would produce it.
        raw_path = tmp_path / "raw.adj"
        write_adjacency_file(
            workload_graph, str(raw_path), order=range(workload_graph.num_vertices)
        ).close()

        # 2. Degree-sort it under a small memory budget.
        sorted_path = tmp_path / "sorted.adj"
        raw_reader = AdjacencyFileReader(str(raw_path))
        sort_result = external_sort_by_degree(
            raw_reader, output_backing=str(sorted_path), memory_budget=16 * 1024
        )
        assert sort_result.num_runs >= 1

        # 3. Run the full pipeline against the sorted file.
        sorted_reader = sort_result.reader
        greedy = greedy_mis(sorted_reader)
        improved = two_k_swap(sorted_reader, initial=greedy)

        # 4. Verify against the in-memory ground truth.
        assert is_maximal_independent_set(workload_graph, improved.independent_set)
        in_memory = two_k_swap(workload_graph, initial=greedy_mis(workload_graph))
        assert improved.size == pytest.approx(in_memory.size, abs=max(3, in_memory.size // 100))

    def test_semi_external_memory_budget_is_respected(self, workload_graph):
        # The problem statement allows c|V| words of memory; the modeled
        # footprints of all three passes must fit, while the in-memory
        # DynamicUpdate baseline must not for a dense enough graph.
        n = workload_graph.num_vertices
        model = MemoryModel()
        budget = MemoryBudget.semi_external(n, words_per_vertex=4)
        budget.charge("greedy", model.greedy_bytes(n))
        budget.release("greedy")
        budget.charge("one_k", model.one_k_swap_bytes(n))
        budget.release("one_k")
        budget.charge("two_k", model.two_k_swap_bytes(n, int(0.13 * n)))

    def test_io_shape_single_scan_greedy_versus_multi_scan_swaps(self, workload_graph):
        greedy_reader = AdjacencyFileReader(write_adjacency_file(workload_graph))
        greedy = greedy_mis(greedy_reader)
        swap_reader = AdjacencyFileReader(write_adjacency_file(workload_graph))
        swaps = one_k_swap(swap_reader, initial=greedy.independent_set)
        assert greedy.io.sequential_scans == 1
        assert swaps.io.sequential_scans > greedy.io.sequential_scans
        # Sequential scans dominate: random record lookups stay negligible.
        assert swaps.io.random_vertex_lookups == 0

    def test_dataset_standins_run_through_the_whole_stack(self):
        graph = load_dataset("astroph", scale=0.01, seed=5)
        bound = independence_upper_bound(graph)
        greedy = greedy_mis(graph)
        two_k = two_k_swap(graph, initial=greedy)
        external = external_maximal_is(graph)
        assert is_independent_set(graph, two_k.independent_set)
        assert greedy.size <= two_k.size <= bound
        assert external.size <= bound

    def test_results_are_deterministic_for_a_fixed_seed(self):
        first = two_k_swap(plrg_graph_with_vertex_count(1_000, 2.2, seed=9))
        second = two_k_swap(plrg_graph_with_vertex_count(1_000, 2.2, seed=9))
        assert first.independent_set == second.independent_set
