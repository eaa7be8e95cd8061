"""Unit tests for the incremental MIS maintainer (future-work prototype)."""

from __future__ import annotations

import random

import pytest

from repro.dynamic.maintainer import DynamicMISMaintainer
from repro.errors import GraphError, SolverError
from repro.graphs.generators import erdos_renyi_gnm, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.validation.checks import is_independent_set, is_maximal_independent_set


class TestInitialisation:
    def test_starts_from_a_pipeline_solution(self):
        graph = erdos_renyi_gnm(100, 300, seed=1)
        maintainer = DynamicMISMaintainer(graph)
        assert is_maximal_independent_set(graph, maintainer.independent_set)
        assert maintainer.num_vertices == 100
        assert maintainer.num_edges == 300

    def test_accepts_an_explicit_initial_set(self):
        graph = star_graph(5)
        maintainer = DynamicMISMaintainer(graph, initial={0})
        assert maintainer.independent_set == frozenset({0})

    def test_rejects_a_non_independent_initial_set(self):
        graph = path_graph(4)
        with pytest.raises(SolverError):
            DynamicMISMaintainer(graph, initial={1, 2})

    def test_rejects_an_out_of_range_initial_vertex(self):
        graph = path_graph(4)
        for vertex in (-1, 4):
            with pytest.raises(SolverError, match=f"initial vertex {vertex} is not"):
                DynamicMISMaintainer(graph, initial={0, vertex})

    def test_seed_solve_and_rebuild_run_on_the_maintainer_backend(self, monkeypatch):
        graph = erdos_renyi_gnm(60, 150, seed=2)
        initial = DynamicMISMaintainer(graph, backend="python").independent_set
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
        with pytest.raises(SolverError, match="fortran"):
            DynamicMISMaintainer(graph)
        seeded = DynamicMISMaintainer(graph, backend="python")
        assert seeded.independent_set == initial
        maintainer = DynamicMISMaintainer(graph, initial=initial, backend="python")
        maintainer.apply_updates([(0, 1), (2, 3)], [(4, 5)])
        maintainer.rebuild()
        maintainer.check_invariants()
        assert maintainer.stats.rebuilds == 1

    def test_empty_maintainer_grows_from_nothing(self):
        maintainer = DynamicMISMaintainer()
        assert maintainer.num_vertices == 0
        v = maintainer.add_vertex()
        assert v == 0
        assert maintainer.independent_set == frozenset({0})


class TestEdgeInsertions:
    def test_insertion_between_selected_vertices_evicts_one(self):
        graph = Graph(4, [(0, 2), (1, 3)])
        maintainer = DynamicMISMaintainer(graph, initial={0, 1})
        maintainer.insert_edge(0, 1)
        selected = maintainer.independent_set
        assert is_independent_set(maintainer.to_graph(), selected)
        assert maintainer.stats.evictions == 1
        maintainer.check_invariants()

    def test_insertion_keeps_invariants_over_a_random_stream(self):
        rng = random.Random(7)
        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(60, 90, seed=2))
        for _ in range(300):
            u, v = rng.randrange(60), rng.randrange(60)
            if u != v:
                maintainer.insert_edge(u, v)
        maintainer.check_invariants()
        graph = maintainer.to_graph()
        assert is_maximal_independent_set(graph, maintainer.independent_set)

    def test_insertion_creates_new_vertices(self):
        maintainer = DynamicMISMaintainer()
        maintainer.insert_edge(0, 5)
        assert maintainer.num_vertices == 2
        maintainer.check_invariants()

    def test_duplicate_insertion_is_a_no_op(self):
        maintainer = DynamicMISMaintainer(path_graph(3))
        before = maintainer.stats.edges_inserted
        maintainer.insert_edge(0, 1)
        assert maintainer.stats.edges_inserted == before

    def test_self_loop_rejected(self):
        maintainer = DynamicMISMaintainer(path_graph(3))
        with pytest.raises(GraphError):
            maintainer.insert_edge(1, 1)
        with pytest.raises(GraphError):
            maintainer.insert_edge(-1, 0)


class TestEdgeDeletionsAndRebuild:
    def test_deletion_can_grow_the_set(self):
        graph = path_graph(3)  # 0-1-2, MIS {0, 2}
        maintainer = DynamicMISMaintainer(graph, initial={1})
        maintainer.delete_edge(0, 1)
        maintainer.check_invariants()
        assert 0 in maintainer.independent_set

    def test_deleting_a_missing_edge_is_a_no_op(self):
        maintainer = DynamicMISMaintainer(path_graph(4))
        maintainer.delete_edge(0, 3)
        assert maintainer.stats.edges_deleted == 0

    def test_mixed_stream_keeps_invariants(self):
        rng = random.Random(11)
        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(80, 200, seed=3))
        for step in range(400):
            u, v = rng.randrange(80), rng.randrange(80)
            if u == v:
                continue
            if step % 3 == 0:
                maintainer.delete_edge(u, v)
            else:
                maintainer.insert_edge(u, v)
        maintainer.check_invariants()

    def test_rebuild_never_shrinks_below_the_incremental_set_much(self):
        rng = random.Random(13)
        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(100, 200, seed=4))
        for _ in range(200):
            u, v = rng.randrange(100), rng.randrange(100)
            if u != v:
                maintainer.insert_edge(u, v)
        incremental = maintainer.size
        maintainer.rebuild()
        maintainer.check_invariants()
        assert maintainer.stats.rebuilds == 1
        assert maintainer.size >= incremental - 2

    def test_stats_accumulate(self):
        maintainer = DynamicMISMaintainer(path_graph(5))
        maintainer.insert_edge(0, 4)
        maintainer.delete_edge(0, 4)
        maintainer.add_vertex()
        stats = maintainer.stats
        assert stats.edges_inserted == 1
        assert stats.edges_deleted == 1
        assert stats.vertices_added == 1


class TestBulkUpdates:
    def test_bulk_stream_matches_per_edge_application(self):
        rng = random.Random(17)
        insertions = []
        deletions = []
        for _ in range(150):
            u, v = rng.randrange(70), rng.randrange(70)
            if u != v:
                insertions.append((u, v))
        for _ in range(40):
            u, v = rng.randrange(70), rng.randrange(70)
            if u != v:
                deletions.append((u, v))

        bulk = DynamicMISMaintainer(erdos_renyi_gnm(70, 120, seed=5))
        sequential = DynamicMISMaintainer(erdos_renyi_gnm(70, 120, seed=5))
        bulk.apply_updates(insertions=insertions, deletions=deletions)
        for u, v in insertions:
            sequential.insert_edge(u, v)
        for u, v in deletions:
            sequential.delete_edge(u, v)
        assert bulk.independent_set == sequential.independent_set
        assert bulk.num_edges == sequential.num_edges
        assert bulk.stats == sequential.stats
        bulk.check_invariants()

    def test_bulk_stream_accepts_ndarrays(self):
        import numpy as np

        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(40, 60, seed=6))
        insertions = np.asarray([[0, 39], [1, 38], [2, 37]], dtype=np.int64)
        maintainer.apply_updates(insertions=insertions)
        assert maintainer.stats.edges_inserted <= 3  # duplicates are no-ops
        maintainer.check_invariants()

    def test_to_graph_reflects_the_delta_overlay(self):
        maintainer = DynamicMISMaintainer(path_graph(4))
        maintainer.delete_edge(1, 2)
        maintainer.insert_edge(0, 3)
        graph = maintainer.to_graph()
        assert not graph.has_edge(1, 2)
        assert graph.has_edge(0, 3)
        assert graph.num_edges == maintainer.num_edges

    def test_invariant_checker_recomputes_tightness(self):
        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(50, 120, seed=7))
        maintainer._tight[0] += 1  # simulate a maintainer bug
        with pytest.raises(SolverError):
            maintainer.check_invariants()
        maintainer._tight[0] -= 1
        maintainer.check_invariants()
