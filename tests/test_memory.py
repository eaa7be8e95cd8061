"""Unit tests for the semi-external memory model and budget guard."""

from __future__ import annotations

import pytest

from repro.errors import MemoryBudgetError
from repro.storage.memory import MemoryBudget, MemoryModel


class TestMemoryModel:
    def test_greedy_is_one_bit_per_vertex(self):
        model = MemoryModel()
        assert model.greedy_bytes(8_000) == 1_000
        assert model.greedy_bytes(8_001) == 1_001

    def test_one_k_is_state_plus_one_word(self):
        model = MemoryModel()
        assert model.one_k_swap_bytes(1_000) == 1_000 * 5

    def test_two_k_adds_sc_vertices(self):
        model = MemoryModel()
        base = model.two_k_swap_bytes(1_000, max_sc_vertices=0)
        with_sc = model.two_k_swap_bytes(1_000, max_sc_vertices=130)
        assert with_sc - base == 130 * 4

    def test_reduce_holds_the_graph_worklist_and_overlay(self):
        model = MemoryModel()
        tokens = 1_000 + 500 + 2
        graph_words = 1_001 + 2 * 3_000
        assert model.reduce_bytes(1_000, 3_000) == (
            (graph_words + 3 * tokens) * 4 + tokens
        )
        with_folds = model.reduce_bytes(1_000, 3_000, overlay_edges=10)
        assert with_folds - model.reduce_bytes(1_000, 3_000) == 10 * 2 * 4
        # The whole graph is resident: far above the semi-external passes.
        assert model.reduce_bytes(1_000, 3_000) > 5 * model.two_k_swap_bytes(1_000)

    def test_dynamic_update_scales_with_edges(self):
        model = MemoryModel()
        sparse = model.dynamic_update_bytes(1_000, 2_000)
        dense = model.dynamic_update_bytes(1_000, 20_000)
        assert dense > sparse

    def test_local_search_scales_with_edges(self):
        model = MemoryModel()
        assert model.local_search_bytes(1_000, 5_000) == (
            (2 * 5_000 + 2 * 1_000) * 4 + 1_000
        )
        assert model.local_search_bytes(1_000, 50_000) > model.local_search_bytes(
            1_000, 5_000
        )

    def test_semi_external_is_far_below_in_memory_for_dense_graphs(self):
        model = MemoryModel()
        n, m = 100_000, 5_000_000
        assert model.two_k_swap_bytes(n, n // 8) < model.dynamic_update_bytes(n, m) / 10

    def test_algorithm_dispatch(self):
        model = MemoryModel()
        assert model.algorithm_bytes("greedy", 800) == model.greedy_bytes(800)
        assert model.algorithm_bytes("Two-K-Swap", 800) == model.two_k_swap_bytes(800)
        assert model.algorithm_bytes("stxxl", 800) == model.external_mis_bytes(64 * 1024)
        assert model.algorithm_bytes(
            "local_search", 800, num_edges=2_000
        ) == model.local_search_bytes(800, 2_000)
        with pytest.raises(ValueError):
            model.algorithm_bytes("unknown", 800)

    def test_report_covers_all_algorithms(self):
        report = MemoryModel().report(1_000, 5_000, max_sc_vertices=100)
        assert set(report) == {
            "dynamic_update",
            "external_mis",
            "greedy",
            "local_search",
            "one_k_swap",
            "two_k_swap",
        }
        assert report["greedy"] < report["one_k_swap"] < report["two_k_swap"]

    def test_paper_scale_facebook_memory_shape(self):
        """Table 6 shape: greedy ~ MBs, two-k ~ hundreds of MBs for 59M vertices."""

        model = MemoryModel()
        n = 59_220_000
        greedy_mb = model.greedy_bytes(n) / 2**20
        two_k_mb = model.two_k_swap_bytes(n, int(0.13 * n)) / 2**20
        assert 4 < greedy_mb < 10  # paper: 7.06MB
        assert 300 < two_k_mb < 800  # paper: 468.9MB


class TestMemoryBudget:
    def test_charge_within_budget(self):
        budget = MemoryBudget(1_000)
        budget.charge("state", 400)
        budget.charge("isn", 500)
        assert budget.used_bytes == 900
        assert budget.remaining_bytes == 100

    def test_charge_is_replaced_per_label(self):
        budget = MemoryBudget(1_000)
        budget.charge("sc", 400)
        budget.charge("sc", 600)
        assert budget.used_bytes == 600

    def test_exceeding_budget_raises(self):
        budget = MemoryBudget(1_000)
        budget.charge("state", 800)
        with pytest.raises(MemoryBudgetError):
            budget.charge("isn", 300)

    def test_release_frees_space(self):
        budget = MemoryBudget(1_000)
        budget.charge("sc", 900)
        budget.release("sc")
        budget.charge("other", 900)
        assert budget.charges() == {"other": 900}

    def test_negative_charge_rejected(self):
        budget = MemoryBudget(100)
        with pytest.raises(MemoryBudgetError):
            budget.charge("x", -1)

    def test_zero_budget_rejected(self):
        with pytest.raises(MemoryBudgetError):
            MemoryBudget(0)

    def test_semi_external_constructor(self):
        budget = MemoryBudget.semi_external(1_000, words_per_vertex=8)
        assert budget.budget_bytes == 1_000 * 8 * 4
