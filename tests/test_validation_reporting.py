"""Unit tests for the validation checks and the table formatting helpers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import InvalidIndependentSetError, VertexError
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_gnm,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.reporting import format_number, format_table, print_experiment_header
from repro.validation.checks import (
    assert_independent_set,
    find_violating_edge,
    is_independent_set,
    is_maximal_independent_set,
    uncovered_vertices,
)


class TestValidation:
    def test_empty_set_is_independent_but_not_maximal(self):
        graph = path_graph(4)
        assert is_independent_set(graph, set())
        assert not is_maximal_independent_set(graph, set())
        assert uncovered_vertices(graph, set()) == [0, 1, 2, 3]

    def test_violating_edge_found(self):
        graph = path_graph(4)
        assert find_violating_edge(graph, {1, 2}) == (1, 2)
        assert find_violating_edge(graph, {0, 2}) is None

    def test_assert_raises_with_edge_info(self):
        graph = cycle_graph(5)
        with pytest.raises(InvalidIndependentSetError) as excinfo:
            assert_independent_set(graph, {0, 1})
        assert excinfo.value.edge == (0, 1)

    def test_assert_passes_on_valid_set(self):
        graph = cycle_graph(6)
        assert_independent_set(graph, {0, 2, 4})

    def test_maximality_on_star(self):
        graph = star_graph(4)
        assert is_maximal_independent_set(graph, {0})
        assert is_maximal_independent_set(graph, {1, 2, 3, 4})
        assert not is_maximal_independent_set(graph, {1, 2})

    def test_figure1_example(self, paper_figure1_graph):
        graph = paper_figure1_graph
        # {v1, v2} (= {0, 1}) is maximal but not maximum; {v2, v3, v4, v5}
        # (= {1, 2, 3, 4}) is the maximum independent set.
        assert is_maximal_independent_set(graph, {0, 1})
        assert is_maximal_independent_set(graph, {1, 2, 3, 4})
        assert not is_independent_set(graph, {0, 2})


def _scalar_violating_edge(graph, vertices):
    """The scalar reference: ascending members, sorted neighbour lists."""

    selected = set(vertices)
    for u in sorted(selected):
        for w in graph.neighbors(u):
            if w in selected and u < w:
                return (u, w)
    return None


def _scalar_uncovered(graph, vertices):
    selected = set(vertices)
    return [
        v
        for v in graph.vertices()
        if v not in selected and not any(w in selected for w in graph.neighbors(v))
    ]


class TestVectorizedChecks:
    """The mask-based checks equal the scalar per-neighbour loops."""

    @pytest.mark.parametrize("seed", range(12))
    def test_match_scalar_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 80)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        graph = erdos_renyi_gnm(n, m, seed=seed)
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            chosen = [v for v in range(n) if rng.random() < density]
            for form in (set(chosen), list(reversed(chosen)), np.array(chosen)):
                edge = find_violating_edge(graph, form)
                assert edge == _scalar_violating_edge(graph, chosen)
                assert edge is None or all(type(x) is int for x in edge)
                assert uncovered_vertices(graph, form) == _scalar_uncovered(
                    graph, chosen
                )
            # Ids outside the graph are ignored by the maximality check...
            assert uncovered_vertices(graph, chosen + [-1, n, n + 5]) == (
                _scalar_uncovered(graph, chosen)
            )
            # ...and rejected by the independence check.
            for outside in (-1, n):
                with pytest.raises(VertexError):
                    find_violating_edge(graph, chosen + [outside])

    def test_generator_input_is_read_once(self):
        graph = path_graph(5)
        assert is_maximal_independent_set(graph, (v for v in (0, 2, 4)))
        assert find_violating_edge(graph, (v for v in (3, 2, 1))) == (1, 2)


class TestReporting:
    def test_format_number_integers_use_separators(self):
        assert format_number(1234567) == "1,234,567"

    def test_format_number_floats_use_precision(self):
        assert format_number(0.98765, precision=3) == "0.988"
        assert format_number(float("nan")) == "N/A"

    def test_format_number_none_is_na(self):
        assert format_number(None) == "N/A"

    def test_format_number_strings_pass_through(self):
        assert format_number("Facebook") == "Facebook"

    def test_format_table_alignment(self):
        table = format_table(["name", "size"], [["greedy", 10], ["two-k", 12345]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| name")
        assert all(line.startswith("|") for line in lines)
        # Column widths are consistent.
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_with_title(self):
        table = format_table(["a"], [[1]], title="Table X")
        assert table.splitlines()[0] == "Table X"

    def test_print_experiment_header(self, capsys):
        print_experiment_header("Table 5", "IS sizes", "scale=0.001")
        captured = capsys.readouterr().out
        assert "Table 5: IS sizes" in captured
        assert "scale=0.001" in captured
