"""Whole-graph saturation of the dynamic maintainer against the all-vertex loop.

Construction and ``rebuild()`` saturate only the vertices that are
present, unselected and untight.  The oracle below is the loop they used
to run: every present vertex in ``(degree, id)`` order, re-checking
``selected`` and ``tight`` at each visit.  Both must make the same
``_select`` calls in the same order and leave the same flags, tightness,
counters and journal.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dynamic.maintainer import DynamicMISMaintainer
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.graph import Graph
from repro.graphs.plrg import PLRGParameters, plrg_graph

BACKENDS = ("python", "numpy")

GRAPHS = {
    "gnm": lambda: erdos_renyi_gnm(400, 900, seed=11),
    "plrg": lambda: plrg_graph(PLRGParameters.from_vertex_count(400, 2.1), seed=12),
    # Ten vertices (capacity 16 leaves slack past the last id), four of
    # them isolated.
    "isolated": lambda: Graph(10, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]),
}


def oracle_saturate(maintainer, candidates):
    """The all-vertex loop: ignores ``candidates`` and visits every present id."""

    pool = sorted(
        (v for v in range(maintainer._capacity) if maintainer._present[v]),
        key=lambda v: (maintainer._degree[v], v),
    )
    for vertex in pool:
        if maintainer._selected[vertex]:
            continue
        if not maintainer._tight[vertex]:
            maintainer._select(vertex)


def run_recorded(monkeypatch, action, oracle=False):
    """Run ``action()`` recording every ``_select`` call, in order.

    Construction clears the journal, so the calls are taken from a
    wrapper around ``_select``.  With ``oracle`` the whole-graph
    saturation inside ``action`` is the all-vertex loop.
    """

    calls = []
    select = DynamicMISMaintainer._select

    def recording_select(self, vertex):
        calls.append(int(vertex))
        select(self, vertex)

    with monkeypatch.context() as patch:
        patch.setattr(DynamicMISMaintainer, "_select", recording_select)
        if oracle:
            patch.setattr(DynamicMISMaintainer, "_saturate", oracle_saturate)
        result = action()
    return result, calls


def assert_same_state(got, want):
    assert np.array_equal(got._present, want._present)
    assert np.array_equal(got._selected, want._selected)
    assert np.array_equal(got._tight, want._tight)
    assert got.stats == want.stats
    assert got.journal == want.journal


def random_independent_subset(graph, seed):
    """Half of a random-order greedy independent set: independent, not maximal."""

    rng = random.Random(seed)
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    chosen, blocked = [], set()
    for v in order:
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked.update(graph.neighbors(v))
    return sorted(rng.sample(chosen, len(chosen) // 2))


def initial_set(kind, graph):
    if kind == "solver":
        return None
    if kind == "empty":
        return []
    return random_independent_subset(graph, seed=graph.num_vertices)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("initial_kind", ["solver", "empty", "random"])
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_construction_matches_the_all_vertex_loop(
    monkeypatch, family, initial_kind, backend
):
    graph = GRAPHS[family]()
    initial = initial_set(initial_kind, graph)

    def build():
        return DynamicMISMaintainer(graph, initial=initial, backend=backend)

    got, got_calls = run_recorded(monkeypatch, build)
    want, want_calls = run_recorded(monkeypatch, build, oracle=True)
    assert got_calls == want_calls
    assert_same_state(got, want)
    assert got.stats.additions == len(got_calls)
    got.check_invariants()
    if initial_kind == "empty":
        assert got_calls  # the loop did real work
    if family == "isolated":
        assert got._capacity > graph.num_vertices
        if initial_kind == "empty":
            assert {4, 8, 9} <= set(got_calls)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_a_maximal_seed_selects_nothing_and_saturates_no_candidate(
    monkeypatch, family, backend
):
    graph = GRAPHS[family]()
    handed = []
    saturate = DynamicMISMaintainer._saturate

    def spying_saturate(self, candidates):
        handed.append(list(candidates))
        saturate(self, candidates)

    monkeypatch.setattr(DynamicMISMaintainer, "_saturate", spying_saturate)
    maintainer, calls = run_recorded(
        monkeypatch, lambda: DynamicMISMaintainer(graph, backend=backend)
    )
    assert calls == []
    assert handed == [[]]
    assert maintainer.stats.additions == 0


def churned_maintainer(graph, backend):
    """A maintainer whose ids include deleted vertices and capacity slack."""

    maintainer = DynamicMISMaintainer(graph, backend=backend)
    rng = random.Random(graph.num_vertices)
    for vertex in rng.sample(range(graph.num_vertices), graph.num_vertices // 10 + 1):
        maintainer.delete_vertex(vertex)
    top = graph.num_vertices
    maintainer.apply_updates(
        [(top + 2, 0), (top + 2, top + 4), (top + 7, 3)]
        + [tuple(rng.sample(range(top), 2)) for _ in range(20)],
        [tuple(rng.sample(range(top), 2)) for _ in range(10)],
    )
    return maintainer


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("partial", [False, True], ids=["solver", "partial"])
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_rebuild_matches_the_all_vertex_loop(monkeypatch, family, partial, backend):
    graph = GRAPHS[family]()
    got = churned_maintainer(graph, backend)
    want = churned_maintainer(graph, backend)
    assert_same_state(got, want)
    absent = np.flatnonzero(~got._present[: got._max_id + 1])
    assert absent.size > 0  # deleted ids and never-created placeholders
    assert got._capacity > got._max_id + 1
    if partial:
        # A rebuild from a non-maximal independent set, so that its
        # saturation selects vertices.
        subset = random_independent_subset(got.to_graph(), seed=5)
        solution = SimpleNamespace(members=np.asarray(subset, dtype=np.int64))
        monkeypatch.setattr(
            "repro.dynamic.maintainer.solve_mis", lambda *a, **k: solution
        )

    _, got_calls = run_recorded(monkeypatch, got.rebuild)
    _, want_calls = run_recorded(monkeypatch, want.rebuild, oracle=True)
    assert got_calls == want_calls
    assert_same_state(got, want)
    got.check_invariants()
    if partial:
        assert got_calls
        assert not (set(got_calls) & set(absent.tolist()))
