"""The record-major two-k engine against the python reference.

The numpy backend decides Algorithm 4's pre-swap scan with vectorized
round-start verdicts and runs the candidate body only on the candidates
that may act and on the "hazard" candidates an earlier event reached (a
moved neighbour, or a touched anchor shared with it).  Missing a hazard
changes an outcome somewhere, so the engine is compared with the
reference over uniform (gnm), skewed (PLRG, three exponents) and hub
graphs, every combination of the ``max_pairs_per_key`` and
``max_partner_checks`` caps, and initial sets that are random subsets of
the greedy set — a maximal start almost never reaches the post-swap 0-1
insertions.  The oscillating graph starts from the whole greedy set, and
only the guard stops its unbounded loop.

Each run must equal the reference on the set, round telemetry, extras,
modeled ``IOStats`` and every whole ``on_round`` snapshot (oscillation
fingerprints included), on in-memory and ``SEXTCSR1`` memmap sources;
resuming from any snapshot, on either backend, must finish exactly like
the uninterrupted run.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.kernels import get_backend
from repro.core.result import as_members
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import write_adjacency_file
from repro.storage.binary_format import MemmapAdjacencySource
from repro.storage.converters import adjacency_to_binary
from repro.storage.scan import InMemoryAdjacencyScan
from snapshot_helpers import oscillating_graph, plain

KINDS = ("gnm", "plrg18", "plrg21", "plrg25", "hub", "oscillating")


def _hub_graph(hubs: int = 8, size: int = 30, seed: int = 7):
    """IS hubs ``0..hubs-1`` with ``size`` candidates each.

    Every candidate hangs off its own hub and, with probability 0.95, off
    a second one, so each hub has many two-anchor members and few single
    ones (the 1-2 swaps do not retire every hub before the 2-3 skeletons).
    Candidates of one hub form chains, and random links join candidates
    of different hubs.  Returns the graph and the hub set.
    """

    rng = random.Random(seed)
    edges = set()

    def cand(k: int, i: int) -> int:
        return hubs + k * size + i

    for k in range(hubs):
        for i in range(size):
            edges.add((k, cand(k, i)))
            if rng.random() < 0.95:
                other = rng.randrange(hubs)
                if other != k:
                    edges.add((other, cand(k, i)))
            if i + 1 < size and rng.random() < 0.8:
                edges.add((cand(k, i), cand(k, i + 1)))
    for _ in range(hubs * size // 2):
        a, b = rng.sample(range(hubs, hubs * (size + 1)), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(hubs * (size + 1), sorted(edges)), np.arange(hubs, dtype=np.int64)


def _build(kind: str):
    if kind == "hub":
        return _hub_graph()
    if kind == "oscillating":
        graph = oscillating_graph()
        return graph, get_backend("python").greedy_pass(InMemoryAdjacencyScan(graph))
    if kind == "gnm":
        graph = erdos_renyi_gnm(600, 1_800, seed=11)
    else:
        beta = {"plrg18": 1.8, "plrg21": 2.1, "plrg25": 2.5}[kind]
        graph = plrg_graph_with_vertex_count(700, beta, seed=4)
    greedy = get_backend("python").greedy_pass(InMemoryAdjacencyScan(graph)).tolist()
    rng = random.Random(kind)
    return graph, as_members([v for v in greedy if rng.random() < 0.6])


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    root = tmp_path_factory.mktemp("two-k-engine")
    built = {}
    for kind in KINDS:
        graph, initial = _build(kind)
        text = str(root / f"{kind}.adj")
        write_adjacency_file(
            graph, text, order=list(graph.degree_ascending_order())
        ).close()
        binary = str(root / f"{kind}.csr")
        adjacency_to_binary(text, binary)
        built[kind] = (graph, initial, binary)
    return built


def _open(case, source_kind):
    graph, _initial, binary = case
    if source_kind == "memory":
        return InMemoryAdjacencyScan(graph)
    return MemmapAdjacencySource(binary)


def _run(backend, source, initial, pairs, checks, resume=None):
    snapshots = []
    try:
        out = get_backend(backend).two_k_swap_pass(
            source, initial, None, pairs, checks,
            resume=resume,
            on_round=lambda snapshot: snapshots.append(plain(snapshot)),
        )
        return plain(out), snapshots, source.stats.as_dict()
    finally:
        getattr(source, "close", lambda: None)()


@pytest.fixture(scope="module")
def references(cases):
    """Python reference runs, memoised per (kind, source, caps)."""

    memo = {}

    def get(kind, source_kind, pairs, checks):
        key = (kind, source_kind, pairs, checks)
        if key not in memo:
            case = cases[kind]
            memo[key] = _run(
                "python", _open(case, source_kind), case[1], pairs, checks
            )
        return memo[key]

    return get


@pytest.mark.parametrize("source_kind", ["memory", "memmap"])
@pytest.mark.parametrize("checks", [1, 3, 64])
@pytest.mark.parametrize("pairs", [1, 2, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_parity_and_resume(cases, references, kind, pairs, checks, source_kind):
    case = cases[kind]
    reference, ref_snaps, ref_io = references(kind, source_kind, pairs, checks)
    result, snaps, io = _run(
        "numpy", _open(case, source_kind), case[1], pairs, checks
    )

    # (set, RoundStats, max_sc_vertices, oscillation flag)
    assert result == reference
    assert snaps == ref_snaps
    assert io == ref_io

    # The snapshots are the same on both backends, so each resumes on either.
    for snapshot in snaps:
        persisted = json.loads(json.dumps(snapshot))
        for backend in ("numpy", "python"):
            resumed, _, _ = _run(
                backend, _open(case, source_kind), np.empty(0, np.int64), pairs,
                checks, resume=persisted,
            )
            assert resumed == result


def test_cases_exercise_every_event(references):
    """The grid reaches 2-3 skeletons, 1-2 swaps, post-swap insertions and
    the random lookups of the 2-3 re-verification."""

    runs = [
        references(kind, "memory", pairs, checks)
        for kind in KINDS
        for pairs in (1, 2, 8)
        for checks in (1, 3, 64)
    ]
    rounds = [r for (out, _snaps, _io) in runs for r in out[1]]
    assert any(r.two_k_swaps for r in rounds)
    assert any(r.one_k_swaps for r in rounds)
    # The final completion folds into the last round; earlier rounds count
    # only the post-swap scan's own insertions.
    assert any(r.zero_one_swaps for (out, _s, _io) in runs for r in out[1][:-1])
    assert any(io["random_vertex_lookups"] > 0 for (_out, _snaps, io) in runs)
    # The hub graph is the dense same-anchor / two-anchor case.
    hub, _snaps, hub_io = references("hub", "memory", 8, 64)
    assert hub[1][0].two_k_swaps > 0 and hub_io["random_vertex_lookups"] > 0
    # Only the oscillating graph engages the guard.
    fired = {
        kind: any(
            references(kind, "memory", pairs, checks)[0][3]
            for pairs in (1, 2, 8)
            for checks in (1, 3, 64)
        )
        for kind in KINDS
    }
    assert fired == {kind: kind == "oscillating" for kind in KINDS}


@pytest.mark.parametrize(
    "values",
    [
        [],
        [7],
        [-3, -3, -3, -3],
        [5, -2, 9, -2, 0, 5, -(2 ** 62), 2 ** 62],
        "random",
    ],
)
def test_sorted_unique_equals_np_unique(values):
    """``as_members``, the two-k scan's dedupe, is ``np.unique`` without numpy.ma."""

    if values == "random":
        rng = np.random.default_rng(17)
        cases = [rng.integers(-50, 50, size) for size in (2, 3, 100, 5000)]
        cases.append(rng.integers(-(2 ** 40), 2 ** 40, 2000))
    else:
        cases = [np.asarray(values, dtype=np.int64)]
    for array in cases:
        original = array.copy()
        unique = as_members(array)
        assert unique.dtype == np.int64
        assert np.array_equal(unique, np.unique(array))
        assert np.array_equal(array, original)  # the input is not sorted in place
