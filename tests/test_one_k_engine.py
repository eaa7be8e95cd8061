"""The record-major one-k engine at its wave boundaries.

The numpy backend runs Algorithm 2's pre-swap scan as conflict-free
segments, searched for in chunks of ``_WAVE_WINDOW`` candidates.  The
chunk size must never change an outcome, so the engine is run with
windows of 1, 3 and 64 candidates — every segment cut then lands at a
different place relative to a chunk edge — over uniform (gnm), skewed
(PLRG), cascade and oscillating graphs.  The cascade graph packs many
same-anchor candidates into chains of adjacent candidates, with links
between the groups, so the pointer-count fold and the dependency edges
both carry the result.  On the oscillating graph only the guard stops
the unbounded loop.

Each run must equal the python reference: set, round telemetry, every
whole ``on_round`` snapshot (oscillation fingerprints included) and
modeled ``IOStats``, on in-memory and ``SEXTCSR1`` memmap sources.
Resuming from any snapshot, on either backend, must finish exactly like
the uninterrupted run.  A serial in-memory solve must not touch POSIX shared
memory.
"""

from __future__ import annotations

import glob
import json
import os
import random

import numpy as np
import pytest

from repro.core import one_k_swap
from repro.core.kernels import get_backend
from repro.core.kernels import numpy_backend
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import write_adjacency_file
from repro.storage.binary_format import MemmapAdjacencySource
from repro.storage.converters import adjacency_to_binary
from repro.storage.scan import InMemoryAdjacencyScan
from snapshot_helpers import oscillating_graph, plain

KINDS = ("gnm", "plrg", "cascade", "oscillating")


def _cascade_graph(groups: int = 10, size: int = 30, seed: int = 5):
    """IS anchors ``0..groups-1``, each with ``size`` candidate neighbours.

    Candidates of one anchor form chains (consecutive candidates are
    adjacent with probability 0.6), and random links join candidates of
    different anchors.  Returns the graph and the anchor set.
    """

    rng = random.Random(seed)
    edges = set()

    def cand(k: int, i: int) -> int:
        return groups + k * size + i

    for k in range(groups):
        for i in range(size):
            edges.add((k, cand(k, i)))
            if i + 1 < size and rng.random() < 0.6:
                edges.add((cand(k, i), cand(k, i + 1)))
    for _ in range(groups * size // 3):
        k1, k2 = rng.sample(range(groups), 2)
        edges.add((cand(k1, rng.randrange(size)), cand(k2, rng.randrange(size))))
    return Graph(groups * (size + 1), sorted(edges)), np.arange(groups, dtype=np.int64)


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    root = tmp_path_factory.mktemp("one-k-engine")
    python = get_backend("python")
    built = {}
    for kind in KINDS:
        if kind == "cascade":
            graph, initial = _cascade_graph()
        else:
            if kind == "gnm":
                graph = erdos_renyi_gnm(700, 2_100, seed=11)
            elif kind == "plrg":
                graph = plrg_graph_with_vertex_count(800, 2.1, seed=4)
            else:
                graph = oscillating_graph()
            initial = python.greedy_pass(InMemoryAdjacencyScan(graph))
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


def _run(backend: str, source, initial, resume=None):
    snapshots = []
    try:
        out = get_backend(backend).one_k_swap_pass(
            source,
            initial,
            None,
            resume=resume,
            on_round=lambda snapshot: snapshots.append(plain(snapshot)),
        )
        return plain(out), snapshots, source.stats.as_dict()
    finally:
        getattr(source, "close", lambda: None)()


@pytest.mark.parametrize("source_kind", ["memory", "memmap"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("window", [1, 3, 64])
def test_wave_window_parity_and_resume(cases, monkeypatch, window, kind, source_kind):
    case = cases[kind]
    initial = case[1]
    reference, ref_snaps, ref_io = _run("python", _open(case, source_kind), initial)

    monkeypatch.setattr(numpy_backend, "_WAVE_WINDOW", window)
    result, snaps, io = _run("numpy", _open(case, source_kind), initial)

    assert result == reference
    assert snaps == ref_snaps
    assert io == ref_io
    if kind == "cascade":
        assert reference[1][0].one_k_swaps > 0, "cascade must exercise 1-k swaps"
    assert reference[2] == (kind == "oscillating")

    # The snapshots are the same on both backends, so each resumes on either.
    for snapshot in snaps:
        persisted = json.loads(json.dumps(snapshot))
        for backend in ("numpy", "python"):
            resumed, _, _ = _run(
                backend, _open(case, source_kind), np.empty(0, np.int64),
                resume=persisted,
            )
            assert resumed == result


def test_serial_in_memory_solve_creates_no_shared_memory(monkeypatch):
    from multiprocessing import shared_memory

    created = []

    class _Spy(shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs):
            created.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", _Spy)
    before = set(glob.glob("/dev/shm/psm_*"))
    graph = erdos_renyi_gnm(2_000, 8_000, seed=3)
    result = one_k_swap(graph, backend="numpy")
    assert result.size > 0
    assert not created
    if os.path.isdir("/dev/shm"):
        assert set(glob.glob("/dev/shm/psm_*")) <= before
