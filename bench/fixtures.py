"""Benchmark inputs, generated from the run's seed (outside every metric)."""

from __future__ import annotations

import random

import numpy as np

from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.storage.adjacency_file import write_adjacency_file


def plrg(num_vertices: int, seed: int, beta: float = 2.1):
    return plrg_graph(PLRGParameters.from_vertex_count(num_vertices, beta), seed=seed)


def gnm(num_vertices: int, num_edges: int, seed: int):
    return erdos_renyi_gnm(num_vertices, num_edges, seed=seed)


def write_adjacency(graph, path: str) -> None:
    """Write the graph as an adjacency file in degree order (``generate``'s layout)."""

    device = write_adjacency_file(
        graph, path, order=list(graph.degree_ascending_order())
    )
    device.close()


def fingerprint(graph, seed: int, family: str) -> dict:
    """n, m, max degree and degree skew (standardized third moment)."""

    offsets, _targets = graph.csr_arrays()
    degrees = np.diff(np.asarray(offsets, dtype=np.int64)).astype(np.float64)
    mean = float(degrees.mean()) if degrees.size else 0.0
    std = float(degrees.std()) if degrees.size else 0.0
    skew = float(((degrees - mean) ** 3).mean() / std**3) if std > 0 else 0.0
    return {
        "family": family,
        "seed": seed,
        "n": int(graph.num_vertices),
        "m": int(graph.num_edges),
        "max_degree": int(degrees.max()) if degrees.size else 0,
        "mean_degree": mean,
        "degree_skew": skew,
    }


def update_stream(graph, count: int, seed: int, insert_fraction: float = 0.7):
    """A mixed ``+ u v`` / ``- u v`` update file body over the graph's vertices.

    Insertions draw random vertex pairs (an already present edge is a
    no-op); deletions draw from the original edge list, so most of them
    remove a live edge.
    """

    rng = random.Random(seed)
    n = graph.num_vertices
    offsets, targets = graph.csr_arrays()
    offsets = np.asarray(offsets, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    forward = sources < targets
    edge_u = sources[forward].tolist()
    edge_v = targets[forward].tolist()
    lines = []
    for _ in range(count):
        if rng.random() < insert_fraction:
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            lines.append(f"+ {u} {v}\n")
        else:
            i = rng.randrange(len(edge_u))
            lines.append(f"- {edge_u[i]} {edge_v[i]}\n")
    return "".join(lines)
