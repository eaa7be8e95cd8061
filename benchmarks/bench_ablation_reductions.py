"""Ablation — kernelization before the semi-external passes.

The reducing-peeling line of work that followed the paper interleaves
exact reductions with heuristics.  This ablation measures what the three
classic rules (isolated / pendant / fold) buy on top of the paper's
pipeline for the beta sweep:

* how much of the graph the reductions remove (kernel size);
* whether `reduce + two-k-swap on the kernel` matches or beats the plain
  two-k-swap pipeline;
* the cost profile (rule applications vs. swap rounds).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.greedy import greedy_mis
from repro.core.two_k import two_k_swap
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.reductions.kernel import reduce_graph, reduced_mis
from repro.reporting import format_table, print_experiment_header

from bench_common import BETA_SWEEP

_BASE_VERTICES = 4_000


def _point(beta: float, num_vertices: int, seed: int):
    params = PLRGParameters.from_vertex_count(num_vertices, beta)
    graph = plrg_graph(params, seed=seed)
    plain = two_k_swap(graph, initial=greedy_mis(graph))
    reduced = reduce_graph(graph)
    with_reductions = reduced_mis(graph)
    return {
        "vertices": graph.num_vertices,
        "kernel_vertices": reduced.kernel_size,
        "plain_two_k": plain.size,
        "reduced_two_k": with_reductions.size,
        "rule_applications": reduced.stats.total,
        "folds": reduced.stats.folds,
    }


def test_ablation_reductions_plus_swaps(benchmark, bench_scale, bench_seed):
    """Measure the effect of exact reductions ahead of the swap pipeline."""

    num_vertices = int(_BASE_VERTICES * bench_scale)
    betas = BETA_SWEEP[::2]

    def run() -> Dict[float, Dict[str, int]]:
        return {beta: _point(beta, num_vertices, bench_seed) for beta in betas}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for beta in betas:
        data = results[beta]
        rows.append([
            beta,
            data["vertices"],
            data["kernel_vertices"],
            data["kernel_vertices"] / data["vertices"],
            data["plain_two_k"],
            data["reduced_two_k"],
            data["folds"],
        ])
    print_experiment_header(
        "Ablation (reductions)",
        "Kernelization (isolated/pendant/fold) ahead of the two-k-swap pipeline",
        f"synthetic P(alpha, beta) graphs with ~{num_vertices:,} vertices",
    )
    print(format_table(
        ["beta", "|V|", "kernel |V|", "kernel fraction",
         "two-k-swap", "reduce + two-k", "folds"],
        rows,
    ))

    for beta in betas:
        data = results[beta]
        # The rules must shrink a power-law graph substantially and the
        # combined pipeline must never fall behind the plain pipeline by
        # more than a whisker.
        assert data["kernel_vertices"] < data["vertices"]
        assert data["reduced_two_k"] >= data["plain_two_k"] - 2
