"""Ablation — how much the degree-ordered scan buys (Greedy vs Baseline).

Table 5 shows the degree-ordered Greedy beating the unsorted Baseline on
most datasets, and the pre-processing sort is the only difference between
the two.  This ablation quantifies the effect across the beta sweep and
also measures how much of the gap the swap passes can recover when they
start from the *unsorted* baseline — the paper's "One-k-swap (after
Baseline)" columns.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.reporting import format_table, print_experiment_header

from bench_common import BETA_SWEEP

_BASE_VERTICES = 4_000


def _orders_for_beta(beta: float, num_vertices: int, seed: int) -> Tuple[int, int, int, int]:
    params = PLRGParameters.from_vertex_count(num_vertices, beta)
    graph = plrg_graph(params, seed=seed, sort_by_degree=False)
    baseline = greedy_mis(graph, order="id")
    greedy = greedy_mis(graph, order="degree")
    recovered = one_k_swap(graph, initial=baseline, order="id")
    improved = one_k_swap(graph, initial=greedy, order="degree")
    return baseline.size, greedy.size, recovered.size, improved.size


def test_ablation_scan_order_effect(benchmark, bench_scale, bench_seed):
    """Measure the value of the degree-ordered scan across the beta sweep."""

    num_vertices = int(_BASE_VERTICES * bench_scale)

    def run() -> Dict[float, Tuple[int, int, int, int]]:
        return {
            beta: _orders_for_beta(beta, num_vertices, bench_seed)
            for beta in BETA_SWEEP[::2]  # every other beta keeps the ablation quick
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for beta, (baseline, greedy, recovered, improved) in sorted(results.items()):
        rows.append([
            beta, baseline, greedy, greedy - baseline, recovered, improved,
        ])
    print_experiment_header(
        "Ablation (scan order)",
        "Unsorted Baseline vs degree-ordered Greedy, and swap recovery",
        f"synthetic P(alpha, beta) graphs with ~{num_vertices:,} vertices",
    )
    print(format_table(
        ["beta", "baseline", "greedy", "greedy - baseline",
         "one-k after baseline", "one-k after greedy"],
        rows,
    ))

    for beta, (baseline, greedy, recovered, improved) in results.items():
        # The degree order never hurts, and the swaps recover most of the
        # gap even when they start from the unsorted baseline.
        assert greedy >= baseline
        assert recovered >= baseline
        assert improved >= greedy
        assert recovered >= 0.95 * greedy
