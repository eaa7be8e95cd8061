"""Figure 8 — empirical performance ratio of the three algorithms vs beta.

The paper runs Greedy, One-k-swap and Two-k-swap on synthetic PLRG graphs
(|V| = 10M, beta from 1.7 to 2.7), divides each size by the Algorithm-5
optimal bound and plots the three series.  All ratios are above 0.99, the
swap variants dominate the greedy curve, and the ratios improve as beta
grows (sparser graphs).

The benchmark regenerates the three series on scaled graphs and asserts
the dominance and the monotone trend between the sweep's endpoints.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.upper_bound import independence_upper_bound
from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.two_k import two_k_swap
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.reporting import format_table, print_experiment_header

from bench_common import BETA_SWEEP

_BASE_VERTICES = 5_000


def _ratios_for_beta(beta: float, num_vertices: int, seed: int) -> Tuple[float, float, float]:
    params = PLRGParameters.from_vertex_count(num_vertices, beta)
    graph = plrg_graph(params, seed=seed)
    bound = independence_upper_bound(graph)
    greedy = greedy_mis(graph)
    one_k = one_k_swap(graph, initial=greedy)
    two_k = two_k_swap(graph, initial=greedy)
    return greedy.size / bound, one_k.size / bound, two_k.size / bound


def test_figure8_empirical_ratio_sweep(benchmark, bench_scale, bench_seed):
    """Regenerate the Figure 8 series (three ratios per beta)."""

    num_vertices = int(_BASE_VERTICES * bench_scale)

    def run() -> Dict[float, Tuple[float, float, float]]:
        return {
            beta: _ratios_for_beta(beta, num_vertices, bench_seed) for beta in BETA_SWEEP
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [beta, series[beta][0], series[beta][1], series[beta][2]]
        for beta in BETA_SWEEP
    ]
    print_experiment_header(
        "Figure 8",
        "Empirical approximation ratio of Greedy / One-k / Two-k vs beta",
        f"synthetic P(alpha, beta) graphs with ~{num_vertices:,} vertices "
        f"(paper: 10,000,000; all paper series lie above 0.99)",
    )
    print(format_table(["beta", "greedy", "one-k-swap", "two-k-swap"], rows))

    for beta in BETA_SWEEP:
        greedy_ratio, one_k_ratio, two_k_ratio = series[beta]
        assert one_k_ratio >= greedy_ratio
        assert two_k_ratio >= greedy_ratio
        assert greedy_ratio > 0.9
        assert two_k_ratio <= 1.0 + 1e-9
    # Ratio improves from the densest to the sparsest end of the sweep.
    assert series[BETA_SWEEP[-1]][2] >= series[BETA_SWEEP[0]][0]
