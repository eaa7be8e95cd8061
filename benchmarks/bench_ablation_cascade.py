"""Ablation — the cascading worst case of Figure 5 and the early-stop knob.

Section 5.4 constructs a cascade-swap graph on which one round of swaps
frees exactly one further swap, so the number of rounds grows linearly
with the chain length; Section 7.4 argues that stopping after three rounds
sacrifices almost nothing on *real* (power-law) graphs.  This ablation
measures both claims side by side:

* on the adversarial cascade graph the round count grows linearly and an
  early stop leaves most of the optimum on the table;
* on a power-law graph of comparable size the full run needs only a few
  rounds, so the early stop costs (essentially) nothing.
"""

from __future__ import annotations

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.graphs.cascade import (
    cascade_initial_independent_set,
    cascade_optimal_size,
    cascade_swap_graph,
)
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.reporting import format_table, print_experiment_header

_CHAIN_LENGTHS = (5, 10, 20, 40)


def test_ablation_cascade_worst_case_vs_power_law(benchmark, bench_scale, bench_seed):
    """Contrast the Figure 5 worst case with typical power-law behaviour."""

    def run():
        cascade_rows = []
        for triples in _CHAIN_LENGTHS:
            graph = cascade_swap_graph(triples)
            initial = cascade_initial_independent_set(triples)
            full = one_k_swap(graph, initial=initial, order="id")
            early = one_k_swap(graph, initial=initial, order="id", max_rounds=3)
            cascade_rows.append(
                (triples, full.num_rounds, full.size, early.size, cascade_optimal_size(triples))
            )
        plrg = plrg_graph_with_vertex_count(int(3_000 * bench_scale), 2.0, seed=bench_seed)
        plrg_full = one_k_swap(plrg, initial=greedy_mis(plrg))
        plrg_early = one_k_swap(plrg, initial=greedy_mis(plrg), max_rounds=3)
        return cascade_rows, plrg_full, plrg_early

    cascade_rows, plrg_full, plrg_early = benchmark.pedantic(run, rounds=1, iterations=1)

    print_experiment_header(
        "Ablation (Figure 5)",
        "Cascading worst case: rounds grow linearly, early stop loses quality",
    )
    print(format_table(
        ["chain triples", "rounds (full)", "size (full)", "size (3 rounds)", "optimum"],
        [list(row) for row in cascade_rows],
    ))
    print()
    print(format_table(
        ["graph", "rounds", "size"],
        [
            ["power-law full run", plrg_full.num_rounds, plrg_full.size],
            ["power-law early stop (3 rounds)", plrg_early.num_rounds, plrg_early.size],
        ],
    ))

    # Worst case: the round count tracks the chain length and the early
    # stop misses part of the optimum for long chains.
    for triples, rounds, full_size, early_size, optimum in cascade_rows:
        assert full_size == optimum
        assert rounds >= triples
        if triples > 5:
            assert early_size < optimum
    # Power-law graphs: the early stop is essentially free.
    assert plrg_early.size >= 0.99 * plrg_full.size
