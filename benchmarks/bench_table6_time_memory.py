"""Table 6 — running time and memory cost of every algorithm per dataset.

The paper's Table 6 reports wall-clock time and main-memory consumption of
DynamicUpdate, STXXL, Greedy, One-k-swap and Two-k-swap on the ten real
datasets.  The headline claims:

* the semi-external algorithms need orders of magnitude less memory than
  the in-memory DynamicUpdate (e.g. 469 MB vs. "does not fit" for the
  59M-vertex Facebook graph);
* Greedy is the fastest pass; the swap passes cost a small multiple of it;
* memory grows linearly in |V| (not |E|) for the semi-external passes.

Absolute times are not comparable (C++ on a 2015 testbed vs. pure Python
on scaled stand-ins), so the benchmark reports measured seconds plus the
*modeled* memory of each algorithm and checks the relative shape.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.baselines.dynamic_update import dynamic_update_mis
from repro.baselines.external_mis import external_maximal_is
from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.two_k import two_k_swap
from repro.graphs.graph import Graph
from repro.reporting import format_table, print_experiment_header
from repro.storage.memory import MemoryModel

from bench_common import BENCH_DATASETS, PAPER_TABLE6_MEMORY_MB, dataset_standin

#: A subset of datasets keeps the timing benchmark quick; the memory model
#: is evaluated for all ten.
_TIMED_DATASETS = ("astroph", "dblp", "youtube", "citeseerx", "facebook")


def _run_timed(graph: Graph) -> Dict[str, object]:
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    greedy = greedy_mis(graph)
    timings["greedy"] = time.perf_counter() - start

    start = time.perf_counter()
    one_k = one_k_swap(graph, initial=greedy)
    timings["one_k_swap"] = time.perf_counter() - start

    start = time.perf_counter()
    two_k = two_k_swap(graph, initial=greedy)
    timings["two_k_swap"] = time.perf_counter() - start

    start = time.perf_counter()
    dynamic_update_mis(graph)
    timings["dynamic_update"] = time.perf_counter() - start

    start = time.perf_counter()
    external_maximal_is(graph)
    timings["external_mis"] = time.perf_counter() - start

    return {
        "timings": timings,
        "greedy_memory": greedy.memory_bytes,
        "one_k_memory": one_k.memory_bytes,
        "two_k_memory": two_k.memory_bytes,
        "max_sc": int(two_k.extras.get("max_sc_vertices", 0)),
    }


def test_table6_time_and_memory(benchmark, bench_scale, bench_seed):
    """Regenerate Table 6: timings on stand-ins plus the analytic memory model."""

    graphs = {
        name: dataset_standin(name, bench_scale, bench_seed) for name in _TIMED_DATASETS
    }

    def run():
        return {name: _run_timed(graph) for name, graph in graphs.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name in _TIMED_DATASETS:
        data = results[name]
        timings = data["timings"]
        rows.append([
            name,
            graphs[name].num_vertices,
            timings["dynamic_update"],
            timings["external_mis"],
            timings["greedy"],
            timings["one_k_swap"],
            timings["two_k_swap"],
            data["greedy_memory"] / 2**20,
            data["one_k_memory"] / 2**20,
            data["two_k_memory"] / 2**20,
        ])
    print_experiment_header(
        "Table 6 (measured)",
        "Wall-clock seconds and modeled memory (MB) on scaled stand-ins",
        "paper measured a C++ implementation on the full datasets",
    )
    print(format_table(
        ["dataset", "|V|", "DU s", "STXXL s", "Greedy s", "1-k s", "2-k s",
         "Greedy MB", "1-k MB", "2-k MB"],
        rows,
        precision=4,
    ))

    # Paper-scale memory model: evaluate the model at the *real* dataset
    # sizes and compare with the paper's reported MBs.
    model = MemoryModel()
    paper_rows = []
    from repro.graphs.datasets import dataset_spec

    for name in BENCH_DATASETS:
        spec = dataset_spec(name)
        greedy_mb = model.greedy_bytes(spec.real_vertices) / 2**20
        one_k_mb = model.one_k_swap_bytes(spec.real_vertices) / 2**20
        two_k_mb = model.two_k_swap_bytes(
            spec.real_vertices, int(0.13 * spec.real_vertices)
        ) / 2**20
        paper_greedy, paper_one_k, paper_two_k = PAPER_TABLE6_MEMORY_MB[name]
        paper_rows.append([
            name, greedy_mb, paper_greedy, one_k_mb, paper_one_k, two_k_mb, paper_two_k,
        ])
    print_experiment_header(
        "Table 6 (memory model at paper scale)",
        "Modeled MB at the real |V| vs the paper's reported MB",
    )
    print(format_table(
        ["dataset", "Greedy MB", "paper", "1-k MB", "paper", "2-k MB", "paper"],
        paper_rows,
        precision=2,
    ))

    # Shape assertions.
    for name in _TIMED_DATASETS:
        data = results[name]
        assert data["greedy_memory"] < data["one_k_memory"] < data["two_k_memory"]
        assert data["timings"]["greedy"] <= data["timings"]["two_k_swap"] * 5
    # The modeled two-k memory at Facebook scale is within 2x of the paper's 469MB.
    facebook_two_k = model.two_k_swap_bytes(59_220_000, int(0.13 * 59_220_000)) / 2**20
    assert 0.5 < facebook_two_k / 468.9 < 2.0
