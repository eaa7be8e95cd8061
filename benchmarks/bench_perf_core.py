"""Core-kernel performance regression harness.

Times the hot paths of the system — CSR graph construction, the
Algorithm-1 greedy pass, the Algorithm-2 one-k-swap pass, the
Algorithm-3/4 two-k-swap pass, the **semi-external** file path
(numpy kernels vs. the record-streaming python reference over the same
text adjacency file: text inputs spill once to a private ``SEXTCSR1``
memmap; the spill is not charged to ``IOStats``), the **in-memory comparators** of
Tables 5–6 (the (1,2)-swap local search and the DynamicUpdate
minimum-degree greedy) and the **pipeline-engine dispatch overhead**
(the greedy pass via ``solve_mis`` vs. the direct ``greedy_mis`` call,
reported as ``engine_overhead_pct``) and the **observability-overhead
guard** (the same engine run with the metrics registry + span tracer
active vs. plain, reported as ``obs_overhead_pct``; the instrumented
run must stay within noise) — on PLRG graphs for both kernel
backends — plus the **binary CSR artifact** rows (``backend: memmap``):
one-time convert cost, text-parse vs. zero-parse startup, the
memmap-backed greedy pass and the serial memmap two-k pass to
convergence, with text-vs-memmap parity asserted on sets, rounds and
modeled ``IOStats`` — plus the **process start-up** row (``backend:
startup``): the median of fresh-process ``import repro.cli`` and
``python -m repro --help`` runs, the fixed cost every CLI process pays
before it opens its input (whether ``PYTHONDONTWRITEBYTECODE`` was set,
i.e. whether every process compiled its modules, is recorded in
``config``) — and
writes the measurements, plus the numpy-over-python speedups, to
``BENCH_core.json`` at the repository root.  This file is the perf
trajectory of the project: every PR runs at least the ``--smoke``
configuration in CI, and the committed JSON records the full sweep.

Usage
-----
::

    python benchmarks/bench_perf_core.py              # full sweep (1e4..1e6)
    python benchmarks/bench_perf_core.py --smoke      # tiny CI-friendly run
    python benchmarks/bench_perf_core.py --sizes 10000,100000

The build comparison feeds each pipeline its native input: the numpy
pipeline receives the int64 edge ndarray the vectorized generators
produce, the python reference receives the same edges as a list of pairs
(the representation the original per-vertex-set builder consumed).  The
semi-external rows time a fresh ``AdjacencyFileReader`` (open + solve,
which for numpy includes the reader's one spill) over one shared
in-memory block device, so both backends read exactly the
same bytes.  The independent sets computed by the two backends are
asserted identical on every run — and for the semi-external rows the
``IOStats`` counters are asserted identical too — so the harness doubles
as an end-to-end parity check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines.dynamic_update import dynamic_update_mis  # noqa: E402
from repro.baselines.local_search import local_search_mis  # noqa: E402
from repro.core import greedy_mis, one_k_swap, solve_mis, two_k_swap  # noqa: E402
from repro.core.kernels import available_backends  # noqa: E402
from repro.graphs.graph import build_csr  # noqa: E402
from repro.obs import MetricsRegistry, Observability, SpanTracer  # noqa: E402
from repro.graphs.plrg import plrg_graph_with_vertex_count  # noqa: E402
from repro.storage.adjacency_file import (  # noqa: E402
    AdjacencyFileReader,
    write_adjacency_file,
)
from repro.storage.binary_format import MemmapAdjacencySource  # noqa: E402
from repro.storage.converters import adjacency_to_binary  # noqa: E402
from repro.storage.io_stats import IOStats  # noqa: E402

DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
SMOKE_SIZES = (2_000,)
#: The binary-artifact comparison runs its own (larger) sweep: the format
#: exists for graphs where re-parsing the text file dominates startup.
DEFAULT_MEMMAP_SIZES = (100_000, 1_000_000, 10_000_000)

#: Timing metrics shared by every row; speedups are computed for whichever
#: of these a size has in both backend rows.
TIMING_METRICS = (
    "build_seconds",
    "greedy_seconds",
    "build_plus_greedy_seconds",
    "one_k_swap_seconds",
    "two_k_swap_seconds",
    "semi_greedy_seconds",
    "semi_build_plus_greedy_seconds",
    "semi_one_k_swap_seconds",
    "local_search_seconds",
    "dynamic_update_seconds",
)


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Wall-clock seconds of the fastest of ``repeats`` runs of ``fn``."""

    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_size(
    num_vertices: int,
    beta: float,
    seed: int,
    max_rounds: int,
    repeats: int,
    python_max: int,
    two_k_python_max: int,
    semi_python_max: int,
    comparator_python_max: int,
) -> List[Dict[str, object]]:
    """Benchmark both backends at one graph size; returns one row per backend."""

    graph = plrg_graph_with_vertex_count(num_vertices, beta, seed=seed)
    edge_ndarray = graph.edge_array()
    edge_pairs = [tuple(edge) for edge in edge_ndarray.tolist()]
    # One shared file image: both backends read exactly the same bytes.
    device = write_adjacency_file(graph, backing=None, stats=IOStats())

    rows: List[Dict[str, object]] = []
    results: Dict[str, Dict[str, object]] = {}
    run_python = graph.num_vertices <= python_max

    def semi_greedy(backend: str):
        reader = AdjacencyFileReader(device, stats=IOStats())
        return greedy_mis(reader, backend=backend)

    def semi_one_k(backend: str, initial):
        reader = AdjacencyFileReader(device, stats=IOStats())
        return one_k_swap(reader, initial=initial, max_rounds=max_rounds, backend=backend)

    for backend in ("python", "numpy"):
        if backend == "python" and not run_python:
            rows.append(
                {
                    "n": graph.num_vertices,
                    "edges": graph.num_edges,
                    "backend": backend,
                    "skipped": f"python backend capped at n<={python_max}",
                }
            )
            continue
        build_input = edge_pairs if backend == "python" else edge_ndarray
        build_seconds = _best_of(
            repeats, lambda: build_csr(graph.num_vertices, build_input, backend=backend)
        )

        greedy_result = greedy_mis(graph, backend=backend)
        greedy_seconds = _best_of(repeats, lambda: greedy_mis(graph, backend=backend))

        # Engine-overhead guard: the same single greedy pass routed through
        # the pipeline engine (spec lookup, context build, stage dispatch,
        # per-stage telemetry).  The overhead percentage is tracked like any
        # other perf number — dispatch creeping past a few percent of a
        # single-scan pipeline is a regression.
        engine_greedy_seconds = _best_of(
            repeats, lambda: solve_mis(graph, pipeline="greedy", backend=backend)
        )

        # Observability-overhead guard: the same engine run with the full
        # instrumentation bundle (metrics registry + span tracer) active.
        # The instrumented run must stay within noise of the plain one —
        # the hot path only pays per-stage/per-round/per-pass hooks, never
        # per-vertex work.
        def _obs_greedy():
            solve_mis(
                graph,
                pipeline="greedy",
                backend=backend,
                obs=Observability(registry=MetricsRegistry(), tracer=SpanTracer()),
            )

        obs_greedy_seconds = _best_of(repeats, _obs_greedy)

        one_k_result = one_k_swap(
            graph, initial=greedy_result, max_rounds=max_rounds, backend=backend
        )
        one_k_seconds = _best_of(
            repeats,
            lambda: one_k_swap(
                graph, initial=greedy_result, max_rounds=max_rounds, backend=backend
            ),
        )

        row: Dict[str, object] = {
            "n": graph.num_vertices,
            "edges": graph.num_edges,
            "backend": backend,
            "build_seconds": build_seconds,
            "greedy_seconds": greedy_seconds,
            "build_plus_greedy_seconds": build_seconds + greedy_seconds,
            "one_k_swap_seconds": one_k_seconds,
            "engine_greedy_seconds": engine_greedy_seconds,
            "engine_overhead_pct": round(
                (engine_greedy_seconds - greedy_seconds)
                / max(greedy_seconds, 1e-12)
                * 100,
                2,
            ),
            "obs_greedy_seconds": obs_greedy_seconds,
            "obs_overhead_pct": round(
                (obs_greedy_seconds - engine_greedy_seconds)
                / max(engine_greedy_seconds, 1e-12)
                * 100,
                2,
            ),
            "greedy_size": greedy_result.size,
            "one_k_size": one_k_result.size,
        }
        backend_results: Dict[str, object] = {
            "greedy_set": greedy_result.independent_set,
            "one_k_set": one_k_result.independent_set,
        }

        if backend == "numpy" or graph.num_vertices <= two_k_python_max:
            two_k_result = two_k_swap(
                graph, initial=greedy_result, max_rounds=max_rounds, backend=backend
            )
            row["two_k_swap_seconds"] = _best_of(
                repeats,
                lambda: two_k_swap(
                    graph, initial=greedy_result, max_rounds=max_rounds, backend=backend
                ),
            )
            row["two_k_size"] = two_k_result.size
            backend_results["two_k_set"] = two_k_result.independent_set

        if backend == "numpy" or graph.num_vertices <= comparator_python_max:
            # In-memory comparators (Tables 5-6): local search seeded with
            # the greedy set, DynamicUpdate constructive.
            local_result = local_search_mis(
                graph, initial=greedy_result, backend=backend
            )
            row["local_search_seconds"] = _best_of(
                repeats,
                lambda: local_search_mis(
                    graph, initial=greedy_result, backend=backend
                ),
            )
            row["local_search_size"] = local_result.size
            backend_results["local_search_set"] = local_result.independent_set
            backend_results["local_search_iterations"] = local_result.extras[
                "iterations"
            ]

            dynamic_result = dynamic_update_mis(graph, backend=backend)
            row["dynamic_update_seconds"] = _best_of(
                repeats, lambda: dynamic_update_mis(graph, backend=backend)
            )
            row["dynamic_update_size"] = dynamic_result.size
            backend_results["dynamic_update_set"] = dynamic_result.independent_set

        if backend == "numpy" or graph.num_vertices <= semi_python_max:
            semi_result = semi_greedy(backend)
            row["semi_greedy_seconds"] = _best_of(repeats, lambda: semi_greedy(backend))
            # Semi-external "build" is opening the reader — included in the
            # timed callable — so build+greedy equals the greedy timing.
            row["semi_build_plus_greedy_seconds"] = row["semi_greedy_seconds"]
            row["semi_greedy_size"] = semi_result.size
            backend_results["semi_greedy_set"] = semi_result.independent_set
            backend_results["semi_greedy_io"] = semi_result.io.as_dict()

            semi_one_k_result = semi_one_k(backend, semi_result.independent_set)
            row["semi_one_k_swap_seconds"] = _best_of(
                repeats, lambda: semi_one_k(backend, semi_result.independent_set)
            )
            row["semi_one_k_size"] = semi_one_k_result.size
            backend_results["semi_one_k_set"] = semi_one_k_result.independent_set
            backend_results["semi_one_k_io"] = semi_one_k_result.io.as_dict()

        results[backend] = backend_results
        rows.append(row)

    if "python" in results and "numpy" in results:
        python_res, numpy_res = results["python"], results["numpy"]
        for key in python_res:
            if key in numpy_res and python_res[key] != numpy_res[key]:
                raise AssertionError(
                    f"backend mismatch at n={graph.num_vertices}: {key}"
                )
    device.close()
    return rows


def bench_memmap(
    num_vertices: int,
    beta: float,
    seed: int,
    repeats: int,
    parity: bool,
    workdir: Path,
) -> Dict[str, object]:
    """Benchmark the binary CSR artifact against the text adjacency file.

    "Startup" is open + scan order: the work between pointing a solver at
    an on-disk graph and holding the vertex processing order.  For the
    text format that is a full record parse; for the artifact it is a
    64-byte header read plus mapping the order section.  The row also
    times the serial numpy two-k pass to convergence over the artifact
    (from the greedy set), pinned to one CPU.  With ``parity`` the memmap
    greedy and two-k passes are asserted bit-identical (set, rounds,
    modeled ``IOStats``) to the text-reader passes over the same graph.
    """

    graph = plrg_graph_with_vertex_count(num_vertices, beta, seed=seed)
    text_path = workdir / f"plrg_{num_vertices}.adj"
    binary_path = workdir / f"plrg_{num_vertices}.csr"
    started = time.perf_counter()
    write_adjacency_file(graph, backing=str(text_path), stats=IOStats()).close()
    text_write_seconds = time.perf_counter() - started
    del graph  # the rest of the row must run from disk, like a real restart

    started = time.perf_counter()
    header = adjacency_to_binary(str(text_path), str(binary_path))
    convert_seconds = time.perf_counter() - started

    def text_startup() -> None:
        reader = AdjacencyFileReader(str(text_path), stats=IOStats())
        try:
            reader.scan_order()
        finally:
            reader.close()

    def memmap_startup() -> None:
        with MemmapAdjacencySource(str(binary_path), stats=IOStats()) as source:
            source.scan_order()

    text_startup_seconds = _best_of(repeats, text_startup)
    memmap_startup_seconds = _best_of(repeats, memmap_startup)

    def memmap_greedy():
        with MemmapAdjacencySource(str(binary_path), stats=IOStats()) as source:
            return greedy_mis(source, backend="numpy")

    memmap_result = memmap_greedy()
    memmap_greedy_seconds = _best_of(repeats, memmap_greedy)

    def memmap_two_k():
        with MemmapAdjacencySource(str(binary_path), stats=IOStats()) as source:
            return two_k_swap(
                source, initial=memmap_result, max_rounds=None, backend="numpy"
            )

    # The serial two-k pass to convergence, pinned to one CPU so the row
    # measures the kernel, not the host's spare cores.
    host_cpus = _affinity()
    two_k_cpus = host_cpus[:1] if host_cpus is not None else None
    _pin(two_k_cpus)
    try:
        memmap_two_k_result = memmap_two_k()
        memmap_two_k_seconds = _best_of(repeats, memmap_two_k)
    finally:
        _pin(host_cpus)

    row: Dict[str, object] = {
        "n": header.num_vertices,
        "edges": header.num_edges,
        "backend": "memmap",
        "digest": header.digest,
        "text_write_seconds": text_write_seconds,
        "memmap_convert_seconds": convert_seconds,
        "text_startup_seconds": text_startup_seconds,
        "memmap_startup_seconds": memmap_startup_seconds,
        "memmap_startup_speedup": round(
            text_startup_seconds / max(memmap_startup_seconds, 1e-12), 2
        ),
        "memmap_greedy_seconds": memmap_greedy_seconds,
        "memmap_greedy_size": memmap_result.size,
        "memmap_two_k_swap_seconds": memmap_two_k_seconds,
        "memmap_two_k_size": memmap_two_k_result.size,
        "memmap_two_k_rounds": memmap_two_k_result.num_rounds,
        "cpu_affinity": two_k_cpus,
    }

    if parity:

        def text_greedy():
            reader = AdjacencyFileReader(str(text_path), stats=IOStats())
            try:
                return greedy_mis(reader, backend="numpy")
            finally:
                reader.close()

        def text_two_k():
            reader = AdjacencyFileReader(str(text_path), stats=IOStats())
            try:
                return two_k_swap(
                    reader, initial=memmap_result, max_rounds=None, backend="numpy"
                )
            finally:
                reader.close()

        text_result = text_greedy()
        row["text_greedy_seconds"] = _best_of(repeats, text_greedy)
        # Text two-k runs the memmap engine over the reader's spill (each
        # fresh reader spills once); one run checks its parity.
        text_two_k_result = text_two_k()
        row["text_two_k_swap_seconds"] = text_two_k_result.elapsed_seconds
        for name, text_out, memmap_out in (
            ("greedy", text_result, memmap_result),
            ("two-k", text_two_k_result, memmap_two_k_result),
        ):
            if (
                text_out.independent_set != memmap_out.independent_set
                or text_out.rounds != memmap_out.rounds
                or text_out.io.as_dict() != memmap_out.io.as_dict()
            ):
                raise AssertionError(
                    f"memmap/text {name} mismatch at n={header.num_vertices}"
                )

    text_path.unlink()
    binary_path.unlink()
    return row


def bench_startup(repeats: int = 5) -> Dict[str, object]:
    """Median wall time of fresh ``repro-mis`` processes that do no work.

    Children inherit this process's environment, so they compile every
    module they import exactly when ``PYTHONDONTWRITEBYTECODE`` is set
    (or no bytecode cache exists yet).
    """

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (os.pathsep + path if path else "")
    commands = {
        "import_cli_seconds": [sys.executable, "-c", "import repro.cli"],
        "help_seconds": [sys.executable, "-m", "repro", "--help"],
    }
    row: Dict[str, object] = {"backend": "startup", "repeats": repeats}
    for metric, command in commands.items():
        seconds = []
        for _ in range(repeats):
            started = time.perf_counter()
            subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
            seconds.append(time.perf_counter() - started)
        row[metric] = round(statistics.median(seconds), 6)
    return row


def _affinity() -> Optional[List[int]]:
    """This process's CPU affinity mask, sorted (``None`` where unsupported)."""

    if not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


def _pin(cpus: Optional[List[int]]) -> None:
    """Restrict this process to ``cpus``."""

    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def compute_speedups(rows: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """numpy-over-python ratios per graph size (only where both backends ran)."""

    by_size: Dict[int, Dict[str, Dict[str, object]]] = {}
    for row in rows:
        if "build_seconds" not in row:
            continue
        by_size.setdefault(int(row["n"]), {})[str(row["backend"])] = row

    speedups: Dict[str, Dict[str, float]] = {}
    for size, backends in sorted(by_size.items()):
        if "python" not in backends or "numpy" not in backends:
            continue
        python_row, numpy_row = backends["python"], backends["numpy"]
        ratios = {
            metric.replace("_seconds", ""): round(
                float(python_row[metric]) / max(float(numpy_row[metric]), 1e-12), 2
            )
            for metric in TIMING_METRICS
            if metric in python_row and metric in numpy_row
        }
        if ratios:
            speedups[str(size)] = ratios
    return speedups


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=None,
        help="comma-separated target vertex counts (default: 10^4,10^5,10^6)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny run for CI (n=2000, 1 repeat)"
    )
    parser.add_argument("--beta", type=float, default=2.1, help="PLRG beta")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-rounds", type=int, default=3, help="swap round cap (paper: 3)"
    )
    parser.add_argument("--repeats", type=int, default=None, help="best-of-N timing")
    parser.add_argument(
        "--python-max",
        type=int,
        default=1_000_000,
        help="skip the python backend above this vertex count",
    )
    parser.add_argument(
        "--two-k-python-max",
        type=int,
        default=200_000,
        help="skip the python two-k-swap timing above this vertex count",
    )
    parser.add_argument(
        "--semi-python-max",
        type=int,
        default=200_000,
        help="skip the python semi-external timings above this vertex count",
    )
    parser.add_argument(
        "--comparator-python-max",
        type=int,
        default=1_000_000,
        help="skip the python in-memory comparator timings above this vertex count",
    )
    parser.add_argument(
        "--memmap-sizes",
        default=None,
        help="comma-separated vertex counts for the binary-artifact rows "
        "(default: 10^5,10^6,10^7; smoke: the smoke size)",
    )
    parser.add_argument(
        "--memmap-parity-max",
        type=int,
        default=1_000_000,
        help="assert memmap-vs-text greedy parity up to this vertex count",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_core.json"),
        help="path of the JSON report (default: BENCH_core.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sizes = list(SMOKE_SIZES)
        memmap_sizes = (
            [int(s) for s in args.memmap_sizes.split(",")]
            if args.memmap_sizes
            else list(SMOKE_SIZES)
        )
        repeats = args.repeats or 1
    else:
        sizes = (
            [int(s) for s in args.sizes.split(",")]
            if args.sizes
            else list(DEFAULT_SIZES)
        )
        memmap_sizes = (
            [int(s) for s in args.memmap_sizes.split(",")]
            if args.memmap_sizes
            else list(DEFAULT_MEMMAP_SIZES)
        )
        repeats = args.repeats or 3

    rows: List[Dict[str, object]] = []
    for size in sizes:
        print(f"benchmarking n~{size:,} (beta={args.beta}) ...", flush=True)
        rows.extend(
            bench_size(
                size,
                args.beta,
                args.seed,
                args.max_rounds,
                repeats,
                args.python_max,
                args.two_k_python_max,
                args.semi_python_max,
                args.comparator_python_max,
            )
        )
        for row in rows:
            if row.get("n") and "build_seconds" in row and not row.get("_printed"):
                row["_printed"] = True
                semi = (
                    f"  semi_greedy {row['semi_greedy_seconds']:.4f}s"
                    if "semi_greedy_seconds" in row
                    else ""
                )
                two_k = (
                    f"  two_k {row['two_k_swap_seconds']:.4f}s"
                    if "two_k_swap_seconds" in row
                    else ""
                )
                comparators = (
                    f"  local {row['local_search_seconds']:.4f}s"
                    f"  dynupd {row['dynamic_update_seconds']:.4f}s"
                    if "local_search_seconds" in row
                    else ""
                )
                print(
                    f"  n={row['n']:>9,} {row['backend']:>6}: "
                    f"build {row['build_seconds']:.4f}s  "
                    f"greedy {row['greedy_seconds']:.4f}s  "
                    f"one_k {row['one_k_swap_seconds']:.4f}s"
                    f"{two_k}{semi}{comparators}"
                )
    for row in rows:
        row.pop("_printed", None)

    with tempfile.TemporaryDirectory(prefix="bench_memmap_") as tmp:
        workdir = Path(tmp)
        for size in memmap_sizes:
            print(f"benchmarking memmap artifact n~{size:,} ...", flush=True)
            # Past the parity/in-memory scale, one timing run is enough —
            # the artifact rows at 1e7+ exist to show the startup gap, not
            # to average out noise.
            row = bench_memmap(
                size,
                args.beta,
                args.seed,
                repeats if size <= 1_000_000 else 1,
                size <= args.memmap_parity_max,
                workdir,
            )
            rows.append(row)
            print(
                f"  n={row['n']:>9,} memmap: "
                f"convert {row['memmap_convert_seconds']:.4f}s  "
                f"startup {row['memmap_startup_seconds']:.4f}s "
                f"vs text {row['text_startup_seconds']:.4f}s "
                f"({row['memmap_startup_speedup']}x)  "
                f"greedy {row['memmap_greedy_seconds']:.4f}s  "
                f"two_k {row['memmap_two_k_swap_seconds']:.4f}s"
            )

    print("benchmarking process start-up ...", flush=True)
    rows.append(bench_startup())
    print(
        f"  import repro.cli {rows[-1]['import_cli_seconds']:.4f}s  "
        f"python -m repro --help {rows[-1]['help_seconds']:.4f}s"
    )

    speedups = compute_speedups(rows)
    report = {
        "benchmark": "bench_perf_core",
        "description": "CSR build + greedy + one-k-swap + two-k-swap + semi-external "
        "(text file path via a private SEXTCSR1 spill) + in-memory "
        "comparator (local search, "
        "DynamicUpdate) timings per kernel backend on PLRG graphs, plus "
        "binary CSR artifact rows (backend: memmap — convert cost, "
        "text-parse vs. zero-parse startup, memmap greedy, memmap two-k to "
        "convergence pinned to one CPU), plus the process start-up row "
        "(backend: startup — median fresh-process import repro.cli and "
        "python -m repro --help); "
        "speedups are python-time / numpy-time.",
        "config": {
            "beta": args.beta,
            "seed": args.seed,
            "max_rounds": args.max_rounds,
            "repeats": repeats,
            "smoke": bool(args.smoke),
            "backends": list(available_backends()),
            "two_k_python_max": args.two_k_python_max,
            "semi_python_max": args.semi_python_max,
            "comparator_python_max": args.comparator_python_max,
            "memmap_sizes": memmap_sizes,
            "memmap_parity_max": args.memmap_parity_max,
            "host_cpu_count": os.cpu_count(),
            "host_cpu_affinity": _affinity(),
            "host_pythondontwritebytecode": bool(
                os.environ.get("PYTHONDONTWRITEBYTECODE")
            ),
        },
        "results": rows,
        "speedups_numpy_over_python": speedups,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    for size, ratios in speedups.items():
        parts = ", ".join(f"{name} {ratio}x" for name, ratio in sorted(ratios.items()))
        print(f"  n={int(size):,}: {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
