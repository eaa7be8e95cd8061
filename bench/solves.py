"""Workloads ``solve-twok-plrg`` and ``solve-onek-gnm``.

Each measured operation is one ``repro-mis solve FILE.csr --pipeline P
--max-rounds R --checkpoint CK --json`` process (import, open, solve,
checkpoint writes, serialize), timed from the outside.  Set-up is
``repro-mis convert`` of the generated adjacency file to ``SEXTCSR1``.

The round cap sits below the number of rounds every seed tried needs to
converge, so each run does the same number of rounds and the timing does
not jump with the seed's round count.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import fixtures
import layers
import reference
import verify
from run import Bench, median, percentile

CONFIGS = {
    "solve-twok-plrg": {
        "family": "plrg",
        "n": 150_000,
        "pipeline": "two_k_swap",
        "max_rounds": 2,
    },
    "solve-onek-gnm": {
        "family": "gnm",
        "n": 100_000,
        "m": 400_000,
        "pipeline": "one_k_swap",
        "max_rounds": 4,
    },
}
TINY = {"n": 3_000, "m": 12_000}

SETUP_REPEATS = 7
MIN_SOLVES = 4
MAX_SOLVES = 60
MICRO_REPEATS = 5


def run_twok_plrg(bench: Bench) -> None:
    _run(bench, CONFIGS["solve-twok-plrg"])


def run_onek_gnm(bench: Bench) -> None:
    _run(bench, CONFIGS["solve-onek-gnm"])


def _make_input(bench: Bench, config: dict):
    size = dict(config, **TINY) if bench.tiny else config
    if config["family"] == "plrg":
        graph = fixtures.plrg(size["n"], bench.seed)
    else:
        graph = fixtures.gnm(size["n"], size["m"], bench.seed)
    bench.inputs["graph"] = fixtures.fingerprint(graph, bench.seed, config["family"])
    path = bench.path("input.adj")
    fixtures.write_adjacency(graph, path)
    return path


def convert_setup(bench: Bench, adjacency: str) -> str:
    """Convert ``SETUP_REPEATS`` times; returns the artifact, fills ``setup_s``."""

    seconds = []
    digests = set()
    for index in range(SETUP_REPEATS):
        output = bench.path(f"input{index}.csr")
        child = bench.run_child(
            bench.repro_cmd("convert", adjacency, output, "--to-binary"), "convert"
        )
        if bench.check(child.code == 0, f"convert exited {child.code}: {child.err[-300:]}"):
            seconds.append(child.wall_s)
            with open(output, "rb") as handle:
                digests.add(hashlib.blake2b(handle.read(), digest_size=16).hexdigest())
    bench.check(len(digests) == 1, "convert wrote different artifacts for one input")
    bench.samples["setup_s"] = seconds
    bench.metrics["setup_s"] = median(seconds)
    bench.layers["storage.convert_s"] = median(seconds)
    return output


def _final_result(checkpoint: str) -> dict:
    """The last stage's encoded result, as persisted by the engine."""

    from repro.storage.checkpoint import read_checkpoint

    return read_checkpoint(checkpoint)["completed"][-1]["result"]


def _run(bench: Bench, config: dict) -> None:
    from repro.storage.binary_format import MemmapAdjacencySource

    csr = convert_setup(bench, _make_input(bench, config))
    source = MemmapAdjacencySource(csr)
    graph = source.to_graph()
    source.close()

    checkpoint = bench.path("solve.ck")
    trace_path = bench.path("solve.trace.json")
    command = bench.repro_cmd(
        "solve",
        csr,
        "--pipeline",
        config["pipeline"],
        "--max-rounds",
        str(config["max_rounds"]),
        "--checkpoint",
        checkpoint,
        "--json",
    )
    walls = {False: [], True: []}
    references = []
    timed = []  # (index into references, seconds) of the untraced solves
    rss = []
    traced_layers = []
    first_key = None
    summary = final = trace_doc = None
    deadline = time.perf_counter() + bench.seconds
    solves = 0
    while solves < MIN_SOLVES or (
        time.perf_counter() < deadline and solves < MAX_SOLVES
    ):
        traced = bench.trace and solves % 2 == 0
        solves += 1
        if os.path.exists(checkpoint):
            os.unlink(checkpoint)
        references.append(reference.reference_seconds())
        child = bench.run_child(
            command + (["--trace", trace_path] if traced else []), "solve"
        )
        if not bench.check(child.code == 0, f"solve exited {child.code}: {child.err[-300:]}"):
            continue
        summary = child.json()
        final = _final_result(checkpoint)
        members = final["independent_set"]
        key = (len(members), hashlib.blake2b(json.dumps(members).encode()).hexdigest())
        if first_key is None:
            problem = verify.set_problem(graph, members)
            if problem is None and len(members) != summary["size"]:
                problem = f"reported size {summary['size']} != {len(members)} members"
            if not bench.check(problem is None, f"solve output: {problem}"):
                continue
            first_key = key
        elif not bench.check(key == first_key, "solve set differs between repeats"):
            continue
        walls[traced].append(child.wall_s)
        if not traced:
            timed.append((len(references) - 1, child.wall_s))
        rss.append(child.rss_mb)
        if traced:
            with open(trace_path, "r", encoding="utf-8") as handle:
                trace_doc = json.load(handle)
            row = layers.solve_layers(trace_doc)
            row["cli.process_overhead_s"] = child.wall_s - row["pipeline.run_s"]
            traced_layers.append(row)
    references.append(reference.reference_seconds())
    untraced = walls[False]
    if not untraced:
        return  # every untraced solve failed; the checks counted it
    bench.samples["solve_s"] = untraced
    bench.samples["reference_s"] = references
    bench.samples["solve_s_traced"] = walls[True]
    bench.samples["rss_mb"] = rss
    bench.reported.update(
        solve_s=median(untraced), solve_p90_s=percentile(untraced, 90)
    )
    bench.metrics.update(
        {
            "throughput_per_ref": graph.num_vertices
            / median(reference.ratios(timed, references)),
            "peak_rss_mb": median(rss),
            "is_size": float(first_key[0]),
        }
    )
    if bench.trace and traced_layers:
        bench.write_trace(trace_doc, "program")
        _solve_layers(bench, csr, checkpoint, summary, final, traced_layers, walls)


def _solve_layers(bench, csr, checkpoint, summary, final, traced_layers, walls):
    """Per-layer numbers: trace-derived rows plus timed calls into the layers."""

    from repro.pipeline.engine import decode_result, encode_result
    from repro.storage.binary_format import MemmapAdjacencySource

    for key in traced_layers[0]:
        bench.layers[key] = median([row[key] for row in traced_layers])
    bench.layers["obs.trace_overhead_pct"] = 100.0 * (
        median(walls[True]) / median(walls[False]) - 1.0
    )

    for _ in range(MICRO_REPEATS):
        child = bench.run_child([sys.executable, "-c", "import repro.cli"], "import")
        bench.check(child.code == 0, f"import repro.cli exited {child.code}")
    for _ in range(MICRO_REPEATS):
        with bench.tracer.span("bench:open", "bench"):
            source = MemmapAdjacencySource(csr)
            source.scan_order()
        source.close()
    result = decode_result(final)
    for _ in range(MICRO_REPEATS):
        with bench.tracer.span("bench:serialize", "bench"):
            json.dumps(encode_result(result))
    own = bench.tracer.to_document()
    bench.layers["cli.import_s"] = median(
        [s.seconds for s in layers.spans(own, "bench:import")]
    )
    bench.layers["storage.open_s"] = median(
        [s.seconds for s in layers.spans(own, "bench:open")]
    )
    bench.layers["pipeline.serialize_s"] = median(
        [s.seconds for s in layers.spans(own, "bench:serialize")]
    )

    stages = summary["stages"]
    bench.layers["storage.checkpoint_bytes"] = float(os.path.getsize(checkpoint))
    bench.layers["storage.io_blocks_read"] = float(
        sum(stage["io"]["blocks_read"] for stage in stages)
    )
    bench.layers["storage.io_sequential_scans"] = float(summary["sequential_scans"])
    bench.layers["storage.io_random_lookups"] = float(summary["random_vertex_lookups"])
    bench.layers["kernels.rounds"] = float(summary["rounds"])
    # Encoded round rows: [index, gained, one_k, two_k, zero_one, size, sc].
    bench.layers["kernels.swaps"] = float(
        sum(row[2] + row[3] + row[4] for row in final["rounds"])
    )
    bench.layers["kernels.max_sc_vertices"] = float(
        max(stage["extras"].get("max_sc_vertices", 0) for stage in stages)
    )
    bench.layers["kernels.modeled_memory_bytes"] = float(summary["memory_bytes"])
