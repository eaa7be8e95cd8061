"""Workload ``stream-ckpt-plrg``: a durable update stream over a PLRG graph.

Each measured pass is one ``bench/stream_worker.py`` process (so its
peak RSS is one session's); this side generates the graph and the 70/30
insert/delete update file from the seed, runs ``PASSES`` passes over the
file, times the reference task between them, and turns the reports and
traces into metrics.  Every pass must end with the same set.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import fixtures
import layers
import reference
from run import Bench, median, percentile

N = 100_000
BATCH_SIZE = 256
#: Passes over the update file, each in its own process.
PASSES = 8
#: Batches per second of ``--seconds``, over all passes: the work is fixed
#: by the run length, never by how fast this host happens to be.
BATCHES_PER_SECOND = 8
TINY = {"n": 2_000, "batch_size": 64, "batches": 6}


def run(bench: Bench) -> None:
    from repro.storage.converters import adjacency_to_binary

    n = TINY["n"] if bench.tiny else N
    batch_size = TINY["batch_size"] if bench.tiny else BATCH_SIZE
    batches = (
        TINY["batches"]
        if bench.tiny
        else max(4, round(BATCHES_PER_SECOND * bench.seconds / PASSES))
    )
    graph = fixtures.plrg(n, bench.seed)
    bench.inputs["graph"] = fixtures.fingerprint(graph, bench.seed, "plrg")
    adjacency, csr, updates = (bench.path(p) for p in ("g.adj", "g.csr", "updates.txt"))
    fixtures.write_adjacency(graph, adjacency)
    adjacency_to_binary(adjacency, csr)
    with open(updates, "w", encoding="utf-8") as handle:
        handle.write(fixtures.update_stream(graph, batches * batch_size, bench.seed))
    bench.inputs["updates"] = {
        "count": batches * batch_size,
        "insert_fraction": 0.7,
        "batch_size": batch_size,
        "batches": batches,
        "passes": PASSES,
    }
    del graph

    command = [
        sys.executable,
        str(Path(__file__).with_name("stream_worker.py")),
        csr,
        updates,
        "--batch-size",
        str(batch_size),
        "--batches",
        str(batches),
    ]
    passes = []
    references = []
    trace_events = []
    for index in range(PASSES):
        references.append(reference.reference_seconds())
        # In a traced run every other pass is traced; the rest give the
        # untraced time the trace overhead is measured against.
        traced = bench.trace and index % 2 == 1
        trace_path = bench.path(f"stream{index}.trace.json")
        child = bench.run_child(
            command + (["--trace-out", trace_path] if traced else []), "stream_pass"
        )
        if not bench.check(child.code == 0, f"stream pass exited {child.code}: {child.err[-300:]}"):
            return
        report = dict(child.json(), traced=traced, rss_mb=child.rss_mb)
        for ok, what in report["checks"]:
            bench.check(ok, what)
        passes.append(report)
        if traced:
            with open(trace_path, "r", encoding="utf-8") as handle:
                trace_events += json.load(handle)["traceEvents"]
    references.append(reference.reference_seconds())
    sizes = {p["set_size"] for p in passes}
    bench.check(len(sizes) == 1, f"passes ended with set sizes {sorted(sizes)}")

    plain = [p for p in passes if not p["traced"]]
    gaps = [gap for p in plain for gap in p["batch_s"]]
    timed = [(i, p["process_s"]) for i, p in enumerate(passes) if not p["traced"]]
    setup = [s for p in passes for s in p["setup_s"]]
    bench.samples["setup_s"] = setup
    bench.samples["batch_s"] = gaps
    bench.samples["pass_s"] = [p["process_s"] for p in plain]
    bench.samples["reference_s"] = references
    bench.samples["rss_mb"] = [p["rss_mb"] for p in passes]
    updates_per_pass = passes[0]["updates"]
    bench.reported.update(
        updates_per_s=len(plain) * updates_per_pass / sum(p["process_s"] for p in plain),
        batch_p50_ms=1000 * median(gaps),
        batch_p90_ms=1000 * percentile(gaps, 90),
    )
    bench.metrics.update(
        {
            "setup_s": median(setup),
            "throughput_per_ref": updates_per_pass
            / median(reference.ratios(timed, references)),
            "peak_rss_mb": median([p["rss_mb"] for p in passes]),
            "is_size": float(passes[-1]["set_size"]),
        }
    )
    if not bench.trace:
        return

    document = bench.write_trace({"traceEvents": trace_events}, "program")
    bench.layers.update(layers.stream_layers(document))
    last = passes[-1]
    applied = last["applied"]
    bench.layers.update(
        {
            "storage.checkpoint_bytes": float(last["checkpoint_bytes"]),
            "dynamic.evictions": float(last["evictions"]),
            "dynamic.conflict_density": last["evictions"] / applied if applied else 0.0,
            "dynamic.sub_waves": float(last["sub_waves"]),
            "dynamic.scalar_fallback_ratio": (
                last["scalar_fallbacks"] / applied if applied else 0.0
            ),
            "dynamic.overlay_size": float(last["overlay_size"]),
            "stream.load_s": median(
                [s.seconds for s in layers.spans(document, "bench:load_updates")]
            ),
            "stream.seed_solve_s": median(
                [s.seconds for s in layers.spans(document, "bench:seed_solve")]
            ),
            "obs.trace_overhead_pct": 100.0
            * (
                median([p["process_s"] for p in passes if p["traced"]])
                / median([p["process_s"] for p in plain])
                - 1.0
            ),
        }
    )
