"""Child process of ``stream-ckpt-plrg``: one pass of a durable stream, measured.

Usage (the benchmark runs it; standalone use is for debugging)::

    python3 bench/stream_worker.py GRAPH.csr UPDATES.txt --batch-size 256 \
        --batches 25 [--trace-out TRACE.json]

Builds ``SETUP_ONLY`` :class:`StreamSession` objects only to time the
set-up (load and digest the update file, seed solve), then the pass's
own session, and applies ``--batches`` batches with a checkpoint after
every batch, timing the gap between consecutive ``process()`` yields.
One session is alive at a time, so the process's peak RSS is one
session's.  With ``--trace-out`` the pass is traced, with the
maintainer's ``apply_updates`` and ``state_payload`` wrapped in
benchmark spans.  Prints one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from repro.dynamic.maintainer import DynamicMISMaintainer
from repro.obs import Observability, SpanTracer
from repro.pipeline.stream import StreamSession, load_updates, updates_digest
from repro.storage.binary_format import MemmapAdjacencySource

import verify

#: Sessions built only to time the set-up (the pass's own session is a
#: set-up sample too).
SETUP_ONLY = 1
#: The seed solve is set-up.  Two-k's round count, and so its time, varies
#: with the seed (0.54-1.0 s at n=1e5); greedy costs the same on every seed.
PIPELINE = "greedy"


def _session(graph, updates, args, name, obs=None):
    return StreamSession(
        graph,
        updates,
        pipeline=PIPELINE,
        batch_size=args.batch_size,
        checkpoint=f"{name}.ck",
        obs=obs,
    )


def _wrap(maintainer, method: str, tracer: SpanTracer) -> None:
    """Shadow a public maintainer method with a timed, span-emitting call."""

    inner = getattr(maintainer, method)

    def timed(*args, **kwargs):
        mark = tracer.now()
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.add_span(f"bench:{method}", "bench", mark, tracer.now())

    setattr(maintainer, method, timed)


def _drain(session, batches: int):
    """Apply ``batches`` batches; returns (gaps between yields, total seconds)."""

    gaps = []
    started = previous = time.perf_counter()
    stream = session.process()
    for _report in stream:
        now = time.perf_counter()
        gaps.append(now - previous)
        previous = now
        if len(gaps) == batches:
            break
    stream.close()
    return gaps, previous - started


def _checks(session) -> list:
    """Invariants, independence and maximality of the maintained set."""

    maintainer = session.maintainer
    checks = []
    try:
        maintainer.check_invariants()
        checks.append([True, "check_invariants"])
    except Exception as exc:  # the check's own failure is what we report
        checks.append([False, f"check_invariants: {exc}"])
    members = maintainer.independent_set
    problem = verify.set_problem(maintainer.to_graph(), members)
    checks.append([problem is None, f"stream set: {problem}"])
    summary = session.result()
    checks.append(
        [summary["set_size"] == len(members), "stream summary size != set size"]
    )
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("graph")
    parser.add_argument("updates")
    parser.add_argument("--batch-size", type=int, required=True)
    parser.add_argument("--batches", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    source = MemmapAdjacencySource(args.graph)
    graph = source.to_graph()
    source.close()

    tracer = SpanTracer(process_name="stream") if args.trace_out else None
    setup = []
    for index in range(SETUP_ONLY):
        began = time.perf_counter()
        session = _session(graph, args.updates, args, f"setup{index}")
        setup.append(time.perf_counter() - began)
        del session
        gc.collect()
    began = time.perf_counter()
    session = _session(
        graph,
        args.updates,
        args,
        "session",
        Observability(tracer=tracer) if tracer is not None else None,
    )
    setup.append(time.perf_counter() - began)
    if tracer is not None:
        for method in ("apply_updates", "state_payload"):
            _wrap(session.maintainer, method, tracer)
    gaps, seconds = _drain(session, args.batches)

    maintainer = session.maintainer
    stats = maintainer.stats
    report = {
        "setup_s": setup,
        "batch_s": gaps,
        "process_s": seconds,
        "checks": _checks(session),
        # Updates that changed the graph (duplicates and no-ops excluded).
        "applied": stats.edges_inserted + stats.edges_deleted,
        "updates": len(gaps) * args.batch_size,
        "set_size": maintainer.size,
        "evictions": stats.evictions,
        "sub_waves": maintainer.wave.sub_waves,
        "scalar_fallbacks": maintainer.wave.scalar_fallbacks,
        "overlay_size": maintainer.overlay_size,
        "checkpoint_bytes": os.path.getsize("session.ck"),
    }
    if tracer is not None:
        with tracer.span("bench:load_updates", "bench"):
            load_updates(args.updates)
            updates_digest(args.updates)
        with tracer.span("bench:seed_solve", "bench"):
            DynamicMISMaintainer(graph, pipeline=PIPELINE)
        tracer.write(args.trace_out)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
