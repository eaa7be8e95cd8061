"""Per-layer numbers derived from Chrome trace documents.

Both the program's traces (``SpanTracer``: ``pipeline:*``, ``stage:*``,
``round:*``, ``batch:*``, ``checkpoint:write``) and the benchmark's own
spans (``bench:*``) go through here, so a per-layer number and the trace
written next to the results can never disagree.  A layer's self time is
its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start: int  # microseconds
    end: int

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e6


def spans(document: dict, prefix: str = "") -> List[Span]:
    """Complete spans whose name starts with ``prefix``, in start order."""

    found = [
        Span(event["name"], event["ts"], event["ts"] + event["dur"])
        for event in document.get("traceEvents", [])
        if event.get("ph") == "X" and event["name"].startswith(prefix)
    ]
    return sorted(found, key=lambda span: (span.start, span.end))


def covered_seconds(outer: Span, inner: Sequence[Span]) -> float:
    """Seconds of ``outer`` covered by the union of the ``inner`` spans."""

    covered = 0
    cursor = outer.start
    for span in sorted(inner, key=lambda s: s.start):
        start = max(span.start, cursor)
        end = min(span.end, outer.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered / 1e6


def self_seconds(outer: Span, children: Sequence[Span]) -> float:
    return outer.seconds - covered_seconds(outer, children)


def solve_layers(document: dict) -> Dict[str, float]:
    """Kernel, checkpoint and engine times of one traced pipeline run."""

    checkpoints = spans(document, "checkpoint:write")
    stages = spans(document, "stage:")
    rounds = spans(document, "round:")
    pipeline = spans(document, "pipeline:")
    names = {"greedy": "kernels.greedy_s", "one_k_swap": "kernels.one_k_s",
             "two_k_swap": "kernels.two_k_s"}
    row: Dict[str, float] = {}
    # Only stages the pipeline ran get a number; an absent stage stays
    # absent (the run reports it as not exercised).
    for stage in stages:
        key = names.get(stage.name.split(":", 1)[1], stage.name)
        row[key] = row.get(key, 0.0) + self_seconds(stage, checkpoints)
    return {
        **row,
        "kernels.round_s_max": max(
            (self_seconds(r, checkpoints) for r in rounds), default=0.0
        ),
        "storage.checkpoint_write_s": sum(c.seconds for c in checkpoints),
        "storage.checkpoint_writes": float(len(checkpoints)),
        "pipeline.engine_self_s": sum(
            self_seconds(p, stages + checkpoints) for p in pipeline
        ),
        "pipeline.run_s": sum(p.seconds for p in pipeline),
    }


def stream_layers(document: dict) -> Dict[str, float]:
    """Batch, apply, state and checkpoint times of one traced stream session.

    ``bench:apply_updates`` and ``bench:state_payload`` are the
    benchmark's spans around the maintainer's public methods; the rest
    are the session's own spans.
    """

    batches = spans(document, "batch:")
    apply = spans(document, "bench:apply_updates")
    state = spans(document, "bench:state_payload")
    checkpoints = spans(document, "checkpoint:write")
    inner = apply + state + checkpoints
    return {
        "dynamic.apply_s": sum(s.seconds for s in apply),
        "dynamic.state_payload_s": sum(s.seconds for s in state),
        "storage.checkpoint_write_s": sum(s.seconds for s in checkpoints),
        "storage.checkpoint_writes": float(len(checkpoints)),
        "stream.batch_self_s": sum(self_seconds(b, inner) for b in batches),
        "stream.batches": float(len(batches)),
    }
