"""Chrome trace-event span tracer (Perfetto / ``chrome://tracing``).

The tracer records complete spans (``ph: "X"``) with microsecond
timestamps relative to the tracer's own epoch, so a trace written with
``--trace FILE`` loads directly into https://ui.perfetto.dev.  The hot
path stays allocation-lean: span boundaries are two clock reads plus
one small dict append, and the :class:`NullTracer` used when tracing is
off reduces every call to a constant-time no-op.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional

TRACE_PHASE_SPAN = "X"
TRACE_PHASE_INSTANT = "i"
TRACE_PHASE_METADATA = "M"


class SpanTracer:
    """Collects Chrome trace events in memory; ``write()`` dumps JSON."""

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        process_name: str = "repro-mis",
    ) -> None:
        self._clock = clock
        self._origin = clock()
        self._pid = os.getpid()
        self._events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": TRACE_PHASE_METADATA,
                "pid": self._pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]

    def now(self) -> float:
        """Seconds since the tracer epoch (span start/end marks)."""

        return self._clock() - self._origin

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: Optional[Mapping[str, object]] = None,
        tid: int = 0,
    ) -> None:
        """Record a complete span from explicit :meth:`now` marks."""

        event: Dict[str, object] = {
            "name": name,
            "cat": cat,
            "ph": TRACE_PHASE_SPAN,
            "ts": int(round(start * 1e6)),
            "dur": max(int(round((end - start) * 1e6)), 0),
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def instant(
        self,
        name: str,
        cat: str,
        args: Optional[Mapping[str, object]] = None,
        tid: int = 0,
    ) -> None:
        event: Dict[str, object] = {
            "name": name,
            "cat": cat,
            "ph": TRACE_PHASE_INSTANT,
            "ts": int(round(self.now() * 1e6)),
            "s": "t",
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "pipeline",
        args: Optional[Mapping[str, object]] = None,
    ) -> Iterator[None]:
        start = self.now()
        try:
            yield
        finally:
            self.add_span(name, cat, start, self.now(), args=args)

    def to_document(self) -> Dict[str, object]:
        return {"traceEvents": list(self._events), "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        from repro.storage.blocks import atomic_write

        document = json.dumps(self.to_document(), separators=(",", ":"))
        atomic_write(path, document.encode("utf-8"), b"\n")


class NullTracer:
    """Tracing disabled: every call is a constant-time no-op."""

    enabled = False

    def now(self) -> float:
        return 0.0

    def add_span(self, *args: object, **kwargs: object) -> None:
        return None

    def instant(self, *args: object, **kwargs: object) -> None:
        return None

    @contextmanager
    def span(self, *args: object, **kwargs: object) -> Iterator[None]:
        yield

    def to_document(self) -> Dict[str, object]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        return None


def validate_trace(document: Mapping[str, object]) -> List[str]:
    """Return a list of schema problems (empty when the trace is valid).

    Checks the subset of the Chrome trace-event format the tracer
    emits: a ``traceEvents`` array whose entries carry ``name``/``ph``/
    ``pid``/``tid``, non-negative integer ``ts``, and, for complete
    spans, a non-negative integer ``dur``.
    """

    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if phase not in (TRACE_PHASE_SPAN, TRACE_PHASE_INSTANT, TRACE_PHASE_METADATA):
            problems.append(f"event {index}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {index}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"event {index}: missing {field}")
        if phase == TRACE_PHASE_METADATA:
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"event {index}: bad ts {ts!r}")
        if phase == TRACE_PHASE_SPAN:
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"event {index}: bad dur {dur!r}")
    return problems
