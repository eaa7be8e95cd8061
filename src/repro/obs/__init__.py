"""Unified observability layer: metrics, spans, and event journals.

:class:`Observability` bundles the three instruments every layer
records into:

* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters,
  gauges, and fixed-bucket histograms with deterministic snapshot/merge
  fold-in (service children).
* :class:`~repro.obs.trace.SpanTracer` — Chrome trace-event JSON
  (``--trace FILE``, viewable in Perfetto) with spans for pipeline
  stages (each naming the kernel backend it ran on), swap rounds,
  stream batches, checkpoint writes, and service job lifecycle.
* :class:`~repro.obs.journal.EventJournal` — versioned JSONL event
  records written next to job records, tailed by ``submit --follow``.

``NULL_OBS`` is the disabled bundle: every instrument degrades to a
constant-time no-op, so instrumented code paths cost nothing when
observability is off (``--no-obs``).
"""

from __future__ import annotations

from typing import Optional, Union

from .journal import (
    EventJournal,
    NullJournal,
    append_event,
    follow_journal,
    read_journal,
)
from .metrics import TIME_BUCKETS, MetricsRegistry, NullRegistry
from .trace import NullTracer, SpanTracer, validate_trace

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullRegistry",
    "SpanTracer",
    "NullTracer",
    "EventJournal",
    "NullJournal",
    "TIME_BUCKETS",
    "append_event",
    "follow_journal",
    "read_journal",
    "validate_trace",
]


class Observability:
    """Bundle of registry + tracer + journal threaded through a run."""

    __slots__ = ("enabled", "registry", "tracer", "journal")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Union[SpanTracer, NullTracer]] = None,
        journal: Optional[Union[EventJournal, NullJournal]] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        if enabled:
            self.registry = registry if registry is not None else MetricsRegistry()
            self.tracer = tracer if tracer is not None else NullTracer()
            self.journal = journal if journal is not None else NullJournal()
        else:
            self.registry = NullRegistry()
            self.tracer = NullTracer()
            self.journal = NullJournal()

    def close(self) -> None:
        self.journal.close()


#: Shared disabled bundle — safe to use as a default everywhere.
NULL_OBS = Observability(enabled=False)

