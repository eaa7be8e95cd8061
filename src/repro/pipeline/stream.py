"""Streaming dynamic MIS sessions over edge-update files.

A :class:`StreamSession` holds one graph open, consumes an update stream
in fixed-size batches and keeps the maintained independent set valid
after every batch (the :mod:`repro.dynamic` maintainer preserves
independence and maximality per update; the kernel backend decides
whether the batch is applied as a scalar loop or as vectorized waves).
Per-batch latency is bounded by the batch size — the session never holds
more than one batch of updates in flight.

Update files are plain text, one update per line::

    # comments and blank lines are skipped
    + 12 57       # insert edge {12, 57}
    - 3 9         # delete edge {3, 9}

Within a batch every insertion is applied before every deletion; this is
part of the stream semantics and keeps a batch's outcome independent of
line interleaving inside it.  Passing ``"-"`` as the update path reads
the stream from standard input; such a session checkpoints normally but
pins the digest ``"-"`` and can never be resumed (stdin bytes are
consumed on first read).

Crash recovery mirrors the pipeline engine: after every batch the
session makes the batch durable through :mod:`repro.storage.checkpoint`,
as one *snapshot* plus an append-only *batch log*:

* the snapshot ``<checkpoint>`` is an atomic checkpoint document holding
  the CSR base section, the maintainer's state, the stream cursor and
  the pins.  The pins are the graph digest, the update-file digest, the
  batch size, the pipeline and the compaction threshold, so a resumed
  session provably continues *the same* stream — any mismatch raises
  :class:`~repro.errors.StreamError`.  The snapshot's payload checksum
  is its *generation*;
* every other batch appends one fsynced record to ``<checkpoint>.log``:
  the cursor, the generation it continues, the batch's normalised
  insertions and deletions, its selection flips (read from the
  maintainer's :attr:`journal`) and the update counters.  A record is
  about 2 KB for a 256-update batch, whatever the graph size.

Until the session's first compaction the CSR base *is* the graph the
session was opened with, and every resume opens that graph again.  So
the snapshot holds the state, not the graph: its ``"base"`` section is
a reference ``{"digest", "num_vertices", "num_edges"}`` (see
:func:`base_reference`), and a resume takes the base straight from the
session graph's CSR arrays, with no copy, after checking the digest and
the counts.  After a compaction the base is no longer derivable from the
input, and the snapshot embeds the ``offsets``/``targets`` arrays.
Either section is encoded (and pre-hashed) once per base — the digest
at the first snapshot, not when the session is constructed — and
spliced into every snapshot verbatim.

A session writes a snapshot on its first checkpoint (never while it is
constructed), after every compaction, and whenever the log has grown
larger than the snapshot — so each snapshot is amortised over at least
its own size in appends, and a resume replays at most a snapshot's worth
of log.  Resume loads the snapshot, reads the records of its generation
with consecutive cursors, truncates the log at the first torn, stale or
invalid record, replays the records with
:meth:`~repro.dynamic.maintainer.DynamicMISMaintainer.replay_batch`
(graph edits plus the logged flips, no MIS decisions) and keeps
appending.  Because the cursor advances in whole batches and every
update is deterministic, a session SIGKILLed at any point resumes to a
final set bit-identical to an uninterrupted run.

The maintainer's selection-change :attr:`journal` is cleared after
every batch, with or without a checkpoint (after the batch's record is
written), so a long-running session holds at most one batch of it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as _np

from repro.errors import PipelineInterrupted, StreamError
from repro.obs import NULL_OBS, Observability
from repro.storage.checkpoint import (
    EncodedSection,
    append_record,
    encode_section,
    read_checkpoint,
    read_records,
    write_checkpoint,
)

__all__ = [
    "STREAM_VERSION",
    "BatchReport",
    "StreamSession",
    "base_reference",
    "base_section",
    "batch_record",
    "load_updates",
    "updates_digest",
]

#: Stream checkpoint layout version, pinned in every checkpoint.  Bump on
#: any change to the pinned fields or the state payload; older stream
#: checkpoints then fail with :class:`StreamError` instead of resuming
#: into a different stream semantics.
#: Version 2 stores the selection as a bitmap and the overlay edges as
#: flat int arrays (see ``DynamicMISMaintainer.state_payload``); version 3
#: adds the ``<checkpoint>.log`` batch log after the snapshot; version 4
#: references an uncompacted CSR base by digest instead of embedding it.
STREAM_VERSION = 4


def _maintainer_cls():
    # Imported lazily: repro.dynamic sits above repro.core.solver, which
    # itself imports this package for the pipeline registry.
    from repro.dynamic.maintainer import DynamicMISMaintainer

    return DynamicMISMaintainer


def _flat_pairs(pairs):
    """``(u, v)`` pairs as one flat ``u0, v0, u1, v1, ...`` int array."""

    return _np.fromiter(
        (x for pair in pairs for x in pair), dtype=_np.int64, count=2 * len(pairs)
    )


def batch_record(
    cursor: int,
    generation: str,
    insertions: List[Tuple[int, int]],
    deletions: List[Tuple[int, int]],
    journal: List[Tuple[str, int]],
    stats: Dict[str, int],
) -> Dict[str, Any]:
    """The batch-log record of one applied batch.

    ``cursor`` is the stream cursor after the batch, ``generation`` the
    snapshot the log continues, ``insertions``/``deletions`` the batch as
    the maintainer normalised it and ``journal`` its selection changes;
    :meth:`DynamicMISMaintainer.replay_batch` re-applies the record.
    """

    flips = [v if op == "select" else ~v for op, v in journal]
    return {
        "cursor": cursor,
        "generation": generation,
        "insertions": _flat_pairs(insertions),
        "deletions": _flat_pairs(deletions),
        "flips": _np.asarray(flips, dtype=_np.int64),
        "stats": stats,
    }


def base_reference(offsets, targets) -> Dict[str, Any]:
    """The reference that stands in a snapshot for the CSR base it names.

    ``digest`` is a BLAKE2b of the int64 ``offsets`` and ``targets``
    bytes (little-endian); ``num_vertices`` and ``num_edges`` are the
    counts, which also fix where the offsets end and the targets begin.
    """

    digest = hashlib.blake2b(digest_size=16)
    for values in (offsets, targets):
        digest.update(_np.ascontiguousarray(values, dtype="<i8"))
    return {
        "num_vertices": len(offsets) - 1,
        "num_edges": len(targets) // 2,
        "digest": digest.hexdigest(),
    }


def base_section(offsets, targets, *, embed: bool) -> EncodedSection:
    """A snapshot's encoded ``"base"`` section for the CSR base ``(offsets, targets)``.

    With ``embed`` the section holds both arrays; without, it holds only
    their :func:`base_reference`, which a resume checks against the
    session graph's own arrays.
    """

    value = (
        {"offsets": offsets, "targets": targets}
        if embed
        else base_reference(offsets, targets)
    )
    return encode_section(value, base_offset=0)


def _continues(generation: str, cursor: int) -> Callable[[Dict[str, Any]], bool]:
    """Accept the log records of ``generation`` that follow ``cursor`` in order."""

    expected = [cursor + 1]

    def accept(record: Dict[str, Any]) -> bool:
        if record.get("generation") != generation:
            return False
        if record.get("cursor") != expected[0]:
            return False
        expected[0] += 1
        return True

    return accept


def load_updates(path: str) -> List[Tuple[str, int, int]]:
    """Parse an update file into ``(op, u, v)`` triples.

    ``op`` is ``"+"`` (insert) or ``"-"`` (delete).  ``path="-"`` reads
    the stream from standard input instead of a file.  Raises
    :class:`StreamError` naming the offending line for anything
    malformed.
    """

    updates: List[Tuple[str, int, int]] = []
    if path == "-":
        lines = sys.stdin.readlines()
        path = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise StreamError(
                f"cannot read update file {path!r}: {exc}"
            ) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            raise StreamError(
                f"{path}:{lineno}: expected '+ u v' or '- u v', got {raw.strip()!r}"
            )
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise StreamError(
                f"{path}:{lineno}: vertex ids must be integers, got {raw.strip()!r}"
            ) from None
        updates.append((parts[0], u, v))
    return updates


def updates_digest(path: str) -> str:
    """BLAKE2b digest of an update file's bytes (the stream identity).

    A stream read from standard input (``path="-"``) has no replayable
    identity; its digest is the literal string ``"-"``, which never
    matches a file digest, so checkpoints written for a stdin stream can
    never be resumed (the bytes are gone once consumed).
    """

    if path == "-":
        return "-"
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class BatchReport:
    """Telemetry for one applied update batch.

    ``evictions``, ``sub_waves`` and ``scalar_fallbacks`` are deltas for
    this batch alone: evictions count the conflict updates that forced a
    selection change (backend-independent), the wave counters describe
    how the numpy scheduler spent the batch (zero under the scalar
    reference backend).
    """

    batch_index: int
    insertions: int
    deletions: int
    set_size: int
    overlay_size: int
    compacted: bool
    elapsed_seconds: float
    evictions: int = 0
    sub_waves: int = 0
    scalar_fallbacks: int = 0

    @property
    def conflict_density(self) -> float:
        """Evictions per applied update, 0.0 for an empty batch."""

        applied = self.insertions + self.deletions
        return self.evictions / applied if applied else 0.0

    def summary(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["conflict_density"] = self.conflict_density
        return payload


class StreamSession:
    """Hold a graph open and keep its MIS valid across an update stream."""

    def __init__(
        self,
        graph,
        updates_path: str,
        *,
        graph_digest: Optional[str] = None,
        pipeline: str = "two_k_swap",
        backend: Optional[str] = None,
        batch_size: int = 1024,
        compact_threshold: Optional[int] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        interrupt_after: Optional[int] = None,
        progress: Optional[Callable[[], None]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if batch_size < 1:
            raise StreamError("batch size must be at least 1")
        self._obs = obs if obs is not None else NULL_OBS
        self._updates = load_updates(updates_path)
        self._updates_digest = updates_digest(updates_path)
        self._graph_digest = graph_digest
        self._pipeline = pipeline
        self._backend = backend
        self._batch_size = batch_size
        self._compact_threshold = compact_threshold
        self._checkpoint = checkpoint
        self._interrupt_after = interrupt_after
        self._progress = progress
        self._cursor = 0
        self._writes = 0
        self._elapsed = 0.0
        self._base_section: Optional[EncodedSection] = None
        # The snapshot the batch log continues (its payload checksum) and
        # both files' sizes; no generation means the next write is a
        # snapshot.
        self._generation: Optional[str] = None
        self._snapshot_bytes = 0
        self._log_bytes = 0

        if resume and self._updates_digest == "-":
            raise StreamError(
                "cannot resume a stream read from stdin: its bytes are "
                "consumed on first read, so a checkpoint pinned to "
                "digest '-' never matches a replayable stream"
            )
        if resume and checkpoint and os.path.exists(checkpoint):
            self._maintainer = self._restore(checkpoint, graph)
        else:
            self._maintainer = _maintainer_cls()(
                graph,
                pipeline=pipeline,
                backend=backend,
                compact_threshold=compact_threshold,
            )
        if self._obs.enabled:
            # Seed the counters to the maintainer's (possibly
            # checkpoint-restored) totals.
            self._sync_counters()

    def _sync_counters(self) -> None:
        """Mirror maintainer totals into the registry (monotonic advance).

        The maintainer's ``stats`` and ``wave`` counters are the source;
        the ``repro_stream_*`` and ``repro_wave_*`` series are a view of
        them, kept only when observability is on.
        """

        registry = self._obs.registry
        for field, total in asdict(self._maintainer.stats).items():
            registry.advance(f"repro_stream_{field}_total", total)
        self._maintainer.wave.record(registry)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _pins(self) -> Dict[str, Any]:
        return {
            "stream_version": STREAM_VERSION,
            "graph_digest": self._graph_digest,
            "updates_digest": self._updates_digest,
            "update_count": len(self._updates),
            "batch_size": self._batch_size,
            "pipeline": self._pipeline,
            "compact_threshold": self._compact_threshold,
        }

    @property
    def _log_path(self) -> str:
        return f"{self._checkpoint}.log"

    def _write_checkpoint(self, compacted: bool) -> None:
        tracer = self._obs.tracer
        maintainer = self._maintainer
        if self._generation is None or compacted or (
            self._log_bytes > self._snapshot_bytes
        ):
            kind = "snapshot"
            if self._base_section is None:
                encode_mark = tracer.now()
                # Before the first compaction the base is the session
                # graph's own CSR, which a resume opens again.
                section = base_section(
                    *maintainer.base_arrays(),
                    embed=maintainer.stats.compactions > 0,
                )
                self._base_section = section
                if self._obs.enabled:
                    tracer.add_span(
                        "checkpoint:encode",
                        "checkpoint",
                        encode_mark,
                        tracer.now(),
                        args={"bytes": len(section.json_bytes) + len(section.blob)},
                    )
            payload = {
                "cursor": self._cursor,
                "pins": self._pins(),
                "state": maintainer.state_payload(),
            }
            write_mark = tracer.now()
            # "base" sorts before every array-bearing payload key ("state"),
            # so the spliced document is byte-identical to a plain write.
            written = write_checkpoint(
                self._checkpoint, payload, sections={"base": self._base_section}
            )
            self._generation = written.checksum
            self._snapshot_bytes = written.nbytes
            # The old log's records carry the previous generation, so a
            # crash before this truncation leaves them ignored on resume.
            self._log_bytes = 0
            try:
                os.truncate(self._log_path, 0)
            except FileNotFoundError:
                pass
        else:
            kind = "append"
            write_mark = tracer.now()
            written = append_record(
                self._log_path,
                batch_record(
                    self._cursor,
                    self._generation,
                    *maintainer.last_batch,
                    maintainer.journal,
                    asdict(maintainer.stats),
                ),
            )
            self._log_bytes += written.nbytes
        if self._obs.enabled:
            self._obs.tracer.add_span(
                "checkpoint:write",
                "checkpoint",
                write_mark,
                self._obs.tracer.now(),
                args={"cursor": self._cursor, "kind": kind, "bytes": written.nbytes},
            )
            self._obs.registry.inc(
                "repro_checkpoint_writes_total", phase="batch"
            )
            self._obs.registry.inc(
                "repro_checkpoint_bytes_total", written.nbytes, phase="batch"
            )
        self._writes += 1
        if (
            self._interrupt_after is not None
            and self._writes >= self._interrupt_after
        ):
            raise PipelineInterrupted(
                f"stream interrupted after checkpoint {self._writes} "
                f"as requested; resume with the same arguments"
            )

    def _restore(self, checkpoint: str, graph) -> "DynamicMISMaintainer":
        payload, generation = read_checkpoint(checkpoint, with_checksum=True)
        pins = payload.get("pins") or {}
        if pins.get("stream_version") != STREAM_VERSION:
            raise StreamError(
                f"stream checkpoint version {pins.get('stream_version')!r} is "
                f"not supported by this build (supported: {STREAM_VERSION})"
            )
        for field, mine in (
            ("graph_digest", self._graph_digest),
            ("updates_digest", self._updates_digest),
            ("update_count", len(self._updates)),
            ("batch_size", self._batch_size),
            ("pipeline", self._pipeline),
            ("compact_threshold", self._compact_threshold),
        ):
            theirs = pins.get(field)
            if theirs != mine:
                raise StreamError(
                    f"stream checkpoint pins {field}={theirs!r} but this "
                    f"session has {field}={mine!r}; refusing to resume a "
                    f"different stream"
                )
        base = payload["base"]
        if "digest" in base:
            offsets, targets = graph.csr_arrays()
            reference = base_reference(offsets, targets)
            for field, mine in reference.items():
                if base.get(field) != mine:
                    raise StreamError(
                        f"stream checkpoint references a base graph with "
                        f"{field}={base.get(field)!r} but this session's graph "
                        f"has {field}={mine!r}; refusing to resume against a "
                        f"different graph"
                    )
            self._base_section = encode_section(reference, base_offset=0)
        else:
            offsets, targets = base["offsets"], base["targets"]
        cursor = int(payload["cursor"])
        records, valid_bytes = read_records(
            self._log_path, accept=_continues(generation, cursor)
        )
        # Drop a torn or stale tail so the next append continues the
        # valid prefix.
        if os.path.exists(self._log_path) and (
            os.path.getsize(self._log_path) > valid_bytes
        ):
            os.truncate(self._log_path, valid_bytes)
        maintainer = _maintainer_cls().from_state(
            payload["state"],
            offsets,
            targets,
            backend=self._backend,
            compact_threshold=self._compact_threshold,
            records=records,
        )
        self._cursor = cursor + len(records)
        self._generation = generation
        self._snapshot_bytes = os.path.getsize(checkpoint)
        self._log_bytes = valid_bytes
        return maintainer

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    @property
    def maintainer(self) -> "DynamicMISMaintainer":
        return self._maintainer

    @property
    def cursor(self) -> int:
        """Number of whole batches applied so far."""

        return self._cursor

    @property
    def total_batches(self) -> int:
        return -(-len(self._updates) // self._batch_size)

    def process(self) -> Iterator[BatchReport]:
        """Apply the remaining batches, yielding a report after each one.

        Writes a checkpoint and fires the ``progress`` hook after every
        batch; raises :class:`PipelineInterrupted` right after the
        ``interrupt_after``-th checkpoint write (the file on disk is
        complete and resumable).
        """

        maintainer = self._maintainer
        registry = self._obs.registry
        tracer = self._obs.tracer
        journal = self._obs.journal
        obs_on = self._obs.enabled
        if obs_on:
            journal.emit(
                "stream_start",
                pipeline=self._pipeline,
                batches_applied=self._cursor,
                total_batches=self.total_batches,
                batch_size=self._batch_size,
            )
        while self._cursor * self._batch_size < len(self._updates):
            start = self._cursor * self._batch_size
            chunk = self._updates[start : start + self._batch_size]
            insertions = [(u, v) for op, u, v in chunk if op == "+"]
            deletions = [(u, v) for op, u, v in chunk if op == "-"]
            batch_mark = tracer.now()
            # The batch's deltas are the maintainer totals after the
            # batch minus those before it.
            stats, wave = maintainer.stats, maintainer.wave
            before = (
                stats.evictions,
                stats.compactions,
                wave.sub_waves,
                wave.scalar_fallbacks,
            )
            began = time.perf_counter()
            maintainer.apply_updates(insertions, deletions)
            elapsed = time.perf_counter() - began
            self._elapsed += elapsed
            evictions = stats.evictions - before[0]
            compacted = stats.compactions > before[1]
            sub_waves = wave.sub_waves - before[2]
            fallbacks = wave.scalar_fallbacks - before[3]
            if obs_on:
                self._sync_counters()
            if compacted:
                # The base changed and no longer matches the input graph:
                # embed it once, reuse it until the next compaction.
                self._base_section = None
            self._cursor += 1
            if self._checkpoint:
                self._write_checkpoint(compacted)
            # The batch's journal entries are in the log record now (or
            # superseded by a snapshot); drop them to keep a long-running
            # session's memory bounded by one batch, checkpointed or not.
            del maintainer.journal[:]
            if self._progress is not None:
                self._progress()
            report = BatchReport(
                batch_index=self._cursor - 1,
                insertions=len(insertions),
                deletions=len(deletions),
                set_size=maintainer.size,
                overlay_size=maintainer.overlay_size,
                compacted=compacted,
                elapsed_seconds=elapsed,
                evictions=evictions,
                sub_waves=sub_waves,
                scalar_fallbacks=fallbacks,
            )
            if obs_on:
                registry.inc("repro_stream_batches_total")
                registry.inc(
                    "repro_stream_updates_total", len(insertions), op="insert"
                )
                registry.inc(
                    "repro_stream_updates_total", len(deletions), op="delete"
                )
                registry.observe("repro_batch_seconds", elapsed)
                registry.set_gauge("repro_stream_set_size", maintainer.size)
                registry.set_gauge(
                    "repro_stream_overlay_size", maintainer.overlay_size
                )
                tracer.add_span(
                    f"batch:{report.batch_index}",
                    "stream",
                    batch_mark,
                    tracer.now(),
                    args={
                        "insertions": len(insertions),
                        "deletions": len(deletions),
                        "evictions": evictions,
                        "sub_waves": sub_waves,
                    },
                )
                journal.emit("batch", **report.summary())
            yield report

    def run(self) -> Dict[str, Any]:
        """Drain the stream and return the final :meth:`result`."""

        for _report in self.process():
            pass
        return self.result()

    def result(self) -> Dict[str, Any]:
        """JSON-ready summary of the session's current state."""

        maintainer = self._maintainer
        stats = maintainer.stats
        applied = stats.edges_inserted + stats.edges_deleted
        return {
            "algorithm": "stream",
            "pipeline": self._pipeline,
            "batch_size": self._batch_size,
            "batches_applied": self._cursor,
            "total_batches": self.total_batches,
            "num_vertices": maintainer.num_vertices,
            "num_edges": maintainer.num_edges,
            "set_size": maintainer.size,
            "overlay_size": maintainer.overlay_size,
            "independent_set": maintainer.members.tolist(),
            "stats": asdict(stats),
            # Wave counters are process telemetry, not checkpointed
            # state: they restart at zero on resume, so consumers that
            # diff results across kill/resume must strip this key.
            "wave": maintainer.wave.snapshot(),
            # Derived purely from the (checkpointed) stats so that the
            # summary stays bit-identical across kill/resume.
            "conflict_density": stats.evictions / applied if applied else 0.0,
            "elapsed_seconds": self._elapsed,
        }
