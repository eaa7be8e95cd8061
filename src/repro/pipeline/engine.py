"""The stage-based pipeline engine.

:class:`PipelineEngine` executes a declarative
:class:`~repro.pipeline.spec.PipelineSpec` against an
:class:`~repro.pipeline.context.ExecutionContext`: stages run in order,
each one's result feeds the next, and per-stage telemetry
(:class:`~repro.pipeline.stages.StageReport`) accumulates into the final
result's ``extras["stages"]``.  The final :class:`MISResult` is assembled
exactly as the pre-engine solver facade did — same independent set, same
per-round telemetry, same cumulative ``IOStats`` — so every entry point
(library facade, CLI, benchmarks) routes through here without observable
behaviour change.

Checkpoint/resume
-----------------
With a ``checkpoint_path``, the engine persists its state through
:mod:`repro.storage.checkpoint`:

* after every completed stage (a *boundary* checkpoint), and
* after every swap round inside the resumable stages (a *round*
  checkpoint carrying the kernel loop snapshot: vertex states, ISN
  entries, per-round telemetry, oscillation-guard fingerprints).

``resume=True`` restores a killed run: completed stages are replayed from
their recorded results (source-transforming stages from their serialized
artifacts, without re-reading the input), the cumulative I/O counters are
reset to the snapshot, and an in-progress swap stage continues mid-round-
loop.  The resumed run produces the bit-identical final set, round
telemetry and cumulative ``IOStats`` of an uninterrupted run.  The
checkpoint pins the pipeline spec, the round cap and the input shape, and
refuses to resume under a different configuration.  Both kernel backends
write equal round snapshots, so either resumes a checkpoint of either.

``interrupt_after=N`` raises
:class:`~repro.errors.PipelineInterrupted` right after the N-th
checkpoint write — the deterministic "kill" used by the crash-resume
tests and the CI resume drill.

Two knobs keep frequent checkpointing cheap:

* the encoded completed-stage prefix (including a reduce stage's kernel
  artifact) is kept as a pre-encoded checkpoint section: each stage
  boundary extends it by the new stage's entry alone, whose independent
  set is one sorted int64 array, and per-round writes splice it as-is
  and only encode the loop snapshot;
* ``checkpoint_every_seconds=N`` throttles *round* checkpoints to at
  most one per N seconds (measured by an injectable monotonic ``clock``)
  — stage-boundary checkpoints are always written.  Resuming from an
  older round checkpoint simply replays the skipped rounds and stays
  bit-identical; the solver service uses this as its default policy so
  short-round jobs don't pay a checkpoint write per round.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.core.kernels.base import decode_rounds, encode_rounds
from repro.core.result import MISResult, as_members
from repro.errors import CheckpointError, PipelineInterrupted, SolverError
from repro.obs import NULL_OBS, Observability
from repro.pipeline.context import ExecutionContext
from repro.pipeline.spec import PipelineSpec
from repro.pipeline.stages import ARTIFACT_KEY, StageReport, get_stage
from repro.storage.checkpoint import (
    EncodedSection,
    encode_section,
    extend_section,
    read_checkpoint,
    write_checkpoint,
)
from repro.storage.io_stats import IOStats
from repro.validation.checks import assert_independent_set

__all__ = ["PipelineEngine", "decode_result", "encode_result"]


def encode_result(
    result: MISResult, *, array_native: bool = False
) -> Dict[str, object]:
    """A :class:`MISResult` as a dict of JSON data (result and checkpoint form).

    ``independent_set`` is the ascending member list
    (``result.members.tolist()``), so the dict renders straight to JSON
    text; the service renders it once and writes that text to both the
    result file and the cache entry.  With ``array_native`` it is
    ``result.members`` itself, the ascending int64 array, which a
    checkpoint section packs to the same bytes as the list without a
    per-element walk.  The engine's completed-stage entries take that
    form: each stage boundary extends the encoded prefix by one entry
    (see :func:`~repro.storage.checkpoint.encode_section`),
    byte-identical to encoding the list form of every entry again.
    """

    return {
        "algorithm": result.algorithm,
        "independent_set": (
            result.members if array_native else result.members.tolist()
        ),
        "rounds": encode_rounds(result.rounds),
        "io": result.io.as_dict(),
        "memory_bytes": result.memory_bytes,
        "elapsed_seconds": result.elapsed_seconds,
        "initial_size": result.initial_size,
        "extras": dict(result.extras),
    }


def decode_result(payload: Dict[str, object]) -> MISResult:
    """Inverse of :func:`encode_result`."""

    return MISResult(
        algorithm=str(payload["algorithm"]),
        members=payload["independent_set"],
        rounds=tuple(decode_rounds(payload["rounds"])),
        io=IOStats(**payload["io"]),
        memory_bytes=int(payload["memory_bytes"]),
        elapsed_seconds=float(payload["elapsed_seconds"]),
        initial_size=int(payload["initial_size"]),
        extras=dict(payload["extras"]),
    )


class PipelineEngine:
    """Run a :class:`PipelineSpec` over an :class:`ExecutionContext`.

    Parameters
    ----------
    spec:
        The pipeline to execute; stage names and options are validated
        against the stage table at construction time.
    max_rounds:
        Fallback swap-round cap applied to swap stages whose spec entry
        does not set its own ``max_rounds`` option.
    validate:
        Check the final set for independence against the original
        in-memory graph (no-op for file sources).
    checkpoint_path:
        Enable checkpointing into this file (see the module docstring).
    resume:
        Restore the run from ``checkpoint_path`` instead of starting over.
    interrupt_after:
        Deterministic-kill knob: raise :class:`PipelineInterrupted` right
        after this many checkpoint writes.
    checkpoint_every_seconds:
        Throttle round checkpoints to at most one per this many seconds
        (``None`` = checkpoint every round).  Boundary checkpoints are
        always written.
    clock:
        Monotonic clock used by the throttle; injectable for tests.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        max_rounds: Optional[int] = None,
        validate: bool = False,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        interrupt_after: Optional[int] = None,
        checkpoint_every_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        progress: Optional[Callable[[], None]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.spec = spec
        self.max_rounds = max_rounds
        self.validate = validate
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.interrupt_after = interrupt_after
        #: Observability bundle (metrics registry + span tracer + event
        #: journal).  Defaults to the shared disabled bundle, whose
        #: instruments are constant-time no-ops — instrumented code costs
        #: nothing unless a caller opts in (``--trace``, service jobs).
        self.obs = obs if obs is not None else NULL_OBS
        #: Called at every solver progress point — each completed swap
        #: round and each stage boundary — regardless of checkpoint
        #: throttling.  The service worker beats its heartbeat here, so
        #: "no call" means "no progress", which is exactly the hang
        #: signal the scheduler's stale-heartbeat timeout looks for.
        self.progress = progress
        if checkpoint_every_seconds is not None and checkpoint_every_seconds <= 0:
            raise SolverError("checkpoint_every_seconds must be positive or None")
        self.checkpoint_every_seconds = checkpoint_every_seconds
        self._clock = clock
        if resume and checkpoint_path is None:
            raise SolverError("resume=True requires a checkpoint_path")
        # Fail fast on unknown stages or options, before any I/O happens.
        for stage_spec in spec.stages:
            get_stage(stage_spec.stage).check_options(stage_spec.options)
        self._checkpoint_writes = 0
        self._last_checkpoint_at: Optional[float] = None
        # Pre-encoded completed-stage prefix (set up by run()): extended
        # by one entry at each stage boundary, spliced as-is into round
        # writes.
        self._completed_section: Optional[EncodedSection] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> MISResult:
        """Execute the pipeline and return the final result.

        The context is left exactly as it was found: source replacements,
        graph-cache updates and finalizers from source-transforming stages
        are scoped to this run, so one context can be shared across
        sequential engine runs (cumulative I/O accounting, one graph
        materialisation) without cross-contamination.
        """

        saved_state = ctx.save_state()
        ctx.capture_artifacts = self.checkpoint_path is not None
        try:
            return self._run(ctx)
        finally:
            ctx.capture_artifacts = False
            ctx.restore_state(saved_state)

    def _run(self, ctx: ExecutionContext) -> MISResult:
        started = time.perf_counter()
        registry = self.obs.registry
        tracer = self.obs.tracer
        journal = self.obs.journal
        obs_on = self.obs.enabled
        run_mark = tracer.now()
        journal.emit(
            "run_start",
            pipeline=self.spec.name,
            stages=len(self.spec.stages),
            resumed=bool(self.resume),
        )
        self._checkpoint_writes = 0
        self._last_checkpoint_at = self._clock() if self.checkpoint_path else None
        self._completed_section = encode_section([])
        ctx.finalizers = []
        origin = {
            "num_vertices": ctx.source.num_vertices,
            "num_edges": ctx.source.num_edges,
        }
        # Binary CSR artifacts carry a content digest; folding it into the
        # origin record makes checkpoint provenance content-addressed — a
        # resume against a regenerated-but-different artifact is rejected
        # even when the dimensions happen to agree.
        digest = getattr(ctx.source, "content_digest", None)
        if digest is not None:
            origin["digest"] = digest

        reports: List[StageReport] = []
        previous: Optional[MISResult] = None
        last_result: Optional[MISResult] = None
        start_index = 0
        resume_loop: Optional[dict] = None
        resumed_stage_io: Optional[IOStats] = None

        if self.resume:
            payload = read_checkpoint(self.checkpoint_path)
            self._verify_checkpoint(payload, origin)
            # Rebuild the reader's record index (state the killed process
            # held in memory) before resetting the counters below, so the
            # rebuild is restore-phase I/O, not part of the logical run.
            # Skipped when a completed source-transforming stage is about
            # to replace the reader anyway — the remaining stages then run
            # on the restored artifact and never touch the file again.
            replays_transform = any(
                get_stage(entry["report"]["stage"]).transforms_source
                for entry in payload["completed"]
            )
            build_index = getattr(ctx.source, "build_index", None)
            if build_index is not None and not replays_transform:
                build_index()
            # Reset the cumulative counters to the snapshot: the resumed
            # process's setup I/O (file header, index rebuild) is not part
            # of the logical run, so the final accounting is bit-identical
            # to an uninterrupted run.
            stats = ctx.source.stats
            stats.merge(IOStats(**payload["io"]).delta_since(stats))
            for entry in payload["completed"]:
                report = StageReport.from_summary(entry["report"])
                result = decode_result(entry["result"])
                stage = get_stage(report.stage)
                if stage.transforms_source:
                    stage.restore_artifact(ctx, entry["artifact"])
                    previous = None
                else:
                    previous = result
                reports.append(report)
                last_result = result
            self._completed_section = encode_section(payload["completed"])
            start_index = int(payload["stage_index"])
            if payload["phase"] == "round":
                resume_loop = payload["loop_state"]
                resumed_stage_io = IOStats(**payload["stage_io_before"])

        for index in range(start_index, len(self.spec.stages)):
            stage_spec = self.spec.stages[index]
            stage = get_stage(stage_spec.stage)
            options = dict(stage_spec.options)
            if (
                "max_rounds" in stage.option_keys
                and "max_rounds" not in options
                and self.max_rounds is not None
            ):
                options["max_rounds"] = self.max_rounds

            resuming_here = resume_loop is not None and index == start_index
            io_before = (
                resumed_stage_io if resuming_here else ctx.source.stats.copy()
            )

            on_round = None
            checkpoint_rounds = self.checkpoint_path is not None and stage.resumable
            if checkpoint_rounds or self.progress is not None or obs_on:
                io_before_payload = io_before.as_dict() if checkpoint_rounds else None
                # Round spans hang off the existing per-round hook: each
                # span stretches from the previous round boundary (or the
                # stage start) to this one, so consecutive rounds tile the
                # stage span in the trace.
                round_state = [tracer.now(), 0]

                def on_round(
                    loop_state,
                    _index=index,
                    _io=io_before_payload,
                    _checkpoint=checkpoint_rounds,
                    _stage=stage.name,
                    _round=round_state,
                ):
                    if self.progress is not None:
                        self.progress()
                    if obs_on:
                        now = tracer.now()
                        _round[1] += 1
                        tracer.add_span(
                            f"round:{_stage}",
                            "round",
                            _round[0],
                            now,
                            args={"round": _round[1]},
                        )
                        _round[0] = now
                        registry.inc("repro_rounds_total", stage=_stage)
                        journal.emit(
                            "round", stage=_stage, index=_index, round=_round[1]
                        )
                    if not _checkpoint or not self._round_checkpoint_due():
                        return
                    self._write_checkpoint(
                        ctx,
                        origin,
                        phase="round",
                        stage_index=_index,
                        loop_state=loop_state,
                        stage_io_before=_io,
                    )

            journal.emit(
                "stage_start",
                stage=stage.name,
                index=index,
                total=len(self.spec.stages),
            )
            # The trace names the backend each stage ran on, resolved
            # against the source the stage starts from.
            stage_backend = ctx.resolve_kernel().name if obs_on else None
            stage_mark = tracer.now()
            stage_started = time.perf_counter()
            result = stage.run(
                ctx,
                previous,
                options,
                resume_state=resume_loop if resuming_here else None,
                on_round=on_round,
            )
            stage_elapsed = time.perf_counter() - stage_started

            extras = dict(result.extras)
            artifact = extras.pop(ARTIFACT_KEY, None)
            if artifact is not None:
                result = replace(result, extras=extras)
            report = StageReport(
                stage=stage.name,
                index=index,
                algorithm=result.algorithm,
                size=result.size,
                rounds=result.num_rounds,
                elapsed_seconds=stage_elapsed,
                io=ctx.source.stats.delta_since(io_before),
                memory_bytes=result.memory_bytes,
                extras=extras,
            )
            if obs_on:
                report.record(registry)
                tracer.add_span(
                    f"stage:{stage.name}",
                    "stage",
                    stage_mark,
                    tracer.now(),
                    args={
                        "algorithm": result.algorithm,
                        "backend": stage_backend,
                        "size": result.size,
                        "rounds": result.num_rounds,
                    },
                )
                journal.emit(
                    "stage_end",
                    stage=stage.name,
                    index=index,
                    total=len(self.spec.stages),
                    algorithm=result.algorithm,
                    size=result.size,
                    rounds=result.num_rounds,
                    seconds=round(stage_elapsed, 6),
                )
            if self.checkpoint_path is not None:
                # The encoded entry is only needed for checkpoint payloads;
                # plain runs skip it.
                encode_mark = tracer.now()
                entry: Dict[str, object] = {
                    "report": report.summary(),
                    "result": encode_result(result, array_native=True),
                }
                if artifact is not None:
                    entry["artifact"] = artifact
                section = extend_section(self._completed_section, entry)
                self._completed_section = section
                if obs_on:
                    tracer.add_span(
                        "checkpoint:encode",
                        "checkpoint",
                        encode_mark,
                        tracer.now(),
                        args={
                            "entries": len(reports) + 1,
                            "bytes": len(section.json_bytes) + len(section.blob),
                        },
                    )
            reports.append(report)
            last_result = result
            previous = None if stage.transforms_source else result
            if self.progress is not None:
                self.progress()

            if self.checkpoint_path is not None:
                self._write_checkpoint(
                    ctx,
                    origin,
                    phase="boundary",
                    stage_index=index + 1,
                    loop_state=None,
                    stage_io_before=None,
                )

        if last_result is None:  # pragma: no cover - specs are non-empty
            raise SolverError(f"pipeline {self.spec.name!r} executed no stages")

        members = last_result.members
        for finalizer in reversed(ctx.finalizers):
            members = as_members(finalizer(members))

        if self.validate and ctx.original_graph is not None:
            assert_independent_set(ctx.original_graph, members)

        elapsed = time.perf_counter() - started
        extras = dict(last_result.extras)
        extras["stages"] = [report.summary() for report in reports]
        if obs_on:
            registry.observe(
                "repro_run_seconds", elapsed, pipeline=self.spec.name
            )
            registry.set_gauge(
                "repro_result_size", members.size, pipeline=self.spec.name
            )
            tracer.add_span(
                f"pipeline:{self.spec.name}",
                "pipeline",
                run_mark,
                tracer.now(),
                args={"size": members.size, "stages": len(reports)},
            )
            journal.emit(
                "run_end",
                pipeline=self.spec.name,
                algorithm=self.spec.name,
                size=members.size,
                seconds=round(elapsed, 6),
            )
        return MISResult(
            algorithm=self.spec.name,
            members=members,
            rounds=last_result.rounds,
            io=ctx.source.stats.copy(),
            memory_bytes=last_result.memory_bytes,
            elapsed_seconds=elapsed,
            initial_size=last_result.initial_size,
            extras=extras,
        )

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _verify_checkpoint(self, payload: dict, origin: dict) -> None:
        """Refuse to resume under a different configuration (typed errors)."""

        saved_spec = payload.get("spec")
        if saved_spec != self.spec.to_dict():
            saved_name = (
                saved_spec.get("name") if isinstance(saved_spec, dict) else saved_spec
            )
            raise CheckpointError(
                f"checkpoint was written for pipeline {saved_name!r}, not "
                f"{self.spec.name!r} with the requested stage options; "
                f"re-run with the original configuration"
            )
        if payload.get("max_rounds") != self.max_rounds:
            raise CheckpointError(
                f"checkpoint was written with max_rounds={payload.get('max_rounds')!r} "
                f"but this run requests max_rounds={self.max_rounds!r}"
            )
        if payload.get("source") != origin:
            raise CheckpointError(
                f"checkpoint belongs to a graph with {payload.get('source')!r} "
                f"but the input has {origin!r}; wrong input file?"
            )

    def _round_checkpoint_due(self) -> bool:
        """Whether the throttle allows writing a round checkpoint now."""

        if self.checkpoint_every_seconds is None:
            return True
        return (
            self._last_checkpoint_at is None
            or self._clock() - self._last_checkpoint_at
            >= self.checkpoint_every_seconds
        )

    def _write_checkpoint(
        self,
        ctx: ExecutionContext,
        origin: dict,
        phase: str,
        stage_index: int,
        loop_state: Optional[dict],
        stage_io_before: Optional[dict],
    ) -> None:
        payload = {
            "spec": self.spec.to_dict(),
            "max_rounds": self.max_rounds,
            "source": origin,
            "io": ctx.source.stats.as_dict(),
            "phase": phase,
            "stage_index": stage_index,
            "loop_state": loop_state,
            "stage_io_before": stage_io_before,
        }
        write_mark = self.obs.tracer.now()
        written = write_checkpoint(
            self.checkpoint_path,
            payload,
            sections={"completed": self._completed_section},
        )
        if self.obs.enabled:
            self.obs.tracer.add_span(
                "checkpoint:write",
                "checkpoint",
                write_mark,
                self.obs.tracer.now(),
                args={
                    "phase": phase,
                    "stage_index": stage_index,
                    "kind": "snapshot",
                    "bytes": written.nbytes,
                },
            )
            self.obs.registry.inc("repro_checkpoint_writes_total", phase=phase)
        self._last_checkpoint_at = self._clock()
        self._checkpoint_writes += 1
        if (
            self.interrupt_after is not None
            and self._checkpoint_writes >= self.interrupt_after
        ):
            raise PipelineInterrupted(
                f"pipeline interrupted after checkpoint write "
                f"#{self._checkpoint_writes} ({phase} at stage {stage_index}); "
                f"resume from {self.checkpoint_path!r}"
            )
