"""Child-process job execution for the solver service.

A worker owns exactly one job: it rebuilds the run from the job record,
executes the pipeline through :class:`~repro.pipeline.engine.PipelineEngine`
(or, for specs with an ``updates`` file, drains a
:class:`~repro.pipeline.stream.StreamSession` over the maintained
dynamic MIS) with the job's private checkpoint file, and writes the
encoded result, the cache entry and the terminal job record.  The result
is rendered to JSON text once, and both the result file and the cache
entry are written from that text, durably (see
:func:`~repro.storage.blocks.atomic_write`).  The process boundary is
the whole point — a worker that is ``kill -9``-ed (or dies with the
machine) leaves a complete checkpoint and a ``running`` record behind,
and the scheduler restarts the job with ``resume=True``, which the
engine guarantees is bit-identical to an uninterrupted run.

Exit-code contract with the scheduler:

* exit ``0`` — the worker finished its bookkeeping; the job record is
  terminal (``done`` or ``failed``) and authoritative;
* any other exit (including a real ``SIGKILL``, or exit
  :data:`WORKER_INTERRUPTED` from the deterministic ``interrupt_after``
  drill knob) — the record is still ``running``; the scheduler requeues
  the job to resume from its checkpoint.

Solver *errors* (bad input file, memory budget exceeded, malformed spec)
are job failures, not worker crashes: the worker records them under
``state="failed"`` and exits 0 so the scheduler does not retry a job
that can never succeed.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

# The default backend compiles in the daemon, which imports this module
# before it forks: a job then imports no kernel module of its own.
import repro.core.kernels.numpy_backend  # noqa: F401
from repro.core.result import MISResult
from repro.errors import PipelineInterrupted, ReproError
from repro.obs import EventJournal, MetricsRegistry, Observability
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine, encode_result
from repro.pipeline.stream import StreamSession
from repro.service.cache import (
    ResultCache,
    canonical_json,
    file_digest,
    input_digest,
    spec_key_fields,
)
from repro.service.jobstore import JobStore
from repro.storage.blocks import atomic_write
from repro.storage.registry import open_adjacency_source
from repro.storage.scan import AdjacencyScanSource

__all__ = ["WORKER_INTERRUPTED", "execute_job", "worker_main"]

#: Exit status of a worker killed by the ``interrupt_after`` drill knob —
#: mirrors the CLI's ``EXIT_INTERRUPTED`` so drills read the same either way.
WORKER_INTERRUPTED = 3


def _run_stream(spec, record, ctx, checkpoint, beat, obs) -> MISResult:
    """Execute a stream job: drain the update file over the maintained set.

    The session checkpoints after every batch and beats the heartbeat at
    the same cadence, so the scheduler's liveness machinery (and the
    ``interrupt_after`` drill) works identically for stream and solve
    jobs.  A killed worker leaves the per-batch checkpoint behind and the
    resumed attempt continues the stream bit-identically.
    """

    session = StreamSession(
        ctx.materialize_graph(),
        spec.updates,
        graph_digest=record.input_digest,
        pipeline=spec.pipeline.name,
        backend=spec.backend,
        batch_size=spec.batch_size or 1024,
        compact_threshold=spec.compact_threshold,
        checkpoint=checkpoint,
        resume=os.path.exists(checkpoint),
        interrupt_after=record.interrupt_after,
        progress=beat,
        obs=obs,
    )
    summary = session.run()
    extras = {
        "batch_size": summary["batch_size"],
        "batches_applied": summary["batches_applied"],
        "overlay_size": summary["overlay_size"],
    }
    extras.update(
        (f"stream_{key}", value) for key, value in summary["stats"].items()
    )
    return MISResult(
        algorithm="stream",
        members=summary["independent_set"],
        elapsed_seconds=float(summary["elapsed_seconds"]),
        # Constructive, like dynamic_update: no improvement phase, so the
        # initial size equals the final size.
        initial_size=len(summary["independent_set"]),
        extras=extras,
    )


def execute_job(root: str, job_id: str) -> int:
    """Run one job to a terminal record; returns the worker exit code."""

    store = JobStore(root, create=False)
    record = store.get(job_id)
    spec = record.run_spec()
    checkpoint = store.checkpoint_path(job_id)
    resumed = os.path.exists(checkpoint)

    # The job's structured event journal is the live telemetry channel:
    # the engine/stream session writes stage and batch events through it
    # and ``submit --follow`` tails them without parsing logs.  The
    # registry stays worker-local; durable telemetry lands in the job
    # record (stages) and the journal.
    journal = EventJournal(store.journal_path(job_id))
    obs = Observability(registry=MetricsRegistry(), journal=journal)
    journal.emit(
        "attempt_start",
        job_id=job_id,
        attempt=record.attempts,
        pid=os.getpid(),
        resumed=resumed,
    )

    # Progress heartbeat: stamped now (the worker is alive and about to
    # work) and then at every engine progress point — each swap round and
    # stage boundary.  A worker that is alive but stuck mid-round stops
    # beating, which is what the scheduler's stale-heartbeat timeout
    # detects; a worker that merely dies is caught by pid liveness.
    store.touch_heartbeat(job_id)

    def _beat() -> None:
        store.touch_heartbeat(job_id)

    reader: Optional[AdjacencyScanSource] = None
    try:
        # Everything up to and including the engine run converts solver
        # errors — unreadable input, malformed spec, bad cadence, memory
        # budget — into a terminal ``failed`` record: a deterministic
        # error must fail the job once, never crash-loop the worker.
        try:
            # The cache key (and the user's submission) are pinned to the
            # input content digested at submit time; solving whatever the
            # file happens to contain *now* would poison the cache.  For a
            # binary CSR artifact this is a header read, not a byte walk.
            current_digest = input_digest(spec.input)
            if current_digest != record.input_digest:
                raise ReproError(
                    f"input {spec.input!r} changed since the job was "
                    f"submitted (content digest mismatch); resubmit the job"
                )
            if spec.updates is not None and record.updates_digest is not None:
                current_updates = file_digest(spec.updates)
                if current_updates != record.updates_digest:
                    raise ReproError(
                        f"update file {spec.updates!r} changed since the job "
                        f"was submitted (content digest mismatch); resubmit "
                        f"the job"
                    )
            reader = open_adjacency_source(spec.input)
            ctx = ExecutionContext.create(
                reader,
                backend=spec.backend,
                memory_limit_bytes=spec.memory_limit_bytes,
            )
            if spec.updates is not None:
                result = _run_stream(spec, record, ctx, checkpoint, _beat, obs)
            else:
                engine = PipelineEngine(
                    spec.pipeline,
                    max_rounds=spec.max_rounds,
                    checkpoint_path=checkpoint,
                    # A previous attempt's checkpoint means this start
                    # resumes.
                    resume=resumed,
                    interrupt_after=record.interrupt_after,
                    checkpoint_every_seconds=record.checkpoint_every_seconds,
                    progress=_beat,
                    obs=obs,
                )
                result = engine.run(ctx)
        except PipelineInterrupted:
            # The deterministic stand-in for a kill: die without touching
            # the record, exactly as SIGKILL would.
            journal.emit("attempt_interrupted", job_id=job_id)
            return WORKER_INTERRUPTED
        except (ReproError, OSError) as exc:
            store.update(
                job_id,
                expect_states=("running",),
                state="failed",
                error=str(exc),
                pid=None,
            )
            store.clear_heartbeat(job_id)
            journal.emit("job_failed", job_id=job_id, error=str(exc))
            return 0

        # One rendering; the result file and the cache entry are both
        # written from that text.
        rendered = canonical_json(encode_result(result))
        atomic_write(store.result_path(job_id), rendered)
        ResultCache(store.cache_dir).put(
            record.cache_key,
            spec_key_fields(spec, record.input_digest),
            rendered,
        )
        store.update(
            job_id,
            expect_states=("running",),
            state="done",
            error=None,
            pid=None,
            stages=list(result.extras.get("stages", [])),
        )
        store.clear_heartbeat(job_id)
        journal.emit(
            "job_done",
            job_id=job_id,
            size=result.size,
            elapsed_seconds=round(result.elapsed_seconds, 6),
        )
        return 0
    finally:
        if reader is not None:
            reader.close()
        journal.close()


def worker_main(root: str, job_id: str) -> None:
    """``multiprocessing.Process`` target: execute the job, exit with its code."""

    sys.exit(execute_job(root, job_id))
