"""Persistent on-disk job store of the solver service.

One service directory holds everything the service needs to survive a
crash of any of its processes:

```
<root>/
  jobs/<job_id>.json        atomic, checksummed job records
  checkpoints/<job_id>.ck   per-job checkpoint files (engine or stream snapshot)
  checkpoints/<job_id>.ck.log
                            a stream job's append-only batch log
  results/<job_id>.json     encoded MISResults of finished jobs
  cache/<cache_key>.json    digest-keyed result cache entries
  journal/<job_id>.jsonl    structured per-job event journals (obs layer)
```

A :class:`JobRecord` is the durable state-machine entry for one
submitted run spec: ``queued → running → done | failed | cancelled``
(plus the crash-recovery edge ``running → queued`` taken by the
scheduler when a worker dies).  Records are written durably (fsynced
temp file, :func:`os.replace`, directory fsync; see
:func:`~repro.storage.blocks.atomic_write`) inside a checksummed
envelope, so a torn write is detected on read instead of being
half-applied, and a reader polling the store always observes a complete
record.

The store itself is deliberately dumb: it knows nothing about worker
processes or scheduling policy.  The scheduler
(:class:`repro.service.service.SolverService`), the worker
(:mod:`repro.service.worker`) and the client
(:class:`repro.service.client.ServiceClient`) coordinate purely through
these records — which is exactly what lets a restarted service pick up
where a killed one left off.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.errors import JobNotFoundError, ServiceError
from repro.pipeline.spec import RunSpec
from repro.storage.blocks import atomic_write

__all__ = ["JOB_STATES", "JobRecord", "JobStore"]

#: Record format marker + version, checked on every read.
RECORD_FORMAT = "repro-mis-job"
RECORD_VERSION = 1

#: The job state machine.  ``queued`` jobs wait for a worker slot;
#: ``running`` jobs own a worker process (or are orphans awaiting
#: recovery); the terminal states are ``done``/``failed``/``cancelled``.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def _canonical(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(payload: Dict[str, object]) -> str:
    return hashlib.blake2b(_canonical(payload), digest_size=16).hexdigest()


@dataclass(frozen=True)
class JobRecord:
    """Durable state of one submitted job.

    Attributes
    ----------
    job_id:
        Store-unique identifier (time-ordered prefix + random suffix).
    spec:
        The submitted :class:`~repro.pipeline.spec.RunSpec` as a dict
        (its ``checkpoint``/``resume`` fields are ignored — the service
        owns checkpointing).
    state:
        One of :data:`JOB_STATES`.
    input_digest:
        Content digest of the input adjacency file at submit time.
    updates_digest:
        Content digest of the edge-update file at submit time (stream
        jobs only; ``None`` for plain solves).
    cache_key:
        Digest of ``(input_digest, canonical spec, backend)`` — the
        result-cache key.
    attempts:
        Number of worker processes started for this job so far (a crash
        and resume increments it).
    pid:
        OS pid of the owning worker while ``running``.
    checkpoint_every_seconds:
        Effective round-checkpoint throttle, stamped by the scheduler
        when the job first starts (spec value, or the service default).
    interrupt_after:
        Testing/drill knob forwarded to the engine: the worker dies
        (exit 3, record left ``running``) right after this many
        checkpoint writes — the deterministic stand-in for ``kill -9``.
    cancel_requested:
        Set by the client; the scheduler terminates the worker and moves
        the job to ``cancelled``.
    cache_hit:
        Whether the result was served from the result cache without any
        solver work.
    error:
        Failure message for ``failed`` jobs.
    stages:
        Per-stage telemetry (the engine's ``extras["stages"]``) copied
        into the record when the job finishes.
    """

    job_id: str
    spec: Dict[str, object]
    state: str
    input_digest: str
    cache_key: str
    created_at: float
    updated_at: float
    attempts: int = 0
    pid: Optional[int] = None
    checkpoint_every_seconds: Optional[float] = None
    interrupt_after: Optional[int] = None
    cancel_requested: bool = False
    cache_hit: bool = False
    error: Optional[str] = None
    stages: List[dict] = field(default_factory=list)
    updates_digest: Optional[str] = None

    def run_spec(self) -> RunSpec:
        """The submitted spec as a :class:`RunSpec` object."""

        return RunSpec.from_dict(dict(self.spec))

    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "spec": dict(self.spec),
            "state": self.state,
            "input_digest": self.input_digest,
            "cache_key": self.cache_key,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "attempts": self.attempts,
            "pid": self.pid,
            "checkpoint_every_seconds": self.checkpoint_every_seconds,
            "interrupt_after": self.interrupt_after,
            "cancel_requested": self.cancel_requested,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "stages": list(self.stages),
            "updates_digest": self.updates_digest,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobRecord":
        try:
            return cls(
                job_id=str(payload["job_id"]),
                spec=dict(payload["spec"]),
                state=str(payload["state"]),
                input_digest=str(payload["input_digest"]),
                cache_key=str(payload["cache_key"]),
                created_at=float(payload["created_at"]),
                updated_at=float(payload["updated_at"]),
                attempts=int(payload["attempts"]),
                pid=payload["pid"],
                checkpoint_every_seconds=payload["checkpoint_every_seconds"],
                interrupt_after=payload["interrupt_after"],
                cancel_requested=bool(payload["cancel_requested"]),
                cache_hit=bool(payload["cache_hit"]),
                error=payload["error"],
                stages=list(payload["stages"]),
                # .get(): records minted before the stream job type have
                # no updates_digest and must keep decoding.
                updates_digest=payload.get("updates_digest"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"job record is malformed: {exc}") from None


class JobStore:
    """The on-disk job store rooted at a service directory."""

    def __init__(self, root: str, create: bool = True) -> None:
        self.root = root
        self.jobs_dir = os.path.join(root, "jobs")
        self.checkpoints_dir = os.path.join(root, "checkpoints")
        self.results_dir = os.path.join(root, "results")
        self.cache_dir = os.path.join(root, "cache")
        self.heartbeats_dir = os.path.join(root, "heartbeats")
        self.journal_dir = os.path.join(root, "journal")
        if create:
            for directory in (
                self.jobs_dir,
                self.checkpoints_dir,
                self.results_dir,
                self.cache_dir,
                self.heartbeats_dir,
                self.journal_dir,
            ):
                os.makedirs(directory, exist_ok=True)
        elif not os.path.isdir(self.jobs_dir):
            raise ServiceError(
                f"{root!r} is not a service directory (missing jobs/); "
                f"start one with 'repro-mis serve' or submit a job first"
            )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.checkpoints_dir, f"{job_id}.ck")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.json")

    def heartbeat_path(self, job_id: str) -> str:
        return os.path.join(self.heartbeats_dir, f"{job_id}.hb")

    def journal_path(self, job_id: str) -> str:
        """The job's structured event journal (JSONL, append-only).

        Written by whoever observes a lifecycle edge — the client
        (``queued``), the scheduler (requeues, cache hits, cancels) and
        the worker (attempts, stages, batches, terminal states) all
        append to the same file, so ``submit --follow`` and ``status
        --metrics`` read one merged timeline without parsing logs.
        """

        return os.path.join(self.journal_dir, f"{job_id}.jsonl")

    def touch_heartbeat(self, job_id: str) -> None:
        """Stamp the job's progress heartbeat (file mtime is the beat).

        Workers beat at every solver progress point (swap round, stage
        boundary); the scheduler compares the mtime against its timeout to
        tell a *hung* worker — live pid, no progress — from a merely slow
        one.  Created in the older layouts too: the directory may predate
        the heartbeat feature.
        """

        os.makedirs(self.heartbeats_dir, exist_ok=True)
        path = self.heartbeat_path(job_id)
        with open(path, "a", encoding="utf-8"):
            pass
        os.utime(path, None)

    def heartbeat_age(self, job_id: str, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the job's last beat, or ``None`` when never beaten."""

        try:
            mtime = os.stat(self.heartbeat_path(job_id)).st_mtime
        except OSError:
            return None
        return (time.time() if now is None else now) - mtime

    def clear_heartbeat(self, job_id: str) -> None:
        try:
            os.unlink(self.heartbeat_path(job_id))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Record persistence
    # ------------------------------------------------------------------
    @staticmethod
    def new_job_id() -> str:
        """A store-unique id whose lexical order follows submission time."""

        return f"{int(time.time() * 1000):013x}-{secrets.token_hex(4)}"

    def write(self, record: JobRecord) -> JobRecord:
        """Atomically persist ``record`` (stamping ``updated_at``)."""

        record = replace(record, updated_at=time.time())
        payload = record.to_dict()
        envelope = {
            "format": RECORD_FORMAT,
            "version": RECORD_VERSION,
            "checksum": _checksum(payload),
            "record": payload,
        }
        # The scheduler and a worker may write the same record at the same
        # time (e.g. the pid stamp racing a fast failure); atomic_write's
        # per-writer temp names keep both renames atomic and
        # collision-free — last write wins, and readers always see a
        # complete record.
        atomic_write(self.record_path(record.job_id), _canonical(envelope))
        return record

    def get(self, job_id: str) -> JobRecord:
        """Read and verify one job record."""

        path = self.record_path(job_id)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise JobNotFoundError(job_id) from None
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServiceError(f"job record {path!r} is not valid JSON") from None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != RECORD_FORMAT
        ):
            raise ServiceError(f"{path!r} is not a job record")
        if envelope.get("version") != RECORD_VERSION:
            raise ServiceError(
                f"job record {path!r} has unsupported version "
                f"{envelope.get('version')!r}"
            )
        payload = envelope.get("record")
        if not isinstance(payload, dict) or envelope.get("checksum") != _checksum(
            payload
        ):
            raise ServiceError(
                f"job record {path!r} failed its checksum; the record is corrupt"
            )
        return JobRecord.from_dict(payload)

    def list(self) -> List[JobRecord]:
        """Every job record, oldest first (submission order)."""

        try:
            names = sorted(
                name
                for name in os.listdir(self.jobs_dir)
                if name.endswith(".json")
            )
        except FileNotFoundError:
            return []
        records = [self.get(name[: -len(".json")]) for name in names]
        records.sort(key=lambda record: (record.created_at, record.job_id))
        return records

    @contextmanager
    def _locked(self, job_id: str):
        """Serialize read-modify-write cycles on one record across processes.

        The scheduler and a job's worker both update the same record
        (state transitions, pid stamps, terminal results); without the
        lock, a concurrent cycle could resurrect a terminal record from
        a stale read.
        """

        handle = open(os.path.join(self.jobs_dir, f"{job_id}.lock"), "a+")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    def update(
        self,
        job_id: str,
        expect_states: Optional[Iterable[str]] = None,
        **changes,
    ) -> JobRecord:
        """Atomically read-modify-write one record; returns the stored version.

        With ``expect_states``, the update only applies while the record
        is in one of those states — otherwise the concurrent writer's
        state stands and the current record is returned unchanged.  The
        scheduler uses this so e.g. its pid stamp can never overwrite
        the ``failed`` record of a worker that already finished.
        """

        with self._locked(job_id):
            record = self.get(job_id)
            if expect_states is not None and record.state not in set(expect_states):
                return record
            return self.write(replace(record, **changes))
