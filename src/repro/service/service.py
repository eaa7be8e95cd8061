"""The solver service: scheduler, worker pool and crash recovery.

:class:`SolverService` is the daemon side of solver-as-a-service.  It
owns a :class:`~repro.service.jobstore.JobStore` and turns ``queued``
job records into results by running each job's pipeline in a child
process (:mod:`repro.service.worker`), up to ``workers`` jobs
concurrently.  All state lives in the store, which buys the two
serving-system properties the paper's long batch solves need:

* **crash recovery** — a worker that dies (``kill -9``, OOM, the drill
  knob) leaves its job record ``running`` and its engine checkpoint on
  disk; the scheduler requeues it and the next attempt resumes from the
  checkpoint bit-identically.  If the *whole service* dies, a restarted
  service adopts still-alive orphan workers by pid, requeues jobs whose
  workers are gone, and carries on — nothing is lost but wall time;
* **result reuse** — before starting a worker, the scheduler consults
  the digest-keyed :class:`~repro.service.cache.ResultCache`; an
  identical resubmission is served the identical ``MISResult`` with no
  solver work.  A queued job whose key matches a *currently running*
  job is held back (in-flight dedup) so the duplicate becomes a cache
  hit instead of a redundant solve.

The scheduler is a poll loop (:meth:`run_once` is one pass; tests drive
it directly, ``repro-mis serve`` wraps it with sleeps), deliberately
single-threaded: every transition is a read-modify-write of one record,
so there is nothing to lock.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ServiceError
from repro.obs import MetricsRegistry
from repro.obs.journal import append_event
from repro.service.jobstore import JobRecord, JobStore
from repro.service.cache import ResultCache
from repro.service.worker import worker_main
from repro.storage.blocks import atomic_write

__all__ = ["ServiceConfig", "SolverService"]


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _pid_alive(pid: Optional[int]) -> bool:
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by someone else
        return True
    return True


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service daemon.

    ``checkpoint_every_seconds`` is the service's default checkpoint
    policy: jobs whose spec does not set its own cadence write round
    checkpoints at most every this many seconds (``None`` = every
    round).  ``max_restarts`` caps how many times one job's worker may
    die before the job is failed instead of requeued.
    ``cache_limit_bytes`` bounds the result cache on disk; the scheduler
    evicts least-recently-used entries past the budget (``None`` =
    unbounded).  ``heartbeat_timeout_seconds`` arms hung-worker
    detection: a running worker whose pid is alive but whose progress
    heartbeat (beaten every swap round and stage boundary) is older than
    the timeout is killed and its job requeued to resume from the
    checkpoint.  ``None`` (the default) disables the check — a single
    round of a huge graph can legitimately take minutes, so the timeout
    must be sized by the operator.
    """

    workers: int = 2
    poll_interval_seconds: float = 0.2
    checkpoint_every_seconds: Optional[float] = 30.0
    max_restarts: int = 100
    cache_limit_bytes: Optional[int] = None
    heartbeat_timeout_seconds: Optional[float] = None


class SolverService:
    """Scheduler + process worker pool over one service directory."""

    def __init__(self, root: str, config: Optional[ServiceConfig] = None) -> None:
        self.store = JobStore(root)
        self.config = config or ServiceConfig()
        #: Scheduler-side metrics (scheduling decisions, cache traffic).
        #: Folded into the ``repro-mis metrics`` view alongside the
        #: store-derived series.
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(
            self.store.cache_dir,
            limit_bytes=self.config.cache_limit_bytes,
            registry=self.metrics,
        )
        if self.config.workers < 1:
            raise ServiceError("a service needs at least one worker slot")
        self._mp = _mp_context()
        #: Live child processes, by job id.
        self._workers: Dict[str, multiprocessing.Process] = {}
        #: Orphan workers of a previous (crashed) daemon, by job id → pid.
        self._adopted: Dict[str, int] = {}
        self.recover()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Reconcile the store with reality after a (re)start.

        ``running`` records whose worker pid is gone are requeued — their
        next attempt resumes from the job checkpoint.  Records whose pid
        is still alive belong to orphan workers of a killed daemon; they
        are adopted and watched until they finish or die.
        """

        for record in self.store.list():
            if record.state != "running" or record.job_id in self._workers:
                continue
            if _pid_alive(record.pid):
                self._adopted[record.job_id] = record.pid
            else:
                self._requeue(record, reason="worker died while the service was down")
        # A previous daemon may have run without (or with a larger) cache
        # budget; bring the directory under this daemon's limit.
        self.cache.evict()

    def _journal(self, job_id: str, event: str, **fields) -> None:
        """Best-effort lifecycle journaling: never fails a transition."""

        try:
            append_event(self.store.journal_path(job_id), event, **fields)
        except OSError:  # pragma: no cover - journal dir unwritable
            pass

    def _requeue(self, record: JobRecord, reason: str) -> None:
        if record.attempts > self.config.max_restarts:
            self.store.update(
                record.job_id,
                expect_states=("running",),
                state="failed",
                pid=None,
                error=(
                    f"worker crashed {record.attempts} times "
                    f"(max_restarts={self.config.max_restarts}); last: {reason}"
                ),
            )
            self.metrics.inc("repro_service_jobs_failed_total")
            self._journal(record.job_id, "job_failed", reason=reason)
        else:
            self.store.update(
                record.job_id, expect_states=("running",), state="queued", pid=None
            )
            self.metrics.inc("repro_service_requeues_total")
            self._journal(record.job_id, "job_requeued", reason=reason)

    # ------------------------------------------------------------------
    # One scheduling pass
    # ------------------------------------------------------------------
    def run_once(self) -> None:
        """Reap exits, watch orphans, apply cancellations, start workers."""

        self.metrics.inc("repro_service_scheduler_passes_total")
        self._reap()
        self._watch_adopted()
        self._check_heartbeats()
        self._apply_cancellations()
        self._schedule()

    def _reap(self) -> None:
        reaped = False
        for job_id, process in list(self._workers.items()):
            if process.is_alive():
                continue
            process.join()
            exitcode = process.exitcode
            del self._workers[job_id]
            reaped = True
            record = self.store.get(job_id)
            if record.state == "running":
                # Exit 0 with a terminal record is the success contract;
                # anything else — the drill knob's exit 3, a SIGKILL's
                # negative code, even a zero exit that skipped its
                # bookkeeping — is a crash, and the job resumes.
                self._requeue(record, reason=f"worker exited with {exitcode}")
        if reaped:
            # Workers write cache entries without knowing the budget; the
            # scheduler sweeps after every batch of exits (a reap is the
            # only moment the cache can have grown).
            self.cache.evict()

    def _watch_adopted(self) -> None:
        for job_id, pid in list(self._adopted.items()):
            record = self.store.get(job_id)
            if record.is_terminal():
                del self._adopted[job_id]
                continue
            if not _pid_alive(pid):
                del self._adopted[job_id]
                if record.state == "running":
                    self._requeue(record, reason=f"orphan worker {pid} died")

    def _check_heartbeats(self) -> None:
        """Kill and requeue hung workers (live pid, stale progress beat).

        Pid liveness catches workers that *die*; this catches workers
        that are alive but stuck — a deadlocked worker pool, unkillable
        I/O — by watching the progress heartbeat the worker stamps at
        every swap round and stage boundary.  The kill is a plain
        SIGKILL: by the crash-recovery contract the job's checkpoint is
        complete on disk, so the requeued attempt resumes bit-identically
        and the hang costs wall time, never work or correctness.
        """

        timeout = self.config.heartbeat_timeout_seconds
        if timeout is None:
            return
        for job_id, process in list(self._workers.items()):
            if not process.is_alive():
                continue  # a dead worker is _reap's case, next pass
            age = self.store.heartbeat_age(job_id)
            if age is None or age <= timeout:
                continue
            process.kill()
            process.join()
            del self._workers[job_id]
            record = self.store.get(job_id)
            if record.state == "running":
                self._requeue(
                    record,
                    reason=f"worker hung (no heartbeat for {age:.1f}s)",
                )
        for job_id, pid in list(self._adopted.items()):
            age = self.store.heartbeat_age(job_id)
            if age is None or age <= timeout:
                continue
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
            del self._adopted[job_id]
            record = self.store.get(job_id)
            if record.state == "running":
                self._requeue(
                    record,
                    reason=f"orphan worker {pid} hung (no heartbeat for {age:.1f}s)",
                )

    def _apply_cancellations(self) -> None:
        for record in self.store.list():
            if not record.cancel_requested or record.is_terminal():
                continue
            process = self._workers.pop(record.job_id, None)
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join()
            orphan_pid = self._adopted.pop(record.job_id, None)
            if orphan_pid is not None and _pid_alive(orphan_pid):
                try:
                    os.kill(orphan_pid, 15)
                except ProcessLookupError:
                    pass
            # The worker may have finished in the window before the
            # terminate landed; a terminal record wins over the cancel.
            updated = self.store.update(
                record.job_id,
                expect_states=("queued", "running"),
                state="cancelled",
                pid=None,
            )
            if updated.state == "cancelled":
                self.metrics.inc("repro_service_cancellations_total")
                self._journal(record.job_id, "job_cancelled")

    def _schedule(self) -> None:
        free = self.config.workers - len(self._workers) - len(self._adopted)
        if free <= 0:
            return
        records = self.store.list()
        in_flight_keys = {
            record.cache_key for record in records if record.state == "running"
        }
        for record in records:
            if free <= 0:
                break
            if record.state != "queued" or record.cancel_requested:
                continue
            if self._serve_from_cache(record):
                continue
            if record.cache_key in in_flight_keys:
                # In-flight dedup: once the twin finishes, this job is a
                # cache hit instead of a second solve.
                continue
            self._start_worker(record)
            in_flight_keys.add(record.cache_key)
            free -= 1

    def _serve_from_cache(self, record: JobRecord) -> bool:
        hit = self.cache.get(record.cache_key)
        if hit is None:
            return False
        atomic_write(self.store.result_path(record.job_id), hit.result)
        # Guarded transition: a client cancel landing since the schedule
        # pass read the record must stand — terminal states never revert.
        updated = self.store.update(
            record.job_id,
            expect_states=("queued",),
            state="done",
            cache_hit=True,
            pid=None,
            stages=hit.stages,
        )
        if updated.state == "done":
            self._journal(record.job_id, "cache_hit", cache_key=record.cache_key)
        return True

    def _start_worker(self, record: JobRecord) -> None:
        every = record.checkpoint_every_seconds
        if every is None:
            every = self.config.checkpoint_every_seconds
        # The running record is written *before* the process starts: if the
        # daemon dies in between, recovery sees a running record with a dead
        # (None) pid and simply requeues — never two workers on one job.
        # The transition is guarded: a cancel that landed since the
        # schedule pass read the record wins, and no worker starts.
        record = self.store.update(
            record.job_id,
            expect_states=("queued",),
            state="running",
            attempts=record.attempts + 1,
            checkpoint_every_seconds=every,
            pid=None,
        )
        if record.state != "running":
            return
        # The attempt's heartbeat clock starts now, not at the worker's
        # first beat: a worker that hangs before ever beating (or a
        # requeued job inheriting an old stale file) is still timed from
        # a fresh stamp.
        self.store.touch_heartbeat(record.job_id)
        process = self._mp.Process(
            target=worker_main, args=(self.store.root, record.job_id)
        )
        process.start()
        # Conditional stamp: a worker that already reached a terminal
        # state (e.g. failed instantly on a missing input) must not be
        # resurrected to "running" by this late pid write.
        self.store.update(record.job_id, expect_states=("running",), pid=process.pid)
        self._workers[record.job_id] = process
        self.metrics.inc("repro_service_workers_started_total")
        self._journal(
            record.job_id,
            "job_running",
            attempt=record.attempts,
            pid=process.pid,
        )

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def has_open_jobs(self) -> bool:
        """Whether any job is queued or running (incl. adopted orphans)."""

        if self._workers or self._adopted:
            return True
        return any(not record.is_terminal() for record in self.store.list())

    def drain(self, timeout_seconds: Optional[float] = None) -> List[JobRecord]:
        """Run scheduling passes until every job reaches a terminal state.

        Returns the final records.  Raises :class:`ServiceError` when a
        timeout is given and open jobs remain past it.
        """

        deadline = (
            None if timeout_seconds is None else time.monotonic() + timeout_seconds
        )
        while True:
            self.run_once()
            if not self.has_open_jobs():
                return self.store.list()
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"service drain timed out after {timeout_seconds} seconds "
                    f"with open jobs"
                )
            time.sleep(self.config.poll_interval_seconds)

    def serve_forever(self, drain: bool = False) -> None:
        """The daemon loop behind ``repro-mis serve``.

        With ``drain=True`` the loop exits once no queued or running jobs
        remain — the batch-processing mode the CI drill uses.
        """

        while True:
            self.run_once()
            if drain and not self.has_open_jobs():
                return
            time.sleep(self.config.poll_interval_seconds)

    def stop(self) -> None:
        """Terminate every live child worker (test/daemon teardown)."""

        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
        for process in self._workers.values():
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join()
        self._workers.clear()
