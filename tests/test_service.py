"""Solver-service tests: job store, worker pool, crash recovery, cache.

The acceptance drill of the service subsystem:

* jobs run concurrently across worker processes;
* a killed worker's job resumes after restart with the bit-identical
  independent set, round telemetry and cumulative ``IOStats`` (the kill
  is exercised both as a real ``SIGKILL`` and at *every* checkpoint
  write via the deterministic ``interrupt_after`` knob);
* a whole-service crash recovers on restart from the on-disk store;
* a resubmitted identical job is served from the digest-keyed result
  cache with no solver work, returning the identical ``MISResult``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.cli import build_parser
from repro.core.solver import solve_mis
from repro.errors import (
    JobNotFoundError,
    JobStateError,
    PipelineSpecError,
    ServiceError,
)
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine, encode_result
from repro.pipeline.spec import BUILTIN_PIPELINES, RunSpec
from repro.service import (
    JobStore,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    SolverService,
    cache_key,
    file_digest,
)
from repro.service.cache import canonical_json, input_digest, spec_key_fields
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file

DRAIN_TIMEOUT = 120.0


@pytest.fixture(scope="module")
def adjacency_path(tmp_path_factory):
    graph = erdos_renyi_gnm(300, 900, seed=11)
    path = str(tmp_path_factory.mktemp("graphs") / "g.adj")
    write_adjacency_file(graph, path).close()
    return path


@pytest.fixture(scope="module")
def slow_adjacency_path(tmp_path_factory):
    """A graph big enough that a python-backend job runs for ~a second."""

    graph = plrg_graph_with_vertex_count(50_000, 2.0, seed=5)
    path = str(tmp_path_factory.mktemp("graphs") / "slow.adj")
    write_adjacency_file(graph, path).close()
    return path


def make_spec(input_path, pipeline="two_k_swap", **kwargs):
    payload = {"pipeline": pipeline, "input": input_path, "max_rounds": 2}
    payload.update(kwargs)
    return RunSpec.from_dict(payload)


def fast_config(**overrides):
    defaults = dict(
        workers=2,
        poll_interval_seconds=0.02,
        checkpoint_every_seconds=None,
        max_restarts=100,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def reference_result(spec: RunSpec):
    return solve_mis(
        AdjacencyFileReader(spec.input),
        pipeline=spec.pipeline.name,
        backend=spec.backend,
        max_rounds=spec.max_rounds,
    )


def assert_results_identical(result, reference):
    assert result.independent_set == reference.independent_set
    assert result.rounds == reference.rounds
    assert result.io.as_dict() == reference.io.as_dict()
    assert result.initial_size == reference.initial_size
    assert result.memory_bytes == reference.memory_bytes


# ----------------------------------------------------------------------
# Job store
# ----------------------------------------------------------------------
class TestJobStore:
    def test_submit_creates_a_queued_record(self, adjacency_path, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        record = client.submit(make_spec(adjacency_path))
        assert record.state == "queued"
        assert record.attempts == 0
        assert record.input_digest == file_digest(adjacency_path)
        fetched = client.status(record.job_id)
        assert fetched.to_dict() == record.to_dict()

    def test_unknown_job_raises_not_found(self, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        with pytest.raises(JobNotFoundError, match="no-such-job"):
            client.status("no-such-job")

    def test_corrupt_record_detected(self, adjacency_path, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        record = client.submit(make_spec(adjacency_path))
        path = client.store.record_path(record.job_id)
        document = json.loads(open(path).read())
        document["record"]["state"] = "done"  # tampered, checksum now wrong
        open(path, "w").write(json.dumps(document))
        with pytest.raises(ServiceError, match="checksum"):
            client.status(record.job_id)

    def test_list_orders_by_submission(self, adjacency_path, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        first = client.submit(make_spec(adjacency_path))
        second = client.submit(make_spec(adjacency_path, max_rounds=1))
        ids = [record.job_id for record in client.list()]
        assert ids == [first.job_id, second.job_id]

    def test_missing_input_rejected_at_submit(self, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        with pytest.raises(ServiceError, match="cannot digest"):
            client.submit(make_spec(str(tmp_path / "absent.adj")))

    def test_status_requires_an_existing_store(self, tmp_path):
        with pytest.raises(ServiceError, match="not a service directory"):
            ServiceClient(str(tmp_path / "nowhere"), create=False)


# ----------------------------------------------------------------------
# Digests and cache keys
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_key_ignores_persistence_knobs(self, adjacency_path):
        digest = file_digest(adjacency_path)
        base = make_spec(adjacency_path)
        persisted = make_spec(
            adjacency_path,
            checkpoint="somewhere.ck",
            resume=True,
            checkpoint_every_seconds=5.0,
        )
        assert cache_key(base, digest) == cache_key(persisted, digest)

    def test_key_tracks_solver_relevant_fields(self, adjacency_path):
        digest = file_digest(adjacency_path)
        base = make_spec(adjacency_path)
        assert cache_key(base, digest) != cache_key(
            make_spec(adjacency_path, max_rounds=1), digest
        )
        assert cache_key(base, digest) != cache_key(
            make_spec(adjacency_path, pipeline="one_k_swap"), digest
        )
        assert cache_key(base, digest) != cache_key(
            make_spec(adjacency_path, backend="python"), digest
        )
        assert cache_key(base, digest) != cache_key(base, digest + "0")

    def test_digest_is_content_addressed(self, adjacency_path, tmp_path):
        copy = str(tmp_path / "copy.adj")
        with open(adjacency_path, "rb") as src, open(copy, "wb") as dst:
            dst.write(src.read())
        assert file_digest(copy) == file_digest(adjacency_path)
        with open(copy, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\xff")
        assert file_digest(copy) != file_digest(adjacency_path)


# ----------------------------------------------------------------------
# Execution, concurrency, cache
# ----------------------------------------------------------------------
class TestServiceExecution:
    def test_single_job_matches_direct_solve(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec = make_spec(adjacency_path)
        record = client.submit(spec)
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "done"
        assert record.attempts == 1
        assert not record.cache_hit
        assert record.stages  # per-stage telemetry copied into the record
        assert_results_identical(client.result(record.job_id), reference_result(spec))

    def test_three_jobs_two_backends_one_cache_hit(self, adjacency_path, tmp_path):
        """The acceptance drill's job mix, through the library API."""

        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        numpy_job = client.submit(make_spec(adjacency_path, backend="numpy"))
        python_job = client.submit(make_spec(adjacency_path, backend="python"))
        duplicate = client.submit(make_spec(adjacency_path, backend="numpy"))
        service = SolverService(root, fast_config(workers=2))
        try:
            service.run_once()
            # Both distinct jobs start immediately on the two worker slots;
            # the duplicate is held back by in-flight dedup.
            assert len(service._workers) == 2
            assert client.status(duplicate.job_id).state == "queued"
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()

        numpy_record = client.status(numpy_job.job_id)
        python_record = client.status(python_job.job_id)
        duplicate_record = client.status(duplicate.job_id)
        assert numpy_record.state == "done" and not numpy_record.cache_hit
        assert python_record.state == "done" and not python_record.cache_hit
        # The duplicate never ran a worker: pure cache hit.
        assert duplicate_record.state == "done"
        assert duplicate_record.cache_hit
        assert duplicate_record.attempts == 0
        # Both backends agree (the solver guarantee), and the cached result
        # is the identical MISResult of the job it duplicates.
        numpy_result = client.result(numpy_job.job_id)
        python_result = client.result(python_job.job_id)
        duplicate_result = client.result(duplicate.job_id)
        assert numpy_result.independent_set == python_result.independent_set
        assert duplicate_result == numpy_result

    def test_resubmission_after_drain_is_a_cache_hit(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec = make_spec(adjacency_path)
        original = client.submit(spec)
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
            resubmitted = client.submit(spec)
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(resubmitted.job_id)
        assert record.state == "done"
        assert record.cache_hit
        assert record.attempts == 0
        assert client.result(resubmitted.job_id) == client.result(original.job_id)
        assert ResultCache(client.store.cache_dir).size() == 1

    def test_vanished_input_fails_without_retry(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        doomed = str(tmp_path / "doomed.adj")
        with open(adjacency_path, "rb") as src, open(doomed, "wb") as dst:
            dst.write(src.read())
        client = ServiceClient(root)
        record = client.submit(make_spec(doomed))
        os.remove(doomed)
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "failed"
        assert record.attempts == 1  # a job error is not retried
        assert "cannot digest input" in record.error

    def test_edited_input_fails_instead_of_poisoning_the_cache(
        self, adjacency_path, tmp_path
    ):
        """The cache key is pinned to the submit-time content; a job whose
        input changed before execution must fail, not cache a wrong result
        under the original digest."""

        root = str(tmp_path / "svc")
        mutable = str(tmp_path / "mutable.adj")
        with open(adjacency_path, "rb") as src, open(mutable, "wb") as dst:
            dst.write(src.read())
        client = ServiceClient(root)
        record = client.submit(make_spec(mutable))
        # Replace the input with a different (valid) graph post-submit.
        other = erdos_renyi_gnm(120, 300, seed=99)
        write_adjacency_file(other, mutable).close()
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "failed"
        assert "digest mismatch" in record.error
        assert ResultCache(client.store.cache_dir).size() == 0

    def test_update_expect_states_never_reverts_terminal_records(
        self, adjacency_path, tmp_path
    ):
        client = ServiceClient(str(tmp_path / "svc"))
        record = client.submit(make_spec(adjacency_path))
        client.store.update(record.job_id, state="cancelled")
        unchanged = client.store.update(
            record.job_id, expect_states=("queued",), state="done"
        )
        assert unchanged.state == "cancelled"
        assert client.status(record.job_id).state == "cancelled"

    def test_memory_budget_error_fails_the_job(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec = RunSpec.from_dict(
            {
                "pipeline": {
                    "name": "comparator",
                    "stages": [{"stage": "local_search"}],
                },
                "input": adjacency_path,
                "memory_limit_bytes": 64,
            }
        )
        record = client.submit(spec)
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "failed"
        assert "bytes" in record.error

    def test_result_of_unfinished_job_rejected(self, adjacency_path, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        record = client.submit(make_spec(adjacency_path))
        with pytest.raises(JobStateError, match="queued"):
            client.result(record.job_id)


class TestResultDocuments:
    """A job's result is rendered once and written durably."""

    @staticmethod
    def _canonical(value) -> bytes:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()

    def test_result_file_and_cache_entry_share_one_rendering(
        self, adjacency_path, tmp_path
    ):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec = make_spec(adjacency_path)
        original = client.submit(spec)
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
            duplicate = client.submit(spec)
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(original.job_id)
        assert client.status(duplicate.job_id).cache_hit
        encoded = encode_result(client.result(original.job_id))
        rendered = self._canonical(encoded)
        store = client.store
        with open(store.result_path(original.job_id), "rb") as handle:
            assert handle.read() == rendered
        with open(store.result_path(duplicate.job_id), "rb") as handle:
            assert handle.read() == rendered
        entry = ResultCache(store.cache_dir).entry_path(record.cache_key)
        with open(entry, "rb") as handle:
            assert handle.read() == self._canonical(
                {
                    "key": record.cache_key,
                    "key_fields": spec_key_fields(spec, record.input_digest),
                    "result": encoded,
                }
            )

    def test_cache_entry_splices_the_rendered_result(self, tmp_path):
        encoded = {"independent_set": [1, 5, 9], "extras": {"x": 0.25}, "io": {}}
        fields = {"pipeline": {"name": "greedy"}, "backend": "auto"}
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("k", fields, canonical_json(encoded))
        with open(cache.entry_path("k"), "rb") as handle:
            assert handle.read() == self._canonical(
                {"key": "k", "key_fields": fields, "result": encoded}
            )
        assert cache.get("k") == (canonical_json(encoded), [])

    def test_worker_and_cache_hit_results_fsync_file_and_directory(
        self, adjacency_path, tmp_path, monkeypatch
    ):
        from repro.service.worker import execute_job

        synced = set()
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            info = os.fstat(descriptor)
            synced.add((info.st_dev, info.st_ino))
            return real_fsync(descriptor)

        def durable(path):
            return all(
                (info.st_dev, info.st_ino) in synced
                for info in (os.stat(path), os.stat(os.path.dirname(path)))
            )

        monkeypatch.setattr(os, "fsync", recording_fsync)
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        store = client.store
        spec = make_spec(adjacency_path)
        first = client.submit(spec)
        # The worker runs in this process, so the patched fsync sees it.
        store.update(
            first.job_id, expect_states=("queued",), state="running", attempts=1
        )
        assert execute_job(root, first.job_id) == 0
        assert client.status(first.job_id).state == "done"
        assert durable(store.result_path(first.job_id))
        assert durable(ResultCache(store.cache_dir).entry_path(first.cache_key))
        assert durable(store.record_path(first.job_id))

        synced.clear()
        duplicate = client.submit(spec)
        service = SolverService(root, fast_config())
        try:
            service.run_once()  # the schedule pass serves it from the cache
        finally:
            service.stop()
        assert client.status(duplicate.job_id).cache_hit
        assert durable(store.result_path(duplicate.job_id))
        assert durable(store.record_path(duplicate.job_id))


class TestCacheHits:
    """A hit copies the stored result text and decodes only its stages."""

    STAGES = [{"stage": "greedy", "index": 0}, {"stage": "one_k_swap", "index": 1}]

    def _entry(self, tmp_path, body: bytes):
        cache = ResultCache(str(tmp_path / "cache"))
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache.entry_path("k"), "wb") as handle:
            handle.write(body)
        return cache

    def test_hit_returns_the_stored_text_and_the_stages(self, tmp_path):
        encoded = {
            "algorithm": "two_k_swap",
            "elapsed_seconds": 0.5,
            "extras": {"alpha": [1, 2], "stages": self.STAGES, "zeta": "z"},
            "independent_set": list(range(0, 400, 3)),
            "io": {"sequential_scans": 3},
        }
        rendered = canonical_json(encoded)
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("k", {"pipeline": {"name": "greedy"}, "result": 1}, rendered)
        hit = cache.get("k")
        assert hit.result == rendered
        assert hit.stages == self.STAGES

    def test_members_after_the_stages_are_copied_not_decoded(self, tmp_path):
        rendered = b'{"extras":{"stages":[]},"independent_set":[1,2,3]}'
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("k", {}, rendered)
        # Only the bytes in front of extras.stages are parsed: a later
        # member that would not decode is still served verbatim.
        with open(cache.entry_path("k"), "rb") as handle:
            data = handle.read()
        self._entry(tmp_path, data.replace(b"[1,2,3]", b"[1,2,oops]"))
        hit = cache.get("k")
        assert hit.result == rendered.replace(b"[1,2,3]", b"[1,2,oops]")
        assert hit.stages == []

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"not json",
            b'{"key":"k","key_fields":{}}',
            b'{"key":"k","key_fields":{},"result":[1,2]}',
            b'{"key":"k","key_fields":{},"result":{"extras":{"stages":7}}}',
            b'{"key":"k","key_fields":{},"result":{"extras":[]}}',
            b'{"key":"k","key_fields":{"pipeline":',
            b'{"key":"k","key_fields":{},"result":{"extras":{"stages":[',
            b'{"key":"k","key_fields":{"n":"\xff"},"result":{}}',
        ],
    )
    def test_malformed_entries_raise(self, tmp_path, body):
        cache = self._entry(tmp_path, body)
        with pytest.raises(ServiceError, match="malformed"):
            cache.get("k")

    def test_cache_hit_record_carries_the_original_stages(
        self, adjacency_path, tmp_path
    ):
        from repro.service.worker import execute_job

        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        store = client.store
        spec = make_spec(adjacency_path)
        first = client.submit(spec)
        store.update(
            first.job_id, expect_states=("queued",), state="running", attempts=1
        )
        assert execute_job(root, first.job_id) == 0
        duplicate = client.submit(spec)
        service = SolverService(root, fast_config())
        try:
            service.run_once()
        finally:
            service.stop()
        original, hit = client.status(first.job_id), client.status(duplicate.job_id)
        assert hit.cache_hit and hit.state == "done"
        assert hit.stages and hit.stages == original.stages
        with open(store.result_path(first.job_id), "rb") as handle:
            expected = handle.read()
        with open(store.result_path(duplicate.job_id), "rb") as handle:
            assert handle.read() == expected


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
def _checkpoint_writes_of(spec: RunSpec, tmp_path) -> int:
    """How many checkpoint writes an uninterrupted run of ``spec`` makes."""

    reader = AdjacencyFileReader(spec.input)
    engine = PipelineEngine(
        spec.pipeline,
        max_rounds=spec.max_rounds,
        checkpoint_path=str(tmp_path / "probe.ck"),
    )
    engine.run(ExecutionContext.create(reader, backend=spec.backend))
    reader.close()
    return engine._checkpoint_writes


class TestCrashRecovery:
    def test_worker_killed_at_every_checkpoint_boundary_and_round(
        self, adjacency_path, tmp_path
    ):
        """Sweep the deterministic kill over every interruption point.

        ``interrupt_after=k`` makes the worker die right after its k-th
        checkpoint write on *every* attempt, so the job crosses several
        crash/resume cycles before finishing — at stage boundaries and
        mid-round-loop alike.  Every variant must converge to the
        bit-identical result of an uninterrupted solve.
        """

        spec = make_spec(adjacency_path)
        reference = reference_result(spec)
        total_writes = _checkpoint_writes_of(spec, tmp_path)
        assert total_writes >= 3  # boundaries + at least one round write
        for interrupt_after in range(1, total_writes + 2):
            root = str(tmp_path / f"svc-{interrupt_after}")
            client = ServiceClient(root)
            record = client.submit(spec, interrupt_after=interrupt_after)
            service = SolverService(root, fast_config(workers=1))
            try:
                service.drain(timeout_seconds=DRAIN_TIMEOUT)
            finally:
                service.stop()
            record = client.status(record.job_id)
            assert record.state == "done", (interrupt_after, record.error)
            if interrupt_after <= total_writes:
                assert record.attempts > 1  # it really crashed and resumed
            assert_results_identical(client.result(record.job_id), reference)

    def test_sigkilled_worker_resumes_bit_identically(
        self, slow_adjacency_path, tmp_path
    ):
        """A real SIGKILL mid-run: the restarted job must finish identically."""

        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec = make_spec(
            slow_adjacency_path, backend="python", checkpoint_every_seconds=0.001
        )
        record = client.submit(spec)
        service = SolverService(root, fast_config(workers=1))
        try:
            service.run_once()
            running = client.status(record.job_id)
            assert running.state == "running"
            time.sleep(0.15)  # let it get past some checkpoint writes
            os.kill(running.pid, signal.SIGKILL)
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "done"
        assert record.attempts == 2
        assert_results_identical(client.result(record.job_id), reference_result(spec))

    def test_whole_service_crash_recovers_on_restart(
        self, slow_adjacency_path, tmp_path
    ):
        """Kill the worker *and* abandon the daemon; a fresh service resumes."""

        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec = make_spec(
            slow_adjacency_path, backend="python", checkpoint_every_seconds=0.001
        )
        record = client.submit(spec)
        first_daemon = SolverService(root, fast_config(workers=1))
        first_daemon.run_once()
        running = client.status(record.job_id)
        assert running.state == "running"
        time.sleep(0.15)
        os.kill(running.pid, signal.SIGKILL)
        # The first daemon dies too: it never requeues anything, and all
        # that survives is the on-disk store.  (In production the killed
        # worker is reaped by init; in-process we must reap the zombie
        # ourselves or its pid still looks alive to the next daemon.)
        for process in first_daemon._workers.values():
            process.join()
        first_daemon._workers.clear()
        del first_daemon

        second_daemon = SolverService(root, fast_config(workers=1))
        # Recovery already requeued the orphaned running job.
        assert client.status(record.job_id).state == "queued"
        try:
            second_daemon.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            second_daemon.stop()
        record = client.status(record.job_id)
        assert record.state == "done"
        assert record.attempts == 2
        assert_results_identical(client.result(record.job_id), reference_result(spec))

    def test_max_restarts_caps_crash_loops(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        record = client.submit(make_spec(adjacency_path), interrupt_after=1)
        service = SolverService(root, fast_config(workers=1, max_restarts=0))
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "failed"
        assert "crashed" in record.error


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_queued_job(self, adjacency_path, tmp_path):
        client = ServiceClient(str(tmp_path / "svc"))
        record = client.submit(make_spec(adjacency_path))
        cancelled = client.cancel(record.job_id)
        assert cancelled.state == "cancelled"
        with pytest.raises(JobStateError, match="cancel"):
            client.cancel(record.job_id)

    def test_cancel_running_job_stops_the_worker(
        self, slow_adjacency_path, tmp_path
    ):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        record = client.submit(make_spec(slow_adjacency_path, backend="python"))
        service = SolverService(root, fast_config(workers=1))
        try:
            service.run_once()
            running = client.status(record.job_id)
            assert running.state == "running"
            client.cancel(record.job_id)
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "cancelled"
        assert record.pid is None


# ----------------------------------------------------------------------
# Policies and batch submission
# ----------------------------------------------------------------------
class TestPolicies:
    def test_service_default_checkpoint_cadence_is_stamped(
        self, adjacency_path, tmp_path
    ):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        defaulted = client.submit(make_spec(adjacency_path))
        explicit = client.submit(
            make_spec(adjacency_path, max_rounds=1, checkpoint_every_seconds=5.0)
        )
        service = SolverService(
            root, fast_config(checkpoint_every_seconds=123.0)
        )
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        assert client.status(defaulted.job_id).checkpoint_every_seconds == 123.0
        assert client.status(explicit.job_id).checkpoint_every_seconds == 5.0

    def test_batch_submit_directory(self, adjacency_path, tmp_path):
        config_dir = tmp_path / "specs"
        config_dir.mkdir()
        for name, pipeline in (("a.json", "greedy"), ("b.json", "one_k_swap")):
            (config_dir / name).write_text(
                json.dumps(
                    {"pipeline": pipeline, "input": adjacency_path, "max_rounds": 2}
                )
            )
        (config_dir / "notes.txt").write_text("ignored")
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        submitted = client.submit_directory(str(config_dir))
        assert [os.path.basename(path) for path, _ in submitted] == [
            "a.json",
            "b.json",
        ]
        service = SolverService(root, fast_config())
        try:
            records = service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        assert [record.state for record in records] == ["done", "done"]

    def test_store_survives_restart_with_no_open_jobs(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        client.submit(make_spec(adjacency_path))
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        # A restarted service over a fully-drained store is a no-op.
        restarted = SolverService(root, fast_config())
        assert not restarted.has_open_jobs()


# ----------------------------------------------------------------------
# Binary CSR inputs and cache eviction
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def binary_path(adjacency_path, tmp_path_factory):
    from repro.storage.converters import adjacency_to_binary

    path = str(tmp_path_factory.mktemp("graphs") / "g.csr")
    adjacency_to_binary(adjacency_path, path)
    return path


class TestBinaryInputs:
    def test_input_digest_lifts_the_embedded_artifact_digest(
        self, adjacency_path, binary_path
    ):
        from repro.service import input_digest
        from repro.storage.binary_format import read_binary_header

        digest = input_digest(binary_path)
        assert digest == f"csr1:{read_binary_header(binary_path).digest}"
        # Text files keep the whole-file digest, unprefixed.
        assert input_digest(adjacency_path) == file_digest(adjacency_path)

    def test_corrupt_artifact_falls_back_to_byte_digest(
        self, binary_path, tmp_path
    ):
        from repro.service import input_digest

        damaged = str(tmp_path / "damaged.csr")
        with open(binary_path, "rb") as src:
            data = bytearray(src.read())
        data[70] ^= 0xFF  # flip a section byte; header stays valid
        with open(damaged, "wb") as dst:
            dst.write(bytes(data))
        size = os.path.getsize(damaged)
        with open(damaged, "r+b") as handle:
            handle.truncate(size - 1)  # now also truncated: header check fails
        digest = input_digest(damaged)
        assert not digest.startswith("csr1:")
        assert digest == file_digest(damaged)

    def test_binary_job_matches_text_job_bit_for_bit(
        self, adjacency_path, binary_path, tmp_path
    ):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        text_record = client.submit(make_spec(adjacency_path))
        binary_record = client.submit(make_spec(binary_path))
        assert text_record.cache_key != binary_record.cache_key  # different inputs
        assert binary_record.input_digest.startswith("csr1:")
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        text_result = client.result(text_record.job_id)
        binary_result = client.result(binary_record.job_id)
        assert_results_identical(binary_result, text_result)

    def test_edited_artifact_fails_instead_of_poisoning_the_cache(
        self, adjacency_path, tmp_path
    ):
        from repro.storage.converters import adjacency_to_binary

        root = str(tmp_path / "svc")
        artifact = str(tmp_path / "mutable.csr")
        adjacency_to_binary(adjacency_path, artifact)
        client = ServiceClient(root)
        record = client.submit(make_spec(artifact))
        # Regenerate the artifact from a different graph before any worker
        # starts: the digest pinned at submit no longer matches.
        other = str(tmp_path / "other.adj")
        write_adjacency_file(erdos_renyi_gnm(120, 300, seed=99), other).close()
        adjacency_to_binary(other, artifact)
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        record = client.status(record.job_id)
        assert record.state == "failed"
        assert "digest mismatch" in record.error
        assert ResultCache(client.store.cache_dir).size() == 0


class TestCacheEviction:
    def _fill(self, cache, keys, payload_bytes=200):
        for index, key in enumerate(keys):
            cache.put(key, {"n": index}, canonical_json({"pad": "x" * payload_bytes}))
            os.utime(cache.entry_path(key), (1_000_000 + index, 1_000_000 + index))

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self._fill(cache, ["a", "b", "c"])
        assert cache.evict() == []
        assert cache.size() == 3

    def test_evicts_oldest_mtime_first(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self._fill(cache, ["a", "b", "c"])
        entry_bytes = os.path.getsize(cache.entry_path("a"))
        cache.limit_bytes = 2 * entry_bytes
        assert cache.evict() == ["a"]
        assert cache.get("a") is None
        assert cache.get("b") is not None and cache.get("c") is not None

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self._fill(cache, ["a", "b", "c"])
        assert cache.get("a") is not None  # os.utime bumps "a" to newest
        entry_bytes = os.path.getsize(cache.entry_path("a"))
        cache.limit_bytes = 2 * entry_bytes
        assert cache.evict() == ["b"]
        assert cache.get("a") is not None

    def test_put_evicts_past_the_limit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), limit_bytes=0)
        cache.put("a", {}, canonical_json({"pad": "x"}))
        assert cache.size() == 0

    def test_total_bytes_tracks_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.total_bytes() == 0
        self._fill(cache, ["a", "b"])
        assert cache.total_bytes() == sum(
            os.path.getsize(cache.entry_path(k)) for k in ("a", "b")
        )

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match=">= 0"):
            ResultCache(str(tmp_path / "cache"), limit_bytes=-1)

    def test_service_sweeps_after_workers_finish(self, adjacency_path, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        client.submit(make_spec(adjacency_path))
        client.submit(make_spec(adjacency_path, backend="python"))
        service = SolverService(
            root, fast_config(workers=1, cache_limit_bytes=0)
        )
        try:
            records = service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        assert [record.state for record in records] == ["done", "done"]
        # Every entry was evicted as soon as its worker was reaped.
        assert service.cache.size() == 0

    def test_restarted_service_applies_a_tighter_limit(
        self, adjacency_path, tmp_path
    ):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        client.submit(make_spec(adjacency_path))
        service = SolverService(root, fast_config())
        try:
            service.drain(timeout_seconds=DRAIN_TIMEOUT)
        finally:
            service.stop()
        assert service.cache.size() == 1
        # recover() of the next daemon enforces the new budget.
        tighter = SolverService(root, fast_config(cache_limit_bytes=0))
        assert tighter.cache.size() == 0


# ----------------------------------------------------------------------
# Legacy run specs: a persisted intra-job ``workers`` count
# ----------------------------------------------------------------------
def test_legacy_workers_spec_runs_and_keys_as_serial(adjacency_path, tmp_path):
    """Job records of older daemons may carry ``workers``; it is dropped.

    The key is validated as before, never emitted again, and changes
    neither the cache key nor the result.
    """

    payload = {"pipeline": "one_k_swap", "input": adjacency_path, "backend": "numpy"}
    serial = RunSpec.from_dict(payload)
    legacy = RunSpec.from_dict({**payload, "workers": 2})
    assert legacy == serial
    assert "workers" not in legacy.to_dict()
    digest = input_digest(adjacency_path)
    assert spec_key_fields(legacy, digest) == spec_key_fields(serial, digest)
    assert cache_key(legacy, digest) == cache_key(serial, digest)
    with pytest.raises(PipelineSpecError):
        RunSpec.from_dict({**payload, "workers": "2"})

    # Rewrite a queued record the way an older daemon persisted it.
    root = str(tmp_path / "svc")
    client = ServiceClient(root)
    record = client.submit(serial)
    store = JobStore(root)
    store.write(
        dataclasses.replace(record, spec={**record.spec, "workers": 2})
    )
    assert store.get(record.job_id).spec["workers"] == 2
    service = SolverService(root, fast_config(workers=1))
    try:
        service.drain(timeout_seconds=DRAIN_TIMEOUT)
    finally:
        service.stop()
    final = client.status(record.job_id)
    assert final.state == "done", final.error
    assert final.cache_key == cache_key(serial, digest)
    assert_results_identical(client.result(record.job_id), reference_result(serial))


def test_run_spec_rejects_bad_workers():
    from repro.errors import PipelineSpecError

    with pytest.raises(PipelineSpecError):
        RunSpec.from_json(
            '{"pipeline": "greedy", "input": "g.adj", "workers": 0}'
        )
    with pytest.raises(PipelineSpecError):
        RunSpec.from_json(
            '{"pipeline": "greedy", "input": "g.adj", "workers": true}'
        )


def test_cache_key_stable_for_serial_specs():
    """A ``workers=1`` spec must key exactly as before the field existed.

    The serial default is omitted from the key fields, so service
    directories populated by older daemons keep hitting their cache.
    """

    spec = RunSpec(pipeline=BUILTIN_PIPELINES["one_k_swap"], input="g.csr1")
    digest = "csr1:feedfacefeedfacefeedfacefeedface"
    fields = spec_key_fields(spec, digest)
    assert set(fields) == {
        "backend",
        "input_digest",
        "max_rounds",
        "memory_limit_bytes",
        "pipeline",
    }
    # The key of the identical pre-workers field dict, computed the way
    # the cache computes it — byte-for-byte the old on-disk key.
    import hashlib

    legacy = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    expected = hashlib.blake2b(legacy.encode("utf-8"), digest_size=16).hexdigest()
    assert cache_key(spec, digest) == expected


# ----------------------------------------------------------------------
# Hung-worker detection and the serve CLI knobs
# ----------------------------------------------------------------------
def _hang_forever(root, job_id):  # pragma: no cover - killed mid-sleep
    time.sleep(600)


def test_stale_heartbeat_kills_and_requeues(tmp_path, monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("hang simulation needs fork start method")
    graph = erdos_renyi_gnm(200, 600, seed=31)
    input_path = str(tmp_path / "g.adj")
    write_adjacency_file(graph, input_path).close()
    root = str(tmp_path / "svc")
    client = ServiceClient(root)
    record = client.submit(
        RunSpec(pipeline=BUILTIN_PIPELINES["greedy"], input=input_path)
    )

    # The forked worker inherits the patched target and never beats.
    monkeypatch.setattr("repro.service.service.worker_main", _hang_forever)
    service = SolverService(
        root,
        ServiceConfig(
            workers=1,
            poll_interval_seconds=0.02,
            heartbeat_timeout_seconds=0.3,
            max_restarts=0,
        ),
    )
    try:
        service.run_once()
        assert client.status(record.job_id).state == "running"
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            service.run_once()
            if client.status(record.job_id).is_terminal():
                break
            time.sleep(0.05)
        final = client.status(record.job_id)
        assert final.state == "failed"
        assert "hung" in (final.error or "")
    finally:
        service.stop()


def test_heartbeat_timeout_spares_live_workers(tmp_path):
    """An armed (generous) timeout never kills a job that makes progress."""

    graph = erdos_renyi_gnm(300, 900, seed=37)
    input_path = str(tmp_path / "g.adj")
    write_adjacency_file(graph, input_path).close()
    root = str(tmp_path / "svc")
    client = ServiceClient(root)
    record = client.submit(
        RunSpec(
            pipeline=BUILTIN_PIPELINES["one_k_swap"],
            input=input_path,
            backend="numpy",
        )
    )
    service = SolverService(
        root,
        ServiceConfig(
            workers=1, poll_interval_seconds=0.02, heartbeat_timeout_seconds=60.0
        ),
    )
    try:
        service.drain(timeout_seconds=120.0)
    finally:
        service.stop()
    final = client.status(record.job_id)
    assert final.state == "done", final.error
    # Terminal bookkeeping removes the beat file.
    assert not os.path.exists(service.store.heartbeat_path(record.job_id))


def test_serve_accepts_job_workers_and_legacy_alias():
    parser = build_parser()
    modern = parser.parse_args(["serve", "svc", "--job-workers", "3"])
    assert modern.job_workers == 3
    legacy = parser.parse_args(["serve", "svc", "--workers", "5"])
    assert legacy.job_workers == 5
    armed = parser.parse_args(
        ["serve", "svc", "--heartbeat-timeout-seconds", "2.5"]
    )
    assert armed.heartbeat_timeout_seconds == 2.5
