"""Observability layer tests: metrics registry, tracer, journal, wiring.

The contracts under test:

* registry merge is a deterministic fold — one :meth:`merge` call gives
  bit-identical snapshots regardless of the order its snapshot
  arguments are passed in (integer counters add exactly, float sums go
  through a single ``fsum``);
* histogram bucket edges are fixed at first observation and survive
  snapshot/merge unchanged — a mismatch is an error, never silent
  re-bucketing;
* instrumentation never changes results: an instrumented engine run
  produces the same independent set as a plain one, and both kernel
  backends produce the same set and the same integer solver counters;
* the journal/trace files round-trip through their readers
  (``validate_trace``, ``read_journal``, ``follow_journal``) including
  torn trailing lines from a killed writer;
* the service journals a merged per-job lifecycle timeline and
  ``submit --follow`` tails it to completion.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.cli import main
from repro.graphs.generators import erdos_renyi_gnm
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    NULL_OBS,
    Observability,
    SpanTracer,
    append_event,
    follow_journal,
    read_journal,
    validate_trace,
)
from repro.core.solver import PIPELINES, solve_mis
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.stream import StreamSession
from repro.service import ServiceClient, ServiceConfig, SolverService
from repro.service.metrics import build_service_registry
from repro.storage.adjacency_file import write_adjacency_file


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total")
        registry.inc("jobs_total", 2)
        registry.inc("jobs_total", state="done")
        assert registry.value("jobs_total") == 3
        assert registry.value("jobs_total", state="done") == 1
        assert registry.value("missing") == 0

    def test_advance_returns_delta_and_is_monotonic(self):
        registry = MetricsRegistry()
        assert registry.advance("evictions_total", 5) == 5
        assert registry.advance("evictions_total", 9) == 4
        # At-or-below the current total is a no-op, never a decrement.
        assert registry.advance("evictions_total", 9) == 0
        assert registry.advance("evictions_total", 3) == 0
        assert registry.value("evictions_total") == 9

    def test_gauge_merge_takes_maximum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("depth", 4)
        b.set_gauge("depth", 7)
        a.merge(b.snapshot())
        assert a.value("depth") == 7
        b.set_gauge("depth", 1)
        a.merge(b.snapshot())
        assert a.value("depth") == 7

    def test_histogram_bucket_placement(self):
        registry = MetricsRegistry()
        edges = (0.1, 1.0, 10.0)
        for value in (0.05, 0.5, 5.0, 50.0):
            registry.observe("seconds", value, buckets=edges)
        [entry] = registry.snapshot()["series"]
        assert entry["kind"] == "histogram"
        assert entry["buckets"] == [0.1, 1.0, 10.0]
        assert entry["counts"] == [1, 1, 1, 1]  # one overflow past +Inf edge
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(55.55)

    def test_histogram_edges_fixed_at_first_observation(self):
        registry = MetricsRegistry()
        registry.observe("seconds", 0.2, buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="bucket edges changed"):
            registry.observe("seconds", 0.2, buckets=(0.5, 1.0))

    def test_histogram_edge_mismatch_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("seconds", 0.2, buckets=(0.1, 1.0))
        b.observe("seconds", 0.2, buckets=(0.5, 1.0))
        with pytest.raises(ValueError, match="bucket edges mismatch"):
            a.merge(b.snapshot())

    def test_snapshot_from_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.describe("runs_total", "completed runs")
        registry.inc("runs_total", 3, pipeline="greedy")
        registry.set_gauge("size", 17)
        registry.observe("seconds", 0.42)
        snapshot = registry.snapshot()
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.snapshot() == snapshot
        # The snapshot is JSON-serialisable as-is (what --metrics-out dumps).
        assert MetricsRegistry.from_snapshot(
            json.loads(json.dumps(snapshot))
        ).snapshot() == snapshot

    def test_merge_is_permutation_invariant(self):
        """One merge call folds shuffled snapshots to identical bits."""

        rng = random.Random(20150831)
        snapshots = []
        for _ in range(8):
            child = MetricsRegistry()
            for _ in range(40):
                child.inc("ops_total", rng.randrange(1, 100), op="insert")
                child.inc("bytes_total", rng.random() * 1e6)
                child.observe("seconds", rng.random() * 3)
            snapshots.append(child.snapshot())

        def fold(order):
            parent = MetricsRegistry()
            parent.merge(*(snapshots[i] for i in order))
            return parent.snapshot()

        reference = fold(range(len(snapshots)))
        for _ in range(5):
            order = list(range(len(snapshots)))
            rng.shuffle(order)
            assert fold(order) == reference
        # Integer counters stay exact integers through the fold.
        merged = MetricsRegistry.from_snapshot(reference)
        assert isinstance(merged.value("ops_total", op="insert"), int)

    def test_render_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.describe("runs_total", "completed runs")
        registry.inc("runs_total", 2, pipeline="greedy")
        registry.set_gauge("size", 17)
        registry.observe("seconds", 0.003, buckets=(0.001, 0.01))
        registry.observe("seconds", 5.0, buckets=(0.001, 0.01))
        text = registry.render_prometheus()
        assert '# HELP runs_total completed runs' in text
        assert '# TYPE runs_total counter' in text
        assert 'runs_total{pipeline="greedy"} 2' in text
        assert '# TYPE size gauge' in text
        # Cumulative buckets end with the implicit +Inf edge.
        assert 'seconds_bucket{le="0.001"} 0' in text
        assert 'seconds_bucket{le="0.01"} 1' in text
        assert 'seconds_bucket{le="+Inf"} 2' in text
        assert 'seconds_count 2' in text
        assert text.endswith("\n")

    def test_render_rows_table(self):
        registry = MetricsRegistry()
        registry.inc("runs_total", pipeline="greedy")
        registry.observe("seconds", 0.5)
        rows = {row[0]: row for row in registry.render_rows()}
        assert rows["runs_total{pipeline=greedy}"][1] == "counter"
        assert rows["seconds"][1] == "histogram"
        assert "count=1" in rows["seconds"][2]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_spans_validate_and_round_trip(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("stage:greedy", "stage", args={"size": 10}):
            pass
        tracer.instant("pass:greedy", "kernel")
        tracer.add_span("round:two_k_swap", "round", tracer.now(), tracer.now())
        document = tracer.to_document()
        assert validate_trace(document) == []
        names = [event["name"] for event in document["traceEvents"]]
        assert names[0] == "process_name"  # metadata first
        assert "stage:greedy" in names and "round:two_k_swap" in names

        path = tmp_path / "trace.json"
        tracer.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == document
        assert loaded["displayTimeUnit"] == "ms"

    def test_concurrent_writers_of_one_path_leave_a_valid_document(self, tmp_path):
        path = tmp_path / "trace.json"
        tracers = []
        for index in range(2):
            tracer = SpanTracer()
            tracer.add_span(f"stage:{index}", "stage", 0.0, 1.0)
            tracers.append(tracer)
        barrier = threading.Barrier(len(tracers))
        errors = []

        def write_often(tracer):
            barrier.wait()
            try:
                for _ in range(25):
                    tracer.write(str(path))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=write_often, args=(tracer,)) for tracer in tracers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        loaded = json.loads(path.read_text())
        assert loaded in [tracer.to_document() for tracer in tracers]
        assert sorted(os.listdir(tmp_path)) == ["trace.json"]

    def test_cli_trace_and_metrics_files_are_written_whole(self, tmp_path, capsys):
        graph_path = tmp_path / "toy.adj"
        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.metrics.json"
        assert main([
            "generate", str(graph_path), "--model", "gnm",
            "--vertices", "200", "--edges", "500", "--seed", "3",
        ]) == 0
        assert main([
            "solve", str(graph_path), "--pipeline", "two_k_swap",
            "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        assert validate_trace(json.loads(trace_path.read_text())) == []
        assert isinstance(json.loads(metrics_path.read_text()), dict)
        assert metrics_path.read_text().endswith("}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [graph_path.name, trace_path.name, metrics_path.name]
        )

    def test_validate_trace_flags_malformed_events(self):
        assert validate_trace({}) == ["traceEvents missing or not a list"]
        problems = validate_trace(
            {
                "traceEvents": [
                    {"ph": "X", "name": "s", "pid": 1, "tid": 0, "ts": -1, "dur": 2},
                    {"ph": "?", "name": "s", "pid": 1, "tid": 0},
                    "not-an-object",
                ]
            }
        )
        assert len(problems) == 3


# ----------------------------------------------------------------------
# Event journal
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_emit_read_round_trip(self, tmp_path):
        path = str(tmp_path / "journal" / "job.jsonl")
        with EventJournal(path) as journal:
            journal.emit("run_start", pipeline="greedy")
            journal.emit("run_end", size=42)
        append_event(path, "job_done", job_id="j1")
        records = read_journal(path)
        assert [r["event"] for r in records] == ["run_start", "run_end", "job_done"]
        assert all(r["v"] == 1 and "ts" in r for r in records)
        assert records[1]["size"] == 42

    def test_reader_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "job.jsonl"
        append_event(str(path), "run_start")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "event": "trunc')  # killed mid-write
        assert [r["event"] for r in read_journal(str(path))] == ["run_start"]

    def test_follow_drains_after_stop(self, tmp_path):
        path = str(tmp_path / "job.jsonl")
        append_event(path, "first")
        append_event(path, "second")
        events = [
            record["event"]
            for record in follow_journal(path, stop=lambda: True)
        ]
        assert events == ["first", "second"]

    def test_follow_times_out(self, tmp_path):
        ticks = iter(float(i) for i in range(100))
        with pytest.raises(TimeoutError):
            list(
                follow_journal(
                    str(tmp_path / "absent.jsonl"),
                    timeout_seconds=2.0,
                    clock=lambda: next(ticks),
                    sleep=lambda _: None,
                )
            )


# ----------------------------------------------------------------------
# Engine + kernels wiring
# ----------------------------------------------------------------------
def _solver_counters(registry):
    """Integer solver-work counters that must be backend invariant."""

    return {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
        for entry in registry.snapshot()["series"]
        if entry["kind"] == "counter"
        and entry["name"].startswith(("repro_stage_", "repro_rounds"))
    }


class TestEngineObservability:
    def test_instrumented_run_matches_plain_run(self, tmp_path):
        graph = erdos_renyi_gnm(300, 900, seed=7)
        plain = solve_mis(graph, pipeline="two_k_swap", backend="python")
        journal_path = str(tmp_path / "run.jsonl")
        obs = Observability(
            registry=MetricsRegistry(),
            tracer=SpanTracer(),
            journal=EventJournal(journal_path),
        )
        observed = solve_mis(graph, pipeline="two_k_swap", backend="python", obs=obs)
        obs.close()

        assert observed.independent_set == plain.independent_set
        assert observed.num_rounds == plain.num_rounds

        document = obs.tracer.to_document()
        assert validate_trace(document) == []
        names = [event["name"] for event in document["traceEvents"]]
        # A span per stage, at least one swap round, and the run span.
        assert "stage:greedy" in names
        assert "stage:two_k_swap" in names
        assert any(name.startswith("round:") for name in names)
        assert "pipeline:two_k_swap" in names
        # Each stage span names the backend it ran on; passes are not
        # reported a second time.
        stage_backends = {
            event["name"]: event["args"]["backend"]
            for event in document["traceEvents"]
            if event["name"].startswith("stage:")
        }
        assert stage_backends == {
            "stage:greedy": "python",
            "stage:two_k_swap": "python",
        }
        assert not any(name.startswith("pass:") for name in names)
        assert not any(
            entry["name"] == "repro_kernel_passes_total"
            for entry in obs.registry.snapshot()["series"]
        )

        registry = obs.registry
        assert registry.value("repro_stage_runs_total", stage="greedy") == 1
        assert registry.value("repro_stage_runs_total", stage="two_k_swap") == 1
        rounds = registry.value("repro_rounds_total", stage="two_k_swap")
        assert rounds == observed.num_rounds
        assert registry.value("repro_result_size", pipeline="two_k_swap") == len(
            observed.independent_set
        )

        events = [record["event"] for record in read_journal(journal_path)]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        assert events.count("stage_start") == events.count("stage_end") == 2

    def test_checkpoint_encode_and_write_spans(self, tmp_path):
        """Each stage boundary's prefix encode gets its own span, sized, and
        each write says what it wrote."""

        from repro.pipeline.context import ExecutionContext
        from repro.pipeline.engine import PipelineEngine
        from repro.pipeline.spec import BUILTIN_PIPELINES

        graph = erdos_renyi_gnm(300, 900, seed=7)
        obs = Observability(tracer=SpanTracer())
        checkpoint = str(tmp_path / "run.ck")
        PipelineEngine(
            BUILTIN_PIPELINES["two_k_swap"],
            checkpoint_path=checkpoint,
            max_rounds=2,
            obs=obs,
        ).run(ExecutionContext.create(graph))
        document = obs.tracer.to_document()
        assert validate_trace(document) == []
        events = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        encodes = [e for e in events if e["name"] == "checkpoint:encode"]
        writes = [e for e in events if e["name"] == "checkpoint:write"]
        # One encode per stage boundary, each prefix one entry longer and
        # larger than the last; it sits before, not inside, its write.
        assert [e["args"]["entries"] for e in encodes] == [1, 2]
        assert 0 < encodes[0]["args"]["bytes"] < encodes[1]["args"]["bytes"]
        boundary = [e for e in writes if e["args"]["phase"] == "boundary"]
        assert len(boundary) == 2
        for encode, write in zip(encodes, boundary):
            assert encode["ts"] + encode["dur"] <= write["ts"]
        assert {e["args"]["kind"] for e in writes} == {"snapshot"}
        assert all(e["args"]["bytes"] > 0 for e in writes)
        # The last write is the file left on disk.
        assert writes[-1]["args"]["bytes"] == os.path.getsize(checkpoint)

    def test_null_obs_records_nothing(self):
        graph = erdos_renyi_gnm(120, 300, seed=3)
        result = solve_mis(graph, pipeline="greedy", obs=NULL_OBS)
        assert result.size > 0
        assert NULL_OBS.registry.snapshot()["series"] == []
        assert NULL_OBS.tracer.to_document()["traceEvents"] == []

    def test_solver_counters_identical_across_backends(self):
        graph = erdos_renyi_gnm(400, 1600, seed=9)

        def run(backend):
            obs = Observability(registry=MetricsRegistry())
            result = solve_mis(graph, pipeline="two_k_swap", backend=backend, obs=obs)
            return result.independent_set, _solver_counters(obs.registry)

        baseline_set, baseline_counters = run("python")
        assert baseline_counters  # non-empty: the restriction keeps real series
        mis, counters = run("numpy")
        assert mis == baseline_set
        assert counters == baseline_counters

    def test_overlapping_runs_leave_no_hook_behind(self):
        """Run A starts, run B starts, A finishes while B is still going,
        then B finishes.  A later solve without observability must record
        nothing into A's (or B's) bundle."""

        graph = erdos_renyi_gnm(300, 900, seed=12)
        spec = PIPELINES["two_k_swap"]
        a_running = threading.Event()
        b_running = threading.Event()
        a_done = threading.Event()

        def a_progress():
            if not a_running.is_set():
                a_running.set()
                assert b_running.wait(30)

        def b_progress():
            if not b_running.is_set():
                b_running.set()
                assert a_done.wait(30)

        bundles = {}
        errors = []

        def run(name, progress):
            try:
                obs = Observability(registry=MetricsRegistry())
                bundles[name] = obs
                engine = PipelineEngine(spec, progress=progress, obs=obs)
                engine.run(ExecutionContext.create(graph))
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)
                a_running.set()
                b_running.set()
                a_done.set()

        thread_a = threading.Thread(target=run, args=("a", a_progress))
        thread_b = threading.Thread(target=run, args=("b", b_progress))
        thread_a.start()
        assert a_running.wait(30)
        thread_b.start()
        thread_a.join(60)
        a_done.set()
        thread_b.join(60)
        assert not errors, errors
        assert not thread_a.is_alive() and not thread_b.is_alive()

        snapshots = {name: obs.registry.snapshot() for name, obs in bundles.items()}
        solve_mis(graph)
        for name, obs in bundles.items():
            assert obs.registry.snapshot() == snapshots[name], name


# ----------------------------------------------------------------------
# Stream wiring
# ----------------------------------------------------------------------
class TestStreamObservability:
    @pytest.fixture
    def stream_inputs(self, tmp_path):
        graph = erdos_renyi_gnm(140, 420, seed=4)
        rng = random.Random(8)
        lines = []
        for _ in range(600):
            u, v = rng.randrange(140), rng.randrange(140)
            if u != v:
                lines.append(f"{'+' if rng.random() < 0.6 else '-'} {u} {v}")
        updates = tmp_path / "updates.txt"
        updates.write_text("\n".join(lines) + "\n")
        return graph, str(updates)

    def test_session_mirrors_totals_into_registry(self, stream_inputs, tmp_path):
        graph, updates = stream_inputs
        journal_path = str(tmp_path / "stream.jsonl")
        obs = Observability(
            registry=MetricsRegistry(),
            tracer=SpanTracer(),
            journal=EventJournal(journal_path),
        )
        session = StreamSession(graph, updates, batch_size=100, obs=obs)
        reports = list(session.process())
        obs.close()

        registry = obs.registry
        assert registry.value("repro_stream_batches_total") == len(reports)
        # Submitted ops are counted per batch; applied-edge totals come
        # from the mirrored maintainer stats (dedup drops no-op updates).
        submitted = registry.value(
            "repro_stream_updates_total", op="insert"
        ) + registry.value("repro_stream_updates_total", op="delete")
        assert submitted == sum(r.insertions + r.deletions for r in reports)
        stats = session.maintainer.stats
        assert (
            registry.value("repro_stream_edges_inserted_total")
            == stats.edges_inserted
        )
        assert registry.value("repro_stream_evictions_total") == stats.evictions

        summary = session.result()
        assert summary["wave"] == session.maintainer.wave.snapshot()
        assert summary["conflict_density"] == pytest.approx(
            stats.evictions / (stats.edges_inserted + stats.edges_deleted)
        )
        # Per-batch report deltas sum to the maintainer totals.
        assert sum(report.evictions for report in reports) == stats.evictions
        wave = session.maintainer.wave
        assert sum(r.sub_waves for r in reports) == wave.sub_waves
        assert sum(r.scalar_fallbacks for r in reports) == wave.scalar_fallbacks
        for field, total in wave.snapshot().items():
            assert registry.value(f"repro_wave_{field}_total") == total

        document = obs.tracer.to_document()
        assert validate_trace(document) == []
        names = [event["name"] for event in document["traceEvents"]]
        assert sum(name.startswith("batch:") for name in names) == len(reports)

        events = [record["event"] for record in read_journal(journal_path)]
        assert events[0] == "stream_start"
        assert events.count("batch") == len(reports)

    def test_batch_reports_do_not_depend_on_observability(
        self, stream_inputs, tmp_path
    ):
        graph, updates = stream_inputs

        def reports(obs):
            session = StreamSession(
                graph, updates, batch_size=50, compact_threshold=40, obs=obs
            )
            rows = []
            for report in session.process():
                row = report.summary()
                del row["elapsed_seconds"]
                rows.append(row)
            return rows

        observed = reports(Observability(registry=MetricsRegistry()))
        assert any(row["compacted"] for row in observed)
        assert reports(None) == observed

    def test_empty_stream_guards_ratios(self, tmp_path):
        graph = erdos_renyi_gnm(50, 120, seed=2)
        updates = tmp_path / "empty.txt"
        updates.write_text("")
        session = StreamSession(graph, str(updates))
        assert list(session.process()) == []
        summary = session.result()
        assert summary["conflict_density"] == 0.0
        assert summary["batches_applied"] == 0


# ----------------------------------------------------------------------
# Service journal + store-derived metrics + submit --follow
# ----------------------------------------------------------------------
@pytest.fixture
def service_inputs(tmp_path):
    graph = erdos_renyi_gnm(250, 700, seed=11)
    path = str(tmp_path / "g.adj")
    write_adjacency_file(graph, path).close()
    return path


def _fast_config():
    return ServiceConfig(
        workers=2, poll_interval_seconds=0.02, checkpoint_every_seconds=None
    )


class TestServiceObservability:
    def test_job_lifecycle_journal_and_store_metrics(self, service_inputs, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        spec_payload = {
            "pipeline": "two_k_swap",
            "input": service_inputs,
            "max_rounds": 2,
        }
        from repro.pipeline.spec import RunSpec

        record = client.submit(RunSpec.from_dict(spec_payload))
        service = SolverService(root, _fast_config())
        try:
            service.drain(timeout_seconds=120.0)
        finally:
            service.stop()

        events = [
            entry["event"]
            for entry in read_journal(client.store.journal_path(record.job_id))
        ]
        # Client, scheduler, and worker all append to one merged timeline.
        for expected in (
            "job_queued",
            "job_running",
            "attempt_start",
            "run_start",
            "stage_start",
            "stage_end",
            "run_end",
            "job_done",
        ):
            assert expected in events, f"missing {expected} in {events}"
        assert events[0] == "job_queued"
        assert events.index("job_queued") < events.index("attempt_start")

        # Scheduler counters on the live service registry.
        assert service.metrics.value("repro_service_workers_started_total") == 1
        assert service.metrics.value("repro_service_scheduler_passes_total") >= 1

        # The store-derived registry replays persisted stage summaries
        # through the same StageReport projection the engine uses live.
        registry = build_service_registry(client.store)
        assert registry.value("repro_service_jobs", state="done") == 1
        assert registry.value("repro_service_jobs", state="queued") == 0
        assert registry.value("repro_stage_runs_total", stage="greedy") == 1
        assert registry.value("repro_cache_entries") == 1
        text = registry.render_prometheus()
        assert "repro_service_jobs" in text
        assert 'repro_stage_seconds_bucket' in text
        assert "repro_cache_entries" in text

    def test_submit_follow_streams_to_terminal_state(
        self, service_inputs, tmp_path, capsys
    ):
        root = str(tmp_path / "svc")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"pipeline": "greedy", "input": service_inputs}
            )
        )

        stop = threading.Event()

        def pump():
            service = SolverService(root, _fast_config())
            try:
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline and not stop.is_set():
                    service.run_once()
                    records = service.store.list()
                    if records and all(r.is_terminal() for r in records):
                        return
                    time.sleep(0.02)
            finally:
                service.stop()

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        try:
            code = main(
                ["submit", root, "--config", str(spec_path), "--follow"]
            )
        finally:
            stop.set()
            thread.join(timeout=120.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "[job_queued]" in out
        assert "[job_done]" in out
        assert "done" in out  # final status table reflects the terminal state

    def test_metrics_cli_over_directory_and_snapshot(
        self, service_inputs, tmp_path, capsys
    ):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        from repro.pipeline.spec import RunSpec

        client.submit(
            RunSpec.from_dict({"pipeline": "greedy", "input": service_inputs})
        )
        service = SolverService(root, _fast_config())
        try:
            service.drain(timeout_seconds=120.0)
        finally:
            service.stop()

        assert main(["metrics", root, "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_service_jobs gauge" in text
        assert 'repro_service_jobs{state="done"} 1' in text

        assert main(["metrics", root, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.value("repro_service_jobs", state="done") == 1

        snap_path = tmp_path / "metrics.json"
        snap_path.write_text(json.dumps(snapshot))
        assert main(["metrics", str(snap_path)]) == 0
        assert "repro_service_jobs{state=done}" in capsys.readouterr().out

        assert main(["metrics", str(tmp_path / "nope.json")]) == 2
