"""Crash-resume parity: an interrupted run, resumed from its checkpoint,
reproduces the uninterrupted run bit-identically.

The engine's ``interrupt_after=N`` knob simulates the kill right after
the N-th checkpoint write (boundary writes after each stage, round writes
after each swap round), covering both mid-pipeline and mid-round-loop
interruption points.  Parity is asserted on the independent set, the
per-round telemetry, the cumulative ``IOStats`` and the per-stage reports
for both kernel backends on gnm and PLRG graphs under degree and id scan
orders — and on true file-backed readers, whose resumed process must
additionally rebuild its in-memory record index without perturbing the
logical accounting.
"""

from __future__ import annotations

import json

import pytest

from repro.core.solver import PIPELINES, solve_mis
from repro.errors import (
    CheckpointError,
    CheckpointVersionError,
    PipelineInterrupted,
    SolverError,
)
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.spec import PipelineSpec
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.io_stats import IOStats
from snapshot_helpers import oscillating_graph

BACKENDS = ("python", "numpy")

GRAPHS = {
    "gnm": lambda: erdos_renyi_gnm(260, 800, seed=13),
    "plrg": lambda: plrg_graph_with_vertex_count(260, 2.0, seed=13),
}


def _strip_elapsed(stages):
    return [
        {key: value for key, value in entry.items() if key != "elapsed_seconds"}
        for entry in stages
    ]


def _assert_identical(resumed, reference):
    assert resumed.independent_set == reference.independent_set
    assert resumed.rounds == reference.rounds
    assert resumed.io.as_dict() == reference.io.as_dict()
    assert resumed.initial_size == reference.initial_size
    assert resumed.memory_bytes == reference.memory_bytes
    assert _strip_elapsed(resumed.extras["stages"]) == _strip_elapsed(
        reference.extras["stages"]
    )
    rest = {k: v for k, v in resumed.extras.items() if k != "stages"}
    ref_rest = {k: v for k, v in reference.extras.items() if k != "stages"}
    assert rest == ref_rest


def _interrupt_and_resume(
    make_input,
    spec,
    backend,
    checkpoint,
    interrupt_after,
    max_rounds=None,
    order="degree",
    resume_backend=None,
):
    """Run until the N-th checkpoint write, drop everything, resume fresh
    (on ``resume_backend``, by default the same backend)."""

    ctx = ExecutionContext.create(make_input(), backend=backend, order=order)
    engine = PipelineEngine(
        spec,
        max_rounds=max_rounds,
        checkpoint_path=checkpoint,
        interrupt_after=interrupt_after,
    )
    with pytest.raises(PipelineInterrupted):
        engine.run(ctx)

    fresh_ctx = ExecutionContext.create(
        make_input(), backend=resume_backend or backend, order=order
    )
    resumed_engine = PipelineEngine(
        spec, max_rounds=max_rounds, checkpoint_path=checkpoint, resume=True
    )
    return resumed_engine.run(fresh_ctx)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
@pytest.mark.parametrize("order", ["degree", "id"])
@pytest.mark.parametrize("pipeline", ["one_k_swap", "two_k_swap"])
class TestInMemoryResumeParity:
    def test_resume_after_first_swap_round(
        self, backend, graph_kind, order, pipeline, tmp_path
    ):
        graph = GRAPHS[graph_kind]()
        reference = solve_mis(graph, pipeline=pipeline, backend=backend, order=order)
        resumed = _interrupt_and_resume(
            lambda: graph,
            PIPELINES[pipeline],
            backend,
            str(tmp_path / "ck.json"),
            interrupt_after=2,  # boundary after greedy + first swap round
            order=order,
        )
        _assert_identical(resumed, reference)

    def test_resume_from_stage_boundary(
        self, backend, graph_kind, order, pipeline, tmp_path
    ):
        graph = GRAPHS[graph_kind]()
        reference = solve_mis(graph, pipeline=pipeline, backend=backend, order=order)
        resumed = _interrupt_and_resume(
            lambda: graph,
            PIPELINES[pipeline],
            backend,
            str(tmp_path / "ck.json"),
            interrupt_after=1,  # killed right after the greedy boundary write
            order=order,
        )
        _assert_identical(resumed, reference)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFileBackedResumeParity:
    """The resumed process reopens the file and rebuilds its record index.

    Every reader opens its own device over a real temp file, as separate
    OS processes would — reusing one in-memory device across runs would
    leak the sequential-read cursor between "processes" and perturb the
    seek accounting.
    """

    @pytest.fixture
    def adjacency_path(self, tmp_path):
        graph = plrg_graph_with_vertex_count(300, 2.0, seed=21)
        path = str(tmp_path / "graph.adj")
        write_adjacency_file(graph, path).close()
        return path

    def test_two_k_resume_mid_round(self, backend, adjacency_path, tmp_path):
        reference = solve_mis(
            AdjacencyFileReader(adjacency_path),
            pipeline="two_k_swap",
            backend=backend,
        )
        resumed = _interrupt_and_resume(
            lambda: AdjacencyFileReader(adjacency_path),
            PIPELINES["two_k_swap"],
            backend,
            str(tmp_path / "ck.json"),
            interrupt_after=2,
        )
        _assert_identical(resumed, reference)

    def test_one_k_resume_with_round_cap(self, backend, adjacency_path, tmp_path):
        reference = solve_mis(
            AdjacencyFileReader(adjacency_path),
            pipeline="one_k_swap",
            backend=backend,
            max_rounds=3,
        )
        resumed = _interrupt_and_resume(
            lambda: AdjacencyFileReader(adjacency_path),
            PIPELINES["one_k_swap"],
            backend,
            str(tmp_path / "ck.json"),
            interrupt_after=2,
            max_rounds=3,
        )
        _assert_identical(resumed, reference)

    def test_every_interruption_point_is_bit_identical(
        self, backend, adjacency_path, tmp_path
    ):
        """Kill after each successive checkpoint write until the run completes."""

        reference = solve_mis(
            AdjacencyFileReader(adjacency_path),
            pipeline="two_k_swap",
            backend=backend,
        )
        checkpoint = str(tmp_path / "ck.json")
        interrupt_after = 1
        while True:
            ctx = ExecutionContext.create(
                AdjacencyFileReader(adjacency_path), backend=backend
            )
            engine = PipelineEngine(
                PIPELINES["two_k_swap"],
                checkpoint_path=checkpoint,
                interrupt_after=interrupt_after,
            )
            try:
                engine.run(ctx)
            except PipelineInterrupted:
                pass
            else:
                break  # the run finished before the interrupt fired
            resumed = PipelineEngine(
                PIPELINES["two_k_swap"], checkpoint_path=checkpoint, resume=True
            ).run(
                ExecutionContext.create(
                    AdjacencyFileReader(adjacency_path), backend=backend
                )
            )
            _assert_identical(resumed, reference)
            interrupt_after += 1
        assert interrupt_after > 2  # at least one boundary and one round covered


class TestResumeAcrossReduce:
    def test_resume_mid_swap_after_reduce_stage(self, tmp_path):
        """Mid-pipeline resume past a source-transforming stage."""

        graph = plrg_graph_with_vertex_count(260, 2.2, seed=17)
        reference = solve_mis(graph, pipeline="reduce_two_k_swap")
        checkpoint = str(tmp_path / "ck.json")
        # Interrupt after: reduce boundary (1) + greedy boundary (2) + the
        # first two-k round checkpoint (3) — the resumed run must restore
        # the kernel graph from the artifact, not re-reduce the input.
        resumed = _interrupt_and_resume(
            lambda: graph,
            PIPELINES["reduce_two_k_swap"],
            None,
            checkpoint,
            interrupt_after=3,
        )
        _assert_identical(resumed, reference)

    def test_resume_after_completed_run_is_idempotent(self, tmp_path):
        graph = erdos_renyi_gnm(150, 500, seed=19)
        checkpoint = str(tmp_path / "ck.json")
        ctx = ExecutionContext.create(graph)
        reference = PipelineEngine(
            PIPELINES["two_k_swap"], checkpoint_path=checkpoint
        ).run(ctx)
        replayed = PipelineEngine(
            PIPELINES["two_k_swap"], checkpoint_path=checkpoint, resume=True
        ).run(ExecutionContext.create(graph))
        _assert_identical(replayed, reference)


class TestCheckpointPolicy:
    """Time-based round-checkpoint throttling and prefix-encode caching."""

    @staticmethod
    def _fake_clock(step_seconds):
        state = {"now": 0.0}

        def clock():
            state["now"] += step_seconds
            return state["now"]

        return clock

    def _writes(self, graph, tmp_path, every, step_seconds):
        engine = PipelineEngine(
            PIPELINES["one_k_swap"],
            checkpoint_path=str(tmp_path / "ck"),
            checkpoint_every_seconds=every,
            clock=self._fake_clock(step_seconds),
        )
        result = engine.run(ExecutionContext.create(graph))
        return engine._checkpoint_writes, result

    def test_throttle_skips_round_checkpoints(self, tmp_path):
        graph = erdos_renyi_gnm(260, 800, seed=13)
        baseline_writes, reference = self._writes(
            graph, tmp_path, every=None, step_seconds=1.0
        )
        # Rounds tick the clock 1s at a time; a 1000s cadence suppresses
        # every round write, leaving exactly one boundary per stage.
        throttled_writes, throttled = self._writes(
            graph, tmp_path, every=1000.0, step_seconds=1.0
        )
        assert baseline_writes > len(PIPELINES["one_k_swap"].stages)
        assert throttled_writes == len(PIPELINES["one_k_swap"].stages)
        assert throttled.independent_set == reference.independent_set
        assert throttled.rounds == reference.rounds

    def test_fast_clock_keeps_every_round(self, tmp_path):
        graph = erdos_renyi_gnm(260, 800, seed=13)
        baseline_writes, _ = self._writes(graph, tmp_path, every=None, step_seconds=1.0)
        slow_cadence_writes, _ = self._writes(
            graph, tmp_path, every=0.5, step_seconds=1.0
        )
        assert slow_cadence_writes == baseline_writes

    def test_resume_from_throttled_checkpoint_is_bit_identical(self, tmp_path):
        """A resume from an older (throttled) checkpoint replays the skipped
        rounds and still matches the uninterrupted run exactly."""

        graph = erdos_renyi_gnm(260, 800, seed=29)  # 3 one-k rounds
        reference = solve_mis(graph, pipeline="one_k_swap")
        checkpoint = str(tmp_path / "ck")
        engine = PipelineEngine(
            PIPELINES["one_k_swap"],
            checkpoint_path=checkpoint,
            # Cadence 2.5s over a 1s-step clock: the first two round
            # checkpoints are suppressed, so write #2 is the *throttled*
            # round-3 checkpoint and the kill lands mid-round-loop.
            checkpoint_every_seconds=2.5,
            clock=self._fake_clock(1.0),
            interrupt_after=2,
        )
        with pytest.raises(PipelineInterrupted):
            engine.run(ExecutionContext.create(graph))
        resumed = PipelineEngine(
            PIPELINES["one_k_swap"], checkpoint_path=checkpoint, resume=True
        ).run(ExecutionContext.create(graph))
        _assert_identical(resumed, reference)

    def test_nonpositive_cadence_rejected(self):
        with pytest.raises(SolverError, match="positive"):
            PipelineEngine(
                PIPELINES["greedy"],
                checkpoint_path="ck",
                checkpoint_every_seconds=0,
            )

    def test_completed_prefix_encoded_once_per_boundary(self, tmp_path, monkeypatch):
        """Round writes splice the cached prefix instead of re-encoding it,
        and each boundary encodes only the stage it completes."""

        import repro.pipeline.engine as engine_module

        calls = []
        encode_calls = []
        real_extend = engine_module.extend_section
        real_encode = engine_module.encode_section

        def counting(section, item):
            calls.append(item["report"]["stage"])
            return real_extend(section, item)

        def counting_encode(value, base_offset=0):
            encode_calls.append(len(value))
            return real_encode(value, base_offset)

        monkeypatch.setattr(engine_module, "extend_section", counting)
        monkeypatch.setattr(engine_module, "encode_section", counting_encode)
        graph = erdos_renyi_gnm(260, 800, seed=13)
        engine = PipelineEngine(
            PIPELINES["one_k_swap"], checkpoint_path=str(tmp_path / "ck")
        )
        result = engine.run(ExecutionContext.create(graph))
        # One entry encode per stage boundary, not one per checkpoint
        # write: the one-k round writes all reuse the prefix extended at
        # the greedy boundary, and a fresh run encodes a whole prefix
        # only once, for the empty start.
        assert engine._checkpoint_writes > len(calls)
        assert calls == ["greedy", "one_k_swap"]
        assert encode_calls == [0]
        assert result.num_rounds > 1


class TestArrayNativeCheckpoints:
    """The engine's array-native entries and extended prefix write the
    exact bytes of re-encoding every entry in list form."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "pipeline", ["one_k_swap", "two_k_swap", "reduce_two_k_swap"]
    )
    def test_round_and_boundary_writes_match_the_list_form(
        self, tmp_path, monkeypatch, backend, pipeline
    ):
        import repro.pipeline.engine as engine_module
        from snapshot_helpers import plain
        from repro.storage.checkpoint import encode_section

        listed_entries = []
        real_extend = engine_module.extend_section
        real_write = engine_module.write_checkpoint
        compared = []

        def extend(section, entry):
            listed_entries.append(plain(entry))
            return real_extend(section, entry)

        def write(path, payload, sections):
            written = real_write(path, payload, sections=sections)
            twin = str(tmp_path / "listed.ck")
            real_write(
                twin,
                plain(payload),
                sections={"completed": encode_section(listed_entries)},
            )
            with open(path, "rb") as mine, open(twin, "rb") as listed:
                assert mine.read() == listed.read()
            compared.append(payload["phase"])
            return written

        monkeypatch.setattr(engine_module, "extend_section", extend)
        monkeypatch.setattr(engine_module, "write_checkpoint", write)
        graph = plrg_graph_with_vertex_count(400, 2.0, seed=13)
        PipelineEngine(
            PIPELINES[pipeline], checkpoint_path=str(tmp_path / "ck"), max_rounds=3
        ).run(ExecutionContext.create(graph, backend=backend))
        assert "round" in compared and "boundary" in compared


class TestResumeGuards:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        graph = erdos_renyi_gnm(200, 600, seed=23)
        path = str(tmp_path / "ck.json")
        ctx = ExecutionContext.create(graph, backend="numpy")
        with pytest.raises(PipelineInterrupted):
            PipelineEngine(
                PIPELINES["two_k_swap"], checkpoint_path=path, interrupt_after=2
            ).run(ctx)
        return graph, path

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(SolverError, match="requires a checkpoint_path"):
            PipelineEngine(PIPELINES["greedy"], resume=True)

    def test_wrong_pipeline_is_rejected(self, checkpoint):
        graph, path = checkpoint
        engine = PipelineEngine(
            PIPELINES["one_k_swap"], checkpoint_path=path, resume=True
        )
        with pytest.raises(CheckpointError, match="different|pipeline"):
            engine.run(ExecutionContext.create(graph))

    def test_wrong_max_rounds_is_rejected(self, checkpoint):
        graph, path = checkpoint
        engine = PipelineEngine(
            PIPELINES["two_k_swap"], max_rounds=1, checkpoint_path=path, resume=True
        )
        with pytest.raises(CheckpointError, match="max_rounds"):
            engine.run(ExecutionContext.create(graph))

    def test_wrong_input_graph_is_rejected(self, checkpoint):
        _, path = checkpoint
        other = erdos_renyi_gnm(100, 200, seed=5)
        engine = PipelineEngine(
            PIPELINES["two_k_swap"], checkpoint_path=path, resume=True
        )
        with pytest.raises(CheckpointError, match="wrong input"):
            engine.run(ExecutionContext.create(other))

    def test_version_2_checkpoint_is_refused(self, checkpoint):
        # Version 2 round snapshots carry the python backend's old guard
        # fingerprints; resuming them would run a guard that never matches.
        graph, path = checkpoint
        with open(path, "rb") as handle:
            header_line, newline, rest = handle.read().partition(b"\n")
        header = json.loads(header_line)
        header["version"] = 2
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + newline + rest)
        engine = PipelineEngine(
            PIPELINES["two_k_swap"], checkpoint_path=path, resume=True
        )
        with pytest.raises(CheckpointVersionError):
            engine.run(ExecutionContext.create(graph))


@pytest.mark.parametrize("interrupt_after", [2, 3])
@pytest.mark.parametrize("max_rounds", [None, 3])
@pytest.mark.parametrize("pipeline", ["one_k_swap", "two_k_swap"])
@pytest.mark.parametrize("graph_kind", ["gnm", "oscillating"])
@pytest.mark.parametrize("writer, reader", [("python", "numpy"), ("numpy", "python")])
def test_round_checkpoints_resume_on_the_other_backend(
    writer, reader, graph_kind, pipeline, max_rounds, interrupt_after, tmp_path
):
    """Both backends write the same round snapshots, guard history included,
    so a round checkpoint resumes on either backend."""

    graph = GRAPHS["gnm"]() if graph_kind == "gnm" else oscillating_graph()
    reference = solve_mis(
        graph, pipeline=pipeline, backend=writer, max_rounds=max_rounds
    )
    resumed = _interrupt_and_resume(
        lambda: graph,
        PIPELINES[pipeline],
        writer,
        str(tmp_path / "ck.json"),
        interrupt_after=interrupt_after,  # after the first or second round
        max_rounds=max_rounds,
        resume_backend=reader,
    )
    _assert_identical(resumed, reference)
    guarded = reference.extras.get("oscillation_guard") == 1.0
    assert guarded == (graph_kind == "oscillating" and max_rounds is None)
