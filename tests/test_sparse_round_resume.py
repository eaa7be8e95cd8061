"""Sparse round checkpoints: resume sweep, pins and size.

A round snapshot stores each per-vertex array as an overlay on the
pass's labelled start (the arrays right after Algorithm 2/3 lines 1-3),
and a resume rebuilds that start from the stage's initial set.  The
sweep kills a text-file solve after every checkpoint write and resumes
it, on the same backend and across backends:

* the resumed run equals the uninterrupted one — set, round telemetry,
  cumulative ``IOStats`` and stage reports — so the labelling replay
  (and the greedy replay of a pipeline that starts with the swap pass)
  charges no I/O;
* every round checkpoint the resumed run writes equals the
  uninterrupted run's at the same write index, oscillation-guard
  history included.

It also pins the typed failures (a version-3 checkpoint, another
initial set) and the size bound that motivates the format.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.kernels import get_backend
from repro.core.kernels import numpy_backend
from repro.core.solver import PIPELINES
from repro.errors import CheckpointVersionError, PipelineInterrupted, SolverError
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.pipeline import engine as engine_module
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.spec import PipelineSpec, StageSpec
from repro.storage.adjacency_file import write_adjacency_file
from repro.storage.checkpoint import encode_section, read_checkpoint
from repro.storage.registry import open_adjacency_source
from repro.storage.scan import InMemoryAdjacencyScan
from snapshot_helpers import oscillating_graph, plain

GRAPHS = {
    "gnm": lambda: erdos_renyi_gnm(180, 540, seed=13),
    "plrg": lambda: plrg_graph_with_vertex_count(220, 2.0, seed=13),
    "oscillating": oscillating_graph,
}

BACKEND_PAIRS = [("numpy", "numpy"), ("python", "numpy"), ("numpy", "python")]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sparse-rounds")
    paths = {}
    for kind, build in GRAPHS.items():
        graph = build()
        path = str(root / f"{kind}.adj")
        write_adjacency_file(
            graph, path, order=list(graph.degree_ascending_order())
        ).close()
        paths[kind] = path
    return paths


def _solve(path, spec, backend, max_rounds, checkpoint, **engine_options):
    """One engine run over a fresh reader of ``path``."""

    reader = open_adjacency_source(path)
    try:
        ctx = ExecutionContext.create(reader, backend=backend)
        engine = PipelineEngine(
            spec, max_rounds=max_rounds, checkpoint_path=checkpoint, **engine_options
        )
        return engine.run(ctx)
    finally:
        reader.close()


def _comparable(result):
    stages = [
        {key: value for key, value in entry.items() if key != "elapsed_seconds"}
        for entry in result.extras["stages"]
    ]
    extras = {key: value for key, value in result.extras.items() if key != "stages"}
    return (
        result.members.tolist(),
        result.rounds,
        result.io.as_dict(),
        result.initial_size,
        result.memory_bytes,
        stages,
        extras,
    )


@pytest.fixture
def recorded_writes(monkeypatch):
    """Every checkpoint write's ``(phase, loop_state)``, in write order."""

    writes = []
    original = engine_module.write_checkpoint

    def recording(path, payload, sections=None):
        writes.append((payload["phase"], plain(payload["loop_state"])))
        return original(path, payload, sections=sections)

    monkeypatch.setattr(engine_module, "write_checkpoint", recording)
    return writes


@pytest.mark.parametrize("max_rounds", [3, None])
@pytest.mark.parametrize("writer, reader", BACKEND_PAIRS)
@pytest.mark.parametrize("pipeline", ["one_k_swap", "two_k_swap"])
@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_resume_after_every_write_matches_uninterrupted(
    inputs, tmp_path, recorded_writes, kind, pipeline, writer, reader, max_rounds
):
    path = inputs[kind]
    spec = PIPELINES[pipeline]
    reference = _solve(path, spec, writer, max_rounds, str(tmp_path / "ref.ck"))
    reference_writes = list(recorded_writes)
    assert [phase for phase, _ in reference_writes].count("round") >= 1
    guarded = reference.extras.get("oscillation_guard") == 1.0
    assert guarded == (kind == "oscillating" and max_rounds is None)

    checkpoint = str(tmp_path / "run.ck")
    for kill_after in range(1, len(reference_writes) + 1):
        with pytest.raises(PipelineInterrupted):
            _solve(
                path, spec, writer, max_rounds, checkpoint, interrupt_after=kill_after
            )
        del recorded_writes[:]
        resumed = _solve(path, spec, reader, max_rounds, checkpoint, resume=True)
        assert _comparable(resumed) == _comparable(reference), kill_after
        assert recorded_writes == reference_writes[kill_after:], kill_after


@pytest.mark.parametrize("writer, reader", BACKEND_PAIRS)
def test_swap_first_pipeline_replays_greedy_without_charging_it(
    inputs, tmp_path, recorded_writes, writer, reader
):
    # With no previous stage the pass runs greedy itself; a resume runs it
    # again to rebuild the labelled start, and must not charge that scan.
    spec = PipelineSpec("two_k_only", (StageSpec("two_k_swap"),))
    path = inputs["gnm"]
    reference = _solve(path, spec, writer, 3, str(tmp_path / "ref.ck"))
    rounds = len(recorded_writes) - 1
    assert rounds >= 2
    checkpoint = str(tmp_path / "run.ck")
    for kill_after in range(1, rounds + 1):
        with pytest.raises(PipelineInterrupted):
            _solve(path, spec, writer, 3, checkpoint, interrupt_after=kill_after)
        resumed = _solve(path, spec, reader, 3, checkpoint, resume=True)
        assert _comparable(resumed) == _comparable(reference), kill_after


def _round_checkpoint(tmp_path, graph, pipeline="two_k_swap", kill_after=2):
    path = str(tmp_path / "round.ck")
    engine = PipelineEngine(
        PIPELINES[pipeline], checkpoint_path=path, interrupt_after=kill_after
    )
    with pytest.raises(PipelineInterrupted):
        engine.run(ExecutionContext.create(graph))
    return path


def test_version_3_round_checkpoint_is_refused(tmp_path):
    graph = GRAPHS["gnm"]()
    path = _round_checkpoint(tmp_path, graph)
    assert read_checkpoint(path)["phase"] == "round"
    with open(path, "rb") as handle:
        header_line, newline, rest = handle.read().partition(b"\n")
    header = json.loads(header_line)
    header["version"] = 3
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + newline + rest)
    engine = PipelineEngine(PIPELINES["two_k_swap"], checkpoint_path=path, resume=True)
    with pytest.raises(CheckpointVersionError):
        engine.run(ExecutionContext.create(graph))


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("pass_name", ["one_k_swap", "two_k_swap"])
def test_resume_from_another_initial_set_is_refused(backend, pass_name):
    graph = GRAPHS["plrg"]()
    kernel = get_backend(backend)

    def run(initial, **options):
        source = InMemoryAdjacencyScan(graph)
        if pass_name == "one_k_swap":
            return kernel.one_k_swap_pass(source, initial, 2, **options)
        return kernel.two_k_swap_pass(source, initial, 2, 8, 64, **options)

    initial = kernel.greedy_pass(InMemoryAdjacencyScan(graph))
    snapshots = []
    run(initial, on_round=snapshots.append)
    assert snapshots
    persisted = json.loads(json.dumps(plain(snapshots[0])))
    assert plain(run(initial, resume=persisted)) == plain(run(initial))
    with pytest.raises(SolverError, match="different initial independent set"):
        run(initial[1:], resume=persisted)


def test_plrg_two_k_round_file_is_a_tenth_of_its_dense_arrays(tmp_path, monkeypatch):
    """The round-1 loop state of a PLRG two-k solve against the dense
    version-3 encoding of the same ``state``/``isn1``/``isn2`` arrays."""

    graph = plrg_graph_with_vertex_count(20_000, 2.1, seed=1)
    dense = {}
    overlay = numpy_backend.round_overlay

    def keep_dense(array, base):
        dense.setdefault(len(dense), array.copy())
        return overlay(array, base)

    monkeypatch.setattr(numpy_backend, "round_overlay", keep_dense)
    path = _round_checkpoint(tmp_path, graph, kill_after=2)
    loop_state = read_checkpoint(path)["loop_state"]
    assert loop_state["rounds"][0][0] == 1
    names = ("state", "isn1", "isn2")
    dense_arrays = dict(zip(names, (dense[0], dense[1], dense[2])))
    for name in names:
        index = np.asarray(loop_state[name]["index"])
        assert index.size < graph.num_vertices // 20
        values = dense_arrays[name][index]
        assert np.array_equal(values, np.asarray(loop_state[name]["value"]))
    sparse_bytes = len(encode_section({n: loop_state[n] for n in names}).blob)
    dense_bytes = len(encode_section(dense_arrays).blob)
    assert sparse_bytes * 10 <= dense_bytes, (sparse_bytes, dense_bytes)
