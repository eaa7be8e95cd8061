"""Execution-invariance tests: results depend on the graph, the pipeline
and the backend only.

Every solve runs serially in the calling process.  The contracts under
test:

* the two kernel backends agree on independent sets, per-round telemetry
  and modeled ``IOStats`` for every source kind;
* a backend's per-round checkpoint snapshots do not depend on whether the
  graph was scanned from memory, a text adjacency file or a memmapped
  binary file, and resuming a snapshot reproduces the uninterrupted run;
* the CLI kill/resume drill on a binary file reproduces the plain solve;
* run specs persisted by older releases may still carry a ``workers``
  key: it is validated and dropped, and changes no result;
* the ``--workers`` execution option is gone, and a solve neither forks
  helper processes nor allocates shared memory.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.cli import EXIT_INTERRUPTED, build_parser, main
from repro.core.kernels import get_backend
from repro.core.solver import solve_mis
from repro.errors import PipelineSpecError
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.pipeline.spec import RunSpec
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.binary_format import MemmapAdjacencySource
from repro.storage.converters import adjacency_to_binary
from repro.storage.scan import as_scan_source

from snapshot_helpers import plain  # noqa: E402  (needs numpy)

BACKENDS = ("python", "numpy")
SUMMARY_FIELDS = ("size", "rounds", "sequential_scans", "random_vertex_lookups")


def _graph(kind: str):
    if kind == "gnm":
        return erdos_renyi_gnm(1_200, 3_600, seed=7)
    return plrg_graph_with_vertex_count(1_000, 2.1, seed=3)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """Text and binary adjacency files of both test graphs."""

    root = tmp_path_factory.mktemp("invariance-sources")
    files = {}
    for kind in ("gnm", "plrg"):
        text = str(root / f"{kind}.adj")
        write_adjacency_file(_graph(kind), text).close()
        binary = str(root / f"{kind}.csr1")
        adjacency_to_binary(text, binary)
        files[kind] = {"text": text, "memmap": binary}
    return files


def _open(graph_files, kind: str, source_kind: str):
    if source_kind == "memory":
        return as_scan_source(_graph(kind))
    if source_kind == "text":
        return AdjacencyFileReader(graph_files[kind]["text"])
    return MemmapAdjacencySource(graph_files[kind]["memmap"])


def _run_greedy_one_k(source, backend: str):
    try:
        kernel = get_backend(backend, source)
        initial = kernel.greedy_pass(source)
        snapshots = []
        out = kernel.one_k_swap_pass(source, initial, None, on_round=snapshots.append)
        # Checkpoints go through JSON on disk; compare what would be read back.
        snapshots = json.loads(json.dumps(plain(snapshots)))
        return plain(initial), plain(out), snapshots, source.stats.as_dict()
    finally:
        close = getattr(source, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# Backend parity across source kinds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source_kind", ["memory", "text", "memmap"])
@pytest.mark.parametrize("kind", ["gnm", "plrg"])
def test_backend_parity_greedy_one_k(graph_files, kind, source_kind):
    python = _run_greedy_one_k(_open(graph_files, kind, source_kind), "python")
    numpy = _run_greedy_one_k(_open(graph_files, kind, source_kind), "numpy")
    assert numpy[0] == python[0], "greedy sets differ"
    assert numpy[1] == python[1], "one-k result tuples differ"
    # Snapshots are backend-specific (their fingerprints hash each
    # backend's encoding), but one is written per completed round.
    assert len(numpy[2]) == len(python[2])
    assert numpy[3] == python[3], "modeled IOStats differ"


@pytest.mark.parametrize("kind", ["gnm", "plrg"])
def test_backend_parity_two_k(kind):
    graph = _graph(kind)

    def run(backend):
        source = as_scan_source(graph)
        kernel = get_backend(backend, source)
        initial = kernel.greedy_pass(source)
        out = kernel.two_k_swap_pass(source, initial, None, 64, 256)
        return plain(out), source.stats.as_dict()

    assert run("numpy") == run("python")


# ----------------------------------------------------------------------
# Round snapshots: independent of the source kind, and resumable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source_kind", ["text", "memmap"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_round_snapshots_independent_of_source_kind(
    graph_files, backend, source_kind
):
    in_memory = _run_greedy_one_k(_open(graph_files, "gnm", "memory"), backend)
    from_file = _run_greedy_one_k(_open(graph_files, "gnm", source_kind), backend)
    assert from_file[0] == in_memory[0]
    assert from_file[1] == in_memory[1]
    assert from_file[2], "the pass should complete at least one round"
    assert from_file[2] == in_memory[2], "round checkpoint snapshots differ"


@pytest.mark.parametrize("backend", BACKENDS)
def test_round_snapshot_resume_matches_uninterrupted(backend):
    graph = erdos_renyi_gnm(2_000, 6_000, seed=17)
    source = as_scan_source(graph)
    kernel = get_backend(backend, source)
    initial = kernel.greedy_pass(source)
    uninterrupted = kernel.one_k_swap_pass(source, initial, None)

    src = as_scan_source(graph)
    snaps = []
    get_backend(backend, src).one_k_swap_pass(
        src, initial, 2, on_round=snaps.append
    )
    assert len(snaps) == 2
    snapshot = json.loads(json.dumps(plain(snaps[-1])))

    src = as_scan_source(graph)
    resumed = get_backend(backend, src).one_k_swap_pass(
        src, initial, None, resume=snapshot
    )
    assert plain(resumed) == plain(uninterrupted)


@pytest.mark.parametrize("pipeline", ["one_k_swap", "two_k_swap"])
def test_cli_kill_resume_drill_on_binary_file(tmp_path, capsys, pipeline):
    """Kill at every checkpoint write of a memmapped solve, then resume."""

    graph = erdos_renyi_gnm(900, 2_700, seed=23)
    text = str(tmp_path / "g.adj")
    write_adjacency_file(graph, text).close()
    input_path = str(tmp_path / "g.csr1")
    adjacency_to_binary(text, input_path)
    checkpoint = str(tmp_path / "drill.ck")
    base = ["solve", input_path, "--pipeline", pipeline, "--backend", "numpy"]

    rc = main(
        base + ["--checkpoint", checkpoint, "--interrupt-after", "1", "--json"]
    )
    capsys.readouterr()
    assert rc == EXIT_INTERRUPTED
    for _ in range(64):
        rc = main(
            base
            + [
                "--checkpoint",
                checkpoint,
                "--resume",
                "--interrupt-after",
                "1",
                "--json",
            ]
        )
        if rc == 0:
            break
        assert rc == EXIT_INTERRUPTED
        capsys.readouterr()
    assert rc == 0
    drilled = json.loads(capsys.readouterr().out)

    assert main(base + ["--json"]) == 0
    reference = json.loads(capsys.readouterr().out)
    for field in SUMMARY_FIELDS:
        assert drilled[field] == reference[field]


# ----------------------------------------------------------------------
# Legacy ``workers`` key in run specs
# ----------------------------------------------------------------------
def test_run_config_with_legacy_workers_matches_serial(tmp_path, capsys):
    graph = erdos_renyi_gnm(600, 1_800, seed=29)
    input_path = str(tmp_path / "g.adj")
    write_adjacency_file(graph, input_path).close()

    def run_with(**extra):
        config = tmp_path / f"run-{len(extra)}.json"
        config.write_text(
            json.dumps(
                {
                    "pipeline": "one_k_swap",
                    "input": input_path,
                    "backend": "numpy",
                    **extra,
                }
            )
        )
        assert main(["run", "--config", str(config), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    serial = run_with()
    legacy = run_with(workers=2)
    for field in SUMMARY_FIELDS:
        assert legacy[field] == serial[field]


@pytest.mark.parametrize(
    "workers", [-3, 1.5, None, [2]], ids=["negative", "float", "null", "list"]
)
def test_run_spec_rejects_malformed_legacy_workers(workers):
    payload = {"pipeline": "greedy", "input": "g.adj", "workers": workers}
    with pytest.raises(PipelineSpecError):
        RunSpec.from_dict(payload)


# ----------------------------------------------------------------------
# No intra-job parallelism
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "g.adj"],
        ["watch", "g.adj", "--updates", "u.txt"],
        ["compare", "g.adj"],
        ["reduce", "g.adj"],
    ],
    ids=["solve", "watch", "compare", "reduce"],
)
def test_workers_option_is_gone(argv, capsys):
    parser = build_parser()
    parser.parse_args(argv)
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(argv + ["--workers", "2"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.mark.parametrize("pipeline", ["greedy", "one_k_swap", "two_k_swap"])
def test_file_solve_runs_in_process(graph_files, pipeline):
    """A semi-external solve forks no helpers and maps no shared memory."""

    children = set(multiprocessing.active_children())
    segments = _shm_segments()
    result = solve_mis(
        AdjacencyFileReader(graph_files["gnm"]["text"]),
        pipeline=pipeline,
        backend="numpy",
    )
    assert result.size > 0
    assert set(multiprocessing.active_children()) <= children
    if os.path.isdir("/dev/shm"):
        assert _shm_segments() <= segments
