"""The numpy kernels' ``on_round`` snapshots as checkpoint payloads.

The numpy swap passes hand out their per-vertex arrays as 1-D integer
ndarray copies instead of int lists.  These tests pin that contract down:

* each snapshot writes exactly the checkpoint bytes of its ``.tolist()``
  twin, for one-k and two-k, on gnm and PLRG graphs, from memmap and text
  sources;
* a snapshot the caller keeps does not change as later rounds run;
* resuming from the in-memory ndarray snapshot finishes exactly like
  resuming from its persisted form, and like the uninterrupted run.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.kernels import get_backend  # noqa: E402
from repro.graphs.generators import erdos_renyi_gnm  # noqa: E402
from repro.graphs.plrg import plrg_graph_with_vertex_count  # noqa: E402
from repro.storage.adjacency_file import (  # noqa: E402
    AdjacencyFileReader,
    write_adjacency_file,
)
from repro.storage.binary_format import MemmapAdjacencySource  # noqa: E402
from repro.storage.checkpoint import read_checkpoint, write_checkpoint  # noqa: E402
from repro.storage.converters import adjacency_to_binary  # noqa: E402
from repro.storage.scan import InMemoryAdjacencyScan  # noqa: E402
from snapshot_helpers import plain  # noqa: E402

PASSES = ("one_k_swap", "two_k_swap")


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("round-snapshots")
    python = get_backend("python")
    files = {}
    for kind in ("gnm", "plrg"):
        if kind == "gnm":
            graph = erdos_renyi_gnm(1_500, 4_500, seed=5)
        else:
            graph = plrg_graph_with_vertex_count(1_500, 2.1, seed=9)
        initial = python.greedy_pass(InMemoryAdjacencyScan(graph))
        text = str(root / f"{kind}.adj")
        write_adjacency_file(
            graph, text, order=list(graph.degree_ascending_order())
        ).close()
        binary = str(root / f"{kind}.csr")
        adjacency_to_binary(text, binary)
        files[kind] = {"initial": initial, "text": text, "memmap": binary}
    return files


def _open(files, source_kind):
    if source_kind == "text":
        return AdjacencyFileReader(files["text"])
    return MemmapAdjacencySource(files["memmap"])


def _run(pass_name, source, initial, on_round=None, resume=None):
    """One numpy pass; returns its (set, rounds, …) tuple as plain data."""

    kernel = get_backend("numpy")
    try:
        if pass_name == "one_k_swap":
            out = kernel.one_k_swap_pass(
                source, initial, None, resume=resume, on_round=on_round
            )
        else:
            out = kernel.two_k_swap_pass(
                source, initial, None, 8, 64, resume=resume, on_round=on_round
            )
        return plain(out)
    finally:
        source.close()


def _snapshots(files, pass_name, source_kind):
    """The raw snapshots of one run, plus plain copies taken on delivery."""

    raw, at_delivery = [], []

    def keep(snapshot):
        raw.append(snapshot)
        at_delivery.append(plain(snapshot))

    out = _run(pass_name, _open(files, source_kind), files["initial"], keep)
    assert len(raw) >= 2, "the pass should run several rounds"
    return out, raw, at_delivery


@pytest.mark.parametrize("source_kind", ["memmap", "text"])
@pytest.mark.parametrize("kind", ["gnm", "plrg"])
@pytest.mark.parametrize("pass_name", PASSES)
def test_snapshot_checkpoint_bytes_match_list_twin(
    graph_files, tmp_path, pass_name, kind, source_kind
):
    _out, raw, _ = _snapshots(graph_files[kind], pass_name, source_kind)
    for index, snapshot in enumerate(raw):
        arrays = [v for v in snapshot.values() if isinstance(v, np.ndarray)]
        assert arrays, "numpy snapshots carry their per-vertex arrays as ndarrays"
        as_arrays = str(tmp_path / f"arrays-{index}.ck")
        as_lists = str(tmp_path / f"lists-{index}.ck")
        write_checkpoint(as_arrays, {"loop_state": snapshot, "stage_index": 1})
        write_checkpoint(as_lists, {"loop_state": plain(snapshot), "stage_index": 1})
        with open(as_arrays, "rb") as a, open(as_lists, "rb") as b:
            assert a.read() == b.read(), f"round {index + 1} checkpoint bytes differ"


@pytest.mark.parametrize("source_kind", ["memmap", "text"])
@pytest.mark.parametrize("pass_name", PASSES)
def test_kept_snapshots_do_not_change_in_later_rounds(
    graph_files, pass_name, source_kind
):
    _out, raw, at_delivery = _snapshots(graph_files["plrg"], pass_name, source_kind)
    assert [plain(snapshot) for snapshot in raw] == at_delivery
    arrays = [v for s in raw for v in s.values() if isinstance(v, np.ndarray)]
    for i, first in enumerate(arrays):
        for second in arrays[i + 1 :]:
            assert not np.shares_memory(first, second)


@pytest.mark.parametrize("source_kind", ["memmap", "text"])
@pytest.mark.parametrize("pass_name", PASSES)
def test_resume_from_ndarray_snapshot_matches_persisted(
    graph_files, tmp_path, pass_name, source_kind
):
    files = graph_files["gnm"]
    uninterrupted, raw, _ = _snapshots(files, pass_name, source_kind)
    for index, snapshot in enumerate(raw):
        path = str(tmp_path / f"round-{index}.ck")
        write_checkpoint(path, {"loop_state": snapshot})
        persisted = read_checkpoint(path)["loop_state"]
        assert persisted == plain(snapshot)
        empty = np.empty(0, dtype=np.int64)
        from_memory = _run(
            pass_name, _open(files, source_kind), empty, resume=snapshot
        )
        from_disk = _run(
            pass_name, _open(files, source_kind), empty, resume=persisted
        )
        assert from_memory == from_disk == uninterrupted
