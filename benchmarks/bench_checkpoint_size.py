"""Checkpoint format benchmark: binary-array size and prefix-cache encode time.

Quantifies the two PR-5 checkpoint optimisations on realistic round
checkpoints (the engine's actual payload shape: vertex-state array, ISN
array, completed-stage prefix with an embedded reduce-kernel artifact):

* ``binary_bytes`` vs ``json_list_bytes`` — the version-2 arrays-section
  file against the same payload serialized as version-1-style JSON int
  lists.  The synthetic payload here uses *uniformly random* ISN arrays —
  the adversarial worst case for the zlib packing — and still shrinks
  ≈ 2.4×, which the harness asserts as a ``>= 2×`` regression guard.
  Real engine checkpoints are far more structured: a two-k round
  checkpoint of an n = 10⁵ PLRG solve measures ≈ 5.8× smaller than its
  JSON-list form (221 KB vs 1.29 MB);
* ``cached_prefix_seconds`` vs ``reencode_seconds`` — a round checkpoint
  write that splices the pre-encoded completed-stage prefix against one
  that re-encodes the whole payload, on a checkpoint whose prefix
  dominates (the reduce artifact case);
* the *stream-checkpoint* row — what a durable ``watch`` session pays per
  batch, all three ways: a *snapshot* with the CSR base embedded (a PLRG
  maintainer carrying an edge overlay writes its state — selection
  bitmap, absent ids, overlay edges — next to the spliced, pre-hashed
  base section, as after a compaction; ``snapshot_bytes`` is the file,
  ``state_bytes`` the file minus the base section, ``snapshot_seconds``
  is ``state_payload()`` plus ``write_checkpoint``), the same snapshot
  with the base *referenced* by digest, as before a session's first
  compaction (``referenced_bytes``/``referenced_seconds``), and a
  *batch-log append* (``append_bytes``/``append_seconds``: the batch's
  updates, selection flips and counters, appended and fsynced).  Both
  base sections come from the session's own
  :func:`~repro.pipeline.stream.base_section`; ``base_encode_seconds``
  and ``reference_encode_seconds`` are what building each once costs the
  first snapshot.  The harness asserts that an append is at most 1/20
  of an embedded snapshot's bytes, and that a referenced snapshot plus
  the base bytes it leaves out is at most an embedded snapshot plus
  1 KiB (the reference costs nothing beyond the base it replaces);
* the *solve-round* row — a real numpy one-k round snapshot of a gnm
  ``SEXTCSR1`` memmap solve (m = 4n), written as the kernels hand it out
  (per-vertex ndarray copies) and in its ``.tolist()`` form (what the
  snapshot cost before it went array-native).  Each timing includes
  building the snapshot's arrays (``copy()`` vs ``tolist()``).  The
  harness asserts that both files are byte-identical and that the
  ndarray write is at least 2× faster.  Both timings include the
  write's ``fsync``, so this row runs at n = 10⁵ even under ``--smoke``:
  at n = 2·10⁴ the encode gap is ≈ 6 ms and a disk whose ``fsync`` costs
  more than ≈ 4.5 ms would fail the 2× bound on latency alone;
* the *solve-boundary* row — the engine's completed-prefix encode at the
  two stage boundaries of a numpy greedy → two-k solve of a PLRG
  ``SEXTCSR1`` memmap (n = 10⁵, also under ``--smoke``): each boundary's
  entry encode plus the prefix encode, either re-encoding every entry in
  list form (sorted member lists) or extending the prefix by the new
  array-native entry (its set one sorted int64 array).  The harness
  asserts byte-identical sections at both boundaries and that the
  array-native encode is at least 2× faster.  No file is written, so no
  ``fsync`` enters the timing.

Usage::

    python benchmarks/bench_checkpoint_size.py            # n = 1e5 and 1e6
    python benchmarks/bench_checkpoint_size.py --smoke    # n = 2e4 (CI); solve rows at 1e5
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.greedy import greedy_mis  # noqa: E402
from repro.core.kernels import get_backend  # noqa: E402
from repro.core.two_k_swap import two_k_swap  # noqa: E402
from repro.dynamic.maintainer import DynamicMISMaintainer  # noqa: E402
from repro.graphs.generators import erdos_renyi_gnm  # noqa: E402
from repro.graphs.plrg import PLRGParameters, plrg_graph  # noqa: E402
from repro.pipeline.engine import encode_result  # noqa: E402
from repro.pipeline.stream import base_section, batch_record  # noqa: E402
from repro.reporting import format_bytes, format_table, print_experiment_header  # noqa: E402
from repro.storage.adjacency_file import write_adjacency_file  # noqa: E402
from repro.storage.binary_format import MemmapAdjacencySource  # noqa: E402
from repro.storage.checkpoint import (  # noqa: E402
    append_record,
    encode_section,
    extend_section,
    write_checkpoint,
)
from repro.storage.converters import adjacency_to_binary  # noqa: E402

#: Shape of the stream row: updates per batch, 70/30 insert/delete, and
#: how many batches build the overlay before the timed ones.
STREAM_BATCH = 256
STREAM_WARM_BATCHES = 20
STREAM_TIMED_BATCHES = 10
#: A batch-log append must be at most this fraction of a snapshot's bytes
#: (both deterministic); measured ≈ 1/380 at n = 1e5.
APPEND_SNAPSHOT_RATIO = 20
#: A referenced snapshot plus the base bytes it leaves out may exceed an
#: embedded snapshot by at most this much (the reference's own JSON).
REFERENCE_SLACK_BYTES = 1024

#: Timed writes per form in the solve-round row (the median is reported),
#: and its graph size, the same under ``--smoke`` (see the module docstring).
SOLVE_ROUND_REPEATS = 7
SOLVE_ROUND_VERTICES = 100_000

#: Graph size, two-k round cap and timed repeats of the solve-boundary row.
SOLVE_BOUNDARY_VERTICES = 100_000
SOLVE_BOUNDARY_ROUNDS = 2
SOLVE_BOUNDARY_REPEATS = 7


def _round_payload(num_vertices: int, seed: int) -> Dict[str, object]:
    """A payload shaped like the engine's mid-two-k-round checkpoints."""

    rng = random.Random(seed)
    edge_sources = [rng.randrange(num_vertices) for _ in range(num_vertices // 4)]
    edge_targets = [rng.randrange(num_vertices) for _ in range(num_vertices // 4)]
    independent_set = sorted(
        rng.sample(range(num_vertices), num_vertices // 3)
    )
    return {
        "completed": [
            {
                "report": {"stage": "reduce", "index": 0},
                "result": {"independent_set": []},
                "artifact": {
                    "kernel_edge_sources": edge_sources,
                    "kernel_edge_targets": edge_targets,
                },
            },
            {
                "report": {"stage": "greedy", "index": 1},
                "result": {"independent_set": independent_set},
            },
        ],
        "loop_state": {
            "pass": "two_k_swap",
            "state": [rng.randrange(7) for _ in range(num_vertices)],
            "isn1": [rng.randrange(-1, num_vertices) for _ in range(num_vertices)],
            "isn2": [rng.randrange(-1, num_vertices) for _ in range(num_vertices)],
        },
        "io": {"bytes_read": 123456789, "sequential_scans": 42},
        "phase": "round",
        "stage_index": 2,
    }


def measure(num_vertices: int, rounds: int = 5) -> Dict[str, object]:
    payload = _round_payload(num_vertices, seed=num_vertices)
    json_list_bytes = len(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck")

        started = time.perf_counter()
        for _ in range(rounds):
            write_checkpoint(path, payload)
        reencode_seconds = (time.perf_counter() - started) / rounds
        binary_bytes = os.path.getsize(path)

        completed = payload["completed"]
        rest = {key: value for key, value in payload.items() if key != "completed"}
        section = encode_section(completed, base_offset=0)
        started = time.perf_counter()
        for _ in range(rounds):
            write_checkpoint(path, rest, sections={"completed": section})
        cached_prefix_seconds = (time.perf_counter() - started) / rounds

    assert binary_bytes * 2 <= json_list_bytes, (
        f"binary checkpoint regression at n={num_vertices}: "
        f"{binary_bytes} vs {json_list_bytes} JSON bytes"
    )
    return {
        "num_vertices": num_vertices,
        "json_list_bytes": json_list_bytes,
        "binary_bytes": binary_bytes,
        "size_ratio": round(json_list_bytes / binary_bytes, 2),
        "reencode_seconds": round(reencode_seconds, 6),
        "cached_prefix_seconds": round(cached_prefix_seconds, 6),
        "encode_speedup": round(reencode_seconds / cached_prefix_seconds, 2),
    }


def _update_batch(rng: random.Random, num_vertices: int, edges) -> tuple:
    insertions, deletions = [], []
    for _ in range(STREAM_BATCH):
        if rng.random() < 0.7:
            u, v = rng.sample(range(num_vertices), 2)
            insertions.append((u, v))
        else:
            deletions.append(edges[rng.randrange(len(edges))])
    return insertions, deletions


def measure_stream(num_vertices: int, seed: int = 1) -> Dict[str, object]:
    """Per-batch stream checkpoint costs of a PLRG maintainer with an overlay.

    Every timed batch is made durable each way a session can: as a
    snapshot (``state_payload()`` + ``write_checkpoint`` with the spliced
    base section), once with the base embedded and once referenced by
    digest, and as a batch-log append (``batch_record`` +
    ``append_record`` of the batch's normalised updates, journal flips
    and counters).
    """

    graph = plrg_graph(PLRGParameters.from_vertex_count(num_vertices, 2.1), seed=seed)
    edges = list(graph.iter_edges())
    maintainer = DynamicMISMaintainer(graph, pipeline="greedy")
    rng = random.Random(seed)
    for _ in range(STREAM_WARM_BATCHES):
        maintainer.apply_updates(*_update_batch(rng, num_vertices, edges))
    sections, encode_seconds = {}, {}
    for form, embed in (("embedded", True), ("referenced", False)):
        started = time.perf_counter()
        sections[form] = base_section(*maintainer.base_arrays(), embed=embed)
        encode_seconds[form] = time.perf_counter() - started

    snapshot_seconds = {form: 0.0 for form in sections}
    snapshot_bytes = {form: 0 for form in sections}
    append_seconds = 0.0
    append_bytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "stream.ck.log")
        for cursor in range(STREAM_TIMED_BATCHES):
            del maintainer.journal[:]
            maintainer.apply_updates(*_update_batch(rng, num_vertices, edges))
            for form, section in sections.items():
                started = time.perf_counter()
                payload = {"cursor": cursor, "state": maintainer.state_payload()}
                written = write_checkpoint(
                    os.path.join(tmp, f"{form}.ck"),
                    payload,
                    sections={"base": section},
                )
                snapshot_seconds[form] += time.perf_counter() - started
                snapshot_bytes[form] = written.nbytes
            started = time.perf_counter()
            record = batch_record(
                cursor,
                written.checksum,
                *maintainer.last_batch,
                maintainer.journal,
                asdict(maintainer.stats),
            )
            append_bytes += append_record(log, record).nbytes
            append_seconds += time.perf_counter() - started
    embedded = sections["embedded"]
    base_bytes = len(embedded.blob) + len(embedded.json_bytes)
    append_bytes //= STREAM_TIMED_BATCHES
    assert append_bytes * APPEND_SNAPSHOT_RATIO <= snapshot_bytes["embedded"], (
        f"stream batch-log regression at n={num_vertices}: {append_bytes} "
        f"bytes per append vs a {snapshot_bytes['embedded']}-byte snapshot"
    )
    assert (
        snapshot_bytes["referenced"] + base_bytes
        <= snapshot_bytes["embedded"] + REFERENCE_SLACK_BYTES
    ), (
        f"stream referenced-base regression at n={num_vertices}: "
        f"{snapshot_bytes['referenced']} + {base_bytes} base bytes vs a "
        f"{snapshot_bytes['embedded']}-byte embedded snapshot"
    )
    return {
        "num_vertices": num_vertices,
        "overlay_size": maintainer.overlay_size,
        "base_bytes": base_bytes,
        "base_encode_seconds": round(encode_seconds["embedded"], 6),
        "state_bytes": snapshot_bytes["embedded"] - base_bytes,
        "snapshot_bytes": snapshot_bytes["embedded"],
        "snapshot_seconds": round(
            snapshot_seconds["embedded"] / STREAM_TIMED_BATCHES, 6
        ),
        "reference_encode_seconds": round(encode_seconds["referenced"], 6),
        "referenced_bytes": snapshot_bytes["referenced"],
        "referenced_seconds": round(
            snapshot_seconds["referenced"] / STREAM_TIMED_BATCHES, 6
        ),
        "append_bytes": append_bytes,
        "append_seconds": round(append_seconds / STREAM_TIMED_BATCHES, 6),
    }


def measure_solve_round(num_vertices: int, seed: int = 1) -> Dict[str, object]:
    """One real one-k round checkpoint, written from ndarrays and from lists."""

    graph = erdos_renyi_gnm(num_vertices, 4 * num_vertices, seed=seed)
    numpy = get_backend("numpy")
    snapshots: List[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        text = os.path.join(tmp, "g.adj")
        binary = os.path.join(tmp, "g.csr")
        write_adjacency_file(
            graph, text, order=list(graph.degree_ascending_order())
        ).close()
        adjacency_to_binary(text, binary)
        source = MemmapAdjacencySource(binary)
        try:
            initial = numpy.greedy_pass(source)
            numpy.one_k_swap_pass(source, initial, 1, on_round=snapshots.append)
        finally:
            source.close()
        snapshot = snapshots[0]

        def build(convert):
            return {
                key: convert(value) if isinstance(value, np.ndarray) else value
                for key, value in snapshot.items()
            }

        forms = {"ndarray": np.ndarray.copy, "list": np.ndarray.tolist}
        paths = {form: os.path.join(tmp, f"{form}.ck") for form in forms}
        seconds: Dict[str, List[float]] = {form: [] for form in forms}
        for _ in range(SOLVE_ROUND_REPEATS):
            for form, convert in forms.items():
                started = time.perf_counter()
                write_checkpoint(paths[form], {"loop_state": build(convert)})
                seconds[form].append(time.perf_counter() - started)
        contents = {}
        for form, path in paths.items():
            with open(path, "rb") as handle:
                contents[form] = handle.read()

    assert contents["ndarray"] == contents["list"], (
        f"solve-round checkpoint bytes differ between forms at n={num_vertices}"
    )
    ndarray_seconds = statistics.median(seconds["ndarray"])
    list_seconds = statistics.median(seconds["list"])
    assert ndarray_seconds * 2 <= list_seconds, (
        f"solve-round ndarray write regression at n={num_vertices}: "
        f"{ndarray_seconds:.4f}s vs {list_seconds:.4f}s from lists"
    )
    return {
        "num_vertices": num_vertices,
        "checkpoint_bytes": len(contents["ndarray"]),
        "ndarray_write_seconds": round(ndarray_seconds, 6),
        "list_write_seconds": round(list_seconds, 6),
        "write_speedup": round(list_seconds / ndarray_seconds, 2),
    }


def measure_solve_boundary(num_vertices: int, seed: int = 1) -> Dict[str, object]:
    """The completed-prefix encodes of a greedy → two-k solve, both ways.

    One timed pass is what the engine does at its two stage boundaries:
    encode the finished stage's result into an entry and encode the
    completed prefix.  The list form re-encodes every entry with sorted
    member lists at each boundary; the array-native form encodes only
    the new entry, its set one sorted int64 array.
    """

    graph = plrg_graph(PLRGParameters.from_vertex_count(num_vertices, 2.1), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        text = os.path.join(tmp, "g.adj")
        binary = os.path.join(tmp, "g.csr")
        write_adjacency_file(
            graph, text, order=list(graph.degree_ascending_order())
        ).close()
        adjacency_to_binary(text, binary)
        source = MemmapAdjacencySource(binary)
        try:
            greedy = greedy_mis(source, backend="numpy")
            improved = two_k_swap(
                source,
                initial=greedy,
                max_rounds=SOLVE_BOUNDARY_ROUNDS,
                backend="numpy",
            )
        finally:
            source.close()
    stages = [("greedy", greedy), ("two_k_swap", improved)]

    def list_form():
        entries, sections = [], []
        for index, (name, result) in enumerate(stages):
            entries.append(
                {
                    "report": {"stage": name, "index": index},
                    "result": encode_result(result),
                }
            )
            sections.append(encode_section(entries))
        return sections

    def array_native():
        section, sections = encode_section([]), []
        for index, (name, result) in enumerate(stages):
            entry = {
                "report": {"stage": name, "index": index},
                "result": encode_result(result, array_native=True),
            }
            section = extend_section(section, entry)
            sections.append(section)
        return sections

    forms = {"list": list_form, "array": array_native}
    seconds: Dict[str, List[float]] = {form: [] for form in forms}
    built = {}
    for _ in range(SOLVE_BOUNDARY_REPEATS):
        for form, encode in forms.items():
            started = time.perf_counter()
            built[form] = encode()
            seconds[form].append(time.perf_counter() - started)
    for listed, extended in zip(built["list"], built["array"]):
        assert (listed.json_bytes, listed.blob) == (
            extended.json_bytes,
            extended.blob,
        ), f"solve-boundary prefix bytes differ between forms at n={num_vertices}"
        assert listed.blob_hash.digest() == extended.blob_hash.digest()
    list_seconds = statistics.median(seconds["list"])
    array_seconds = statistics.median(seconds["array"])
    assert array_seconds * 2 <= list_seconds, (
        f"solve-boundary array-native encode regression at n={num_vertices}: "
        f"{array_seconds:.4f}s vs {list_seconds:.4f}s re-encoding lists"
    )
    final = built["array"][-1]
    return {
        "num_vertices": num_vertices,
        "members": [result.size for _name, result in stages],
        "prefix_bytes": len(final.json_bytes) + len(final.blob),
        "list_encode_seconds": round(list_seconds, 6),
        "array_encode_seconds": round(array_seconds, 6),
        "encode_speedup": round(list_seconds / array_seconds, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny run for CI")
    parser.add_argument("--output", default=None, help="also write rows as JSON")
    args = parser.parse_args(argv)

    sizes = [20_000] if args.smoke else [100_000, 1_000_000]
    rows = [measure(size) for size in sizes]
    stream_rows = [measure_stream(size) for size in sizes]
    solve_round = measure_solve_round(SOLVE_ROUND_VERTICES)
    solve_boundary = measure_solve_boundary(SOLVE_BOUNDARY_VERTICES)

    print_experiment_header(
        "Checkpoint format",
        "binary arrays section vs JSON int lists; cached-prefix round writes",
    )
    print(
        format_table(
            ["n", "json bytes", "binary bytes", "ratio", "re-encode s",
             "cached-prefix s", "speedup"],
            [
                [
                    row["num_vertices"],
                    format_bytes(row["json_list_bytes"]),
                    format_bytes(row["binary_bytes"]),
                    row["size_ratio"],
                    row["reencode_seconds"],
                    row["cached_prefix_seconds"],
                    row["encode_speedup"],
                ]
                for row in rows
            ],
        )
    )
    print()
    print(
        format_table(
            ["n", "overlay", "base bytes", "base encode s", "state bytes",
             "snapshot s/batch", "ref. bytes", "ref. encode s", "ref. s/batch",
             "append bytes", "append s/batch"],
            [
                [
                    row["num_vertices"],
                    row["overlay_size"],
                    format_bytes(row["base_bytes"]),
                    row["base_encode_seconds"],
                    format_bytes(row["state_bytes"]),
                    row["snapshot_seconds"],
                    format_bytes(row["referenced_bytes"]),
                    row["reference_encode_seconds"],
                    row["referenced_seconds"],
                    format_bytes(row["append_bytes"]),
                    row["append_seconds"],
                ]
                for row in stream_rows
            ],
            title=(
                "stream: embedded-base snapshot, referenced-base snapshot "
                "and batch-log append per batch"
            ),
        )
    )
    print()
    print(
        format_table(
            ["n", "checkpoint bytes", "ndarray write s", "list write s", "speedup"],
            [
                [
                    solve_round["num_vertices"],
                    format_bytes(solve_round["checkpoint_bytes"]),
                    solve_round["ndarray_write_seconds"],
                    solve_round["list_write_seconds"],
                    solve_round["write_speedup"],
                ]
            ],
            title="solve-round: one-k round snapshot, byte-identical forms",
        )
    )
    print()
    print(
        format_table(
            ["n", "set sizes", "prefix bytes", "list encode s", "array encode s",
             "speedup"],
            [
                [
                    solve_boundary["num_vertices"],
                    " → ".join(str(size) for size in solve_boundary["members"]),
                    format_bytes(solve_boundary["prefix_bytes"]),
                    solve_boundary["list_encode_seconds"],
                    solve_boundary["array_encode_seconds"],
                    solve_boundary["encode_speedup"],
                ]
            ],
            title="solve-boundary: completed-prefix encodes, byte-identical forms",
        )
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "results": rows,
                    "stream_checkpoint": stream_rows,
                    "solve_round": solve_round,
                    "solve_boundary": solve_boundary,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
