"""Tests for the streaming dynamic MIS stack.

Covers the three layers of the stream refactor: the kernel-backend
``dynamic_apply_pass`` (python scalar reference vs numpy vectorized
waves, bit-identical), the maintainer's compaction and checkpoint state,
and the :class:`~repro.pipeline.stream.StreamSession` with its
kill/resume guarantees, including the ``repro-mis watch`` command.
"""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.dynamic.maintainer import DynamicMISMaintainer
from repro.errors import PipelineInterrupted, SolverError, StreamError
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.obs import Observability, SpanTracer
from repro.pipeline.stream import (
    STREAM_VERSION,
    StreamSession,
    base_reference,
    base_section,
    load_updates,
    updates_digest,
)
from repro.storage.checkpoint import (
    append_record,
    read_checkpoint,
    read_records,
    write_checkpoint,
)
from repro.validation.checks import is_independent_set


def random_stream(rng, max_vertex, updates, insert_bias=0.65):
    insertions, deletions = [], []
    for _ in range(updates):
        u, v = rng.randrange(max_vertex), rng.randrange(max_vertex)
        if u == v:
            continue
        (insertions if rng.random() < insert_bias else deletions).append((u, v))
    return insertions, deletions


def gnm_graph(seed=1):
    return erdos_renyi_gnm(120, 360, seed=seed)


def plrg_test_graph(seed=2):
    return plrg_graph(PLRGParameters.from_vertex_count(120, 2.2), seed=seed)


def tightness(maintainer):
    tight = maintainer._tight
    return tight.tolist() if hasattr(tight, "tolist") else list(tight)


class TestBackendParity:
    """The numpy wave pass must be bit-identical to the scalar reference."""

    @pytest.mark.parametrize("make_graph", [gnm_graph, plrg_test_graph])
    def test_selected_set_journal_and_stats_match(self, make_graph):

        def run(backend):
            rng = random.Random(23)
            maintainer = DynamicMISMaintainer(make_graph(), backend=backend)
            for _ in range(8):
                insertions, deletions = random_stream(rng, 140, 150)
                maintainer.apply_updates(insertions, deletions)
            maintainer.check_invariants()
            return maintainer

        scalar = run("python")
        waves = run("numpy")
        assert scalar.independent_set == waves.independent_set
        assert scalar.journal == waves.journal
        assert scalar.stats == waves.stats
        assert scalar.num_edges == waves.num_edges
        assert tightness(scalar) == tightness(waves)

    def test_parity_with_vertex_creation_beyond_capacity(self):

        def run(backend):
            maintainer = DynamicMISMaintainer(gnm_graph(), backend=backend)
            maintainer.apply_updates(
                insertions=[(0, 500), (500, 501), (3, 700)],
                deletions=[(0, 500)],
            )
            return maintainer

        scalar, waves = run("python"), run("numpy")
        assert scalar.independent_set == waves.independent_set
        assert scalar.journal == waves.journal
        assert scalar.stats == waves.stats

    def test_conflict_dense_stream_parity(self):
        # Adversarial stream for the batched conflict-path eviction: a
        # large share of insertions land between two *selected* vertices,
        # so almost every batch carries eviction + re-saturation chains.
        # Sets, journals, stats and tightness must stay bit-identical.

        def run(backend):
            rng = random.Random(77)
            maintainer = DynamicMISMaintainer(
                plrg_test_graph(seed=5), backend=backend
            )
            for _ in range(12):
                selected = sorted(maintainer.independent_set)
                insertions, deletions = [], []
                for _ in range(120):
                    if rng.random() < 0.7 and len(selected) >= 2:
                        u, v = rng.sample(selected, 2)
                    else:
                        u, v = rng.randrange(140), rng.randrange(140)
                        if u == v:
                            continue
                    if rng.random() < 0.8:
                        insertions.append((u, v))
                    else:
                        deletions.append((u, v))
                maintainer.apply_updates(insertions, deletions)
            maintainer.check_invariants()
            return maintainer

        scalar = run("python")
        waves = run("numpy")
        assert scalar.independent_set == waves.independent_set
        assert scalar.journal == waves.journal
        assert scalar.stats == waves.stats
        assert tightness(scalar) == tightness(waves)
        assert scalar.stats.evictions > 50  # the stream really is hostile
        assert waves.wave.batched_evictions > 0

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        updates=st.integers(min_value=1, max_value=220),
        batch=st.sampled_from([1, 7, 64, 256]),
        conflict=st.sampled_from([0.0, 0.4, 0.9]),
        kind=st.sampled_from(["gnm", "plrg"]),
    )
    def test_partitioner_parity_sweep(
        self, seed, updates, batch, conflict, kind
    ):
        # Property sweep over the wave partitioner: any stream shape,
        # batch size and conflict density must reproduce the scalar
        # reference exactly — selection sets AND journals.
        graph = (
            gnm_graph(seed=seed % 5 + 1)
            if kind == "gnm"
            else plrg_test_graph(seed=seed % 5 + 1)
        )
        maintainers = {
            name: DynamicMISMaintainer(graph, backend=name)
            for name in ("python", "numpy")
        }
        rng = random.Random(seed)
        pending = []
        for _ in range(updates):
            selected = sorted(maintainers["python"].independent_set)
            if rng.random() < conflict and len(selected) >= 2:
                u, v = rng.sample(selected, 2)
            else:
                u, v = rng.randrange(140), rng.randrange(140)
                if u == v:
                    continue
            pending.append(("+" if rng.random() < 0.65 else "-", u, v))
            if len(pending) >= batch:
                insertions = [(u, v) for op, u, v in pending if op == "+"]
                deletions = [(u, v) for op, u, v in pending if op == "-"]
                for m in maintainers.values():
                    m.apply_updates(insertions, deletions)
                pending = []
                scalar, waves = maintainers["python"], maintainers["numpy"]
                assert scalar.independent_set == waves.independent_set
                assert scalar.journal == waves.journal
                assert scalar.stats == waves.stats
        maintainers["numpy"].check_invariants()

    def test_normalization_matches_the_scalar_reference(self):
        import numpy as np
        from repro.core.kernels import get_backend
        from repro.core.kernels.base import normalize_updates

        numpy_backend = get_backend("numpy")
        rng = random.Random(9)
        batch = []
        for _ in range(400):
            u, v = rng.randrange(40), rng.randrange(40)
            batch.append((u, v))  # self loops and duplicates included
        for strict in (False,) if any(u == v for u, v in batch) else (True,):
            assert numpy_backend.normalize_updates_pass(
                batch, strict=strict
            ) == normalize_updates(batch, strict=strict)
        clean = [(u, v) for u, v in batch if u != v]
        assert numpy_backend.normalize_updates_pass(
            clean, strict=True
        ) == normalize_updates(clean, strict=True)
        as_array = np.asarray(clean, dtype=np.int64)
        assert numpy_backend.normalize_updates_pass(
            as_array, strict=True
        ) == normalize_updates(clean, strict=True)

    @pytest.mark.parametrize(
        "bad", [[(1, 2, 3)], [(1,)], [("a", "b")], [(1, 2), (3, 4, 5)]]
    )
    def test_normalization_rejects_ragged_rows_like_the_reference(self, bad):
        # Malformed rows must not be silently mis-parsed by the
        # vectorized fast path; both backends raise the same way.
        from repro.core.kernels import get_backend
        from repro.core.kernels.base import normalize_updates

        numpy_backend = get_backend("numpy")
        try:
            expected = normalize_updates(bad, strict=True)
        except Exception as exc:  # noqa: BLE001 - mirrored exactly below
            with pytest.raises(type(exc)):
                numpy_backend.normalize_updates_pass(bad, strict=True)
        else:
            assert (
                numpy_backend.normalize_updates_pass(bad, strict=True)
                == expected
            )


class TestBatchSemantics:
    def test_batch_duplicates_are_deduplicated(self):
        maintainer = DynamicMISMaintainer(gnm_graph())
        before = maintainer.stats.edges_inserted
        maintainer.apply_updates(
            insertions=[(0, 115), (115, 0), (0, 115), (0, 115)]
        )
        assert maintainer.stats.edges_inserted == before + 1

    def test_strict_mode_raises_a_typed_error_on_existing_edges(self):
        from repro.errors import DuplicateEdgeError

        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(10, 0, seed=1))
        maintainer.insert_edge(2, 3)
        with pytest.raises(DuplicateEdgeError) as excinfo:
            maintainer.apply_updates(insertions=[(2, 3)], exist_ok=False)
        assert excinfo.value.edge == (2, 3)
        # Matching single-edge behaviour:
        with pytest.raises(DuplicateEdgeError):
            maintainer.insert_edge(3, 2, exist_ok=False)
        # The default stays a no-op (pre-existing contract).
        maintainer.apply_updates(insertions=[(2, 3)])

    def test_strict_mode_rejects_nothing_applied(self):
        from repro.errors import DuplicateEdgeError

        maintainer = DynamicMISMaintainer(erdos_renyi_gnm(10, 0, seed=1))
        maintainer.insert_edge(0, 1)
        edges_before = maintainer.num_edges
        with pytest.raises(DuplicateEdgeError):
            maintainer.apply_updates(
                insertions=[(5, 6), (0, 1)], exist_ok=False
            )
        assert maintainer.num_edges == edges_before


class TestDeleteVertex:
    def test_deleting_a_selected_vertex_resaturates_its_neighbourhood(self):
        from repro.graphs.generators import star_graph

        maintainer = DynamicMISMaintainer(star_graph(6), initial={0})
        maintainer.delete_vertex(0)
        maintainer.check_invariants()
        assert maintainer.num_vertices == 6
        assert maintainer.num_edges == 0
        # Every former leaf is now isolated and must have joined the set.
        assert maintainer.independent_set == frozenset(range(1, 7))
        assert maintainer.stats.vertices_deleted == 1

    def test_deleting_an_unknown_vertex_raises(self):
        from repro.errors import VertexError

        maintainer = DynamicMISMaintainer(gnm_graph())
        with pytest.raises(VertexError):
            maintainer.delete_vertex(10_000)
        maintainer.delete_vertex(5)
        with pytest.raises(VertexError):
            maintainer.delete_vertex(5)

    def test_random_vertex_deletions_keep_invariants(self):
        rng = random.Random(3)
        maintainer = DynamicMISMaintainer(gnm_graph())
        alive = set(range(120))
        for _ in range(40):
            victim = rng.choice(sorted(alive))
            alive.discard(victim)
            maintainer.delete_vertex(victim)
        maintainer.check_invariants()
        assert maintainer.num_vertices == 80


@st.composite
def update_streams(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    updates = draw(st.integers(min_value=1, max_value=250))
    threshold = draw(st.integers(min_value=1, max_value=200))
    kind = draw(st.sampled_from(["gnm", "plrg"]))
    return seed, updates, threshold, kind


class TestCompaction:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stream=update_streams(), backend=st.sampled_from(["python", "numpy"]))
    def test_compaction_preserves_the_solution(self, stream, backend):
        seed, updates, threshold, kind = stream
        graph = (
            gnm_graph(seed=seed % 7 + 1)
            if kind == "gnm"
            else plrg_test_graph(seed=seed % 7 + 1)
        )
        rng = random.Random(seed)
        maintainer = DynamicMISMaintainer(graph, backend=backend)
        insertions, deletions = random_stream(rng, 140, updates)
        maintainer.apply_updates(insertions, deletions)

        selected = maintainer.independent_set
        tight_before = tightness(maintainer)
        edges_before = maintainer.num_edges
        if maintainer.overlay_size >= threshold:
            maintainer.compact()
        maintainer.compact()

        assert maintainer.overlay_size == 0
        assert maintainer.independent_set == selected
        assert tightness(maintainer) == tight_before
        assert maintainer.num_edges == edges_before
        maintainer.check_invariants()
        current = maintainer.to_graph()
        selected = maintainer.independent_set
        assert is_independent_set(current, selected)
        # Maximality over the *present* vertices: to_graph() pads with
        # placeholder ids for vertices that were never created, which are
        # not the maintainer's to cover.
        for v in set(maintainer._present_ids()) - selected:
            assert any(w in selected for w in maintainer._neighbors(v))

    def test_threshold_triggers_compaction_inside_apply_updates(self):
        maintainer = DynamicMISMaintainer(gnm_graph(), compact_threshold=10)
        rng = random.Random(5)
        insertions, deletions = random_stream(rng, 140, 200)
        maintainer.apply_updates(insertions, deletions)
        assert maintainer.stats.compactions >= 1
        assert maintainer.overlay_size < 10
        maintainer.check_invariants()

    def test_updates_keep_working_after_compaction(self):
        def run(threshold):
            maintainer = DynamicMISMaintainer(
                gnm_graph(), compact_threshold=threshold
            )
            rng = random.Random(9)
            for _ in range(6):
                insertions, deletions = random_stream(rng, 140, 80)
                maintainer.apply_updates(insertions, deletions)
            maintainer.check_invariants()
            return maintainer

        compacting = run(threshold=25)
        plain = run(threshold=None)
        assert compacting.stats.compactions > 0
        assert plain.stats.compactions == 0
        assert compacting.independent_set == plain.independent_set
        assert compacting.num_edges == plain.num_edges
        assert compacting.journal == plain.journal


class TestUpdateFiles:
    def test_load_updates_parses_ops_and_comments(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("# header\n+ 1 2\n\n- 3 4   # trailing\n+ 5 6\n")
        assert load_updates(str(path)) == [
            ("+", 1, 2),
            ("-", 3, 4),
            ("+", 5, 6),
        ]

    @pytest.mark.parametrize("line", ["~ 1 2", "+ 1", "+ a b", "1 2"])
    def test_load_updates_rejects_malformed_lines(self, tmp_path, line):
        path = tmp_path / "u.txt"
        path.write_text(f"+ 0 1\n{line}\n")
        with pytest.raises(StreamError) as excinfo:
            load_updates(str(path))
        assert ":2:" in str(excinfo.value)

    def test_updates_digest_tracks_content(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("+ 1 2\n")
        b.write_text("+ 1 2\n")
        assert updates_digest(str(a)) == updates_digest(str(b))
        b.write_text("+ 1 3\n")
        assert updates_digest(str(a)) != updates_digest(str(b))

    def test_load_updates_reads_stdin(self, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("# streamed\n+ 1 2\n- 3 4\n")
        )
        assert load_updates("-") == [("+", 1, 2), ("-", 3, 4)]
        assert updates_digest("-") == "-"

    def test_load_updates_names_stdin_in_errors(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("+ 1 2\n? 9 9\n"))
        with pytest.raises(StreamError) as excinfo:
            load_updates("-")
        assert "<stdin>:2:" in str(excinfo.value)


@pytest.fixture
def stream_setup(tmp_path):
    graph = gnm_graph(seed=4)
    rng = random.Random(8)
    lines = []
    for _ in range(900):
        u, v = rng.randrange(140), rng.randrange(140)
        if u == v:
            continue
        lines.append(f"{'+' if rng.random() < 0.6 else '-'} {u} {v}")
    updates = tmp_path / "updates.txt"
    updates.write_text("\n".join(lines) + "\n")
    return graph, str(updates), str(tmp_path / "stream.ckpt")


class TestStreamSession:
    def test_session_drains_and_reports(self, stream_setup):
        graph, updates, _ = stream_setup
        session = StreamSession(
            graph, updates, batch_size=100, compact_threshold=300
        )
        reports = list(session.process())
        assert len(reports) == session.total_batches
        assert reports[-1].batch_index == session.total_batches - 1
        summary = session.result()
        assert summary["algorithm"] == "stream"
        assert summary["batches_applied"] == session.total_batches
        session.maintainer.check_invariants()

    def test_progress_hook_fires_per_batch(self, stream_setup):
        graph, updates, _ = stream_setup
        beats = []
        session = StreamSession(
            graph, updates, batch_size=100, progress=lambda: beats.append(1)
        )
        session.run()
        assert len(beats) == session.total_batches

    def test_interrupt_resume_is_bit_identical(self, stream_setup):
        graph, updates, checkpoint = stream_setup
        kwargs = dict(
            graph_digest="g",
            batch_size=64,
            compact_threshold=250,
        )
        baseline = StreamSession(graph, updates, **kwargs).run()

        with pytest.raises(PipelineInterrupted):
            StreamSession(
                graph,
                updates,
                checkpoint=checkpoint,
                interrupt_after=3,
                **kwargs,
            ).run()
        resumed = StreamSession(
            graph, updates, checkpoint=checkpoint, resume=True, **kwargs
        )
        assert resumed.cursor == 3
        result = resumed.run()
        for key in (
            "independent_set",
            "set_size",
            "stats",
            "num_edges",
            "batches_applied",
        ):
            assert result[key] == baseline[key]

    def test_resume_refuses_a_different_stream(self, stream_setup, tmp_path):
        graph, updates, checkpoint = stream_setup
        with pytest.raises(PipelineInterrupted):
            StreamSession(
                graph,
                updates,
                graph_digest="g",
                batch_size=64,
                checkpoint=checkpoint,
                interrupt_after=1,
            ).run()
        # Different batch size.
        with pytest.raises(StreamError):
            StreamSession(
                graph,
                updates,
                graph_digest="g",
                batch_size=65,
                checkpoint=checkpoint,
                resume=True,
            )
        # Different graph.
        with pytest.raises(StreamError):
            StreamSession(
                graph,
                updates,
                graph_digest="other",
                batch_size=64,
                checkpoint=checkpoint,
                resume=True,
            )
        # Different update file.
        other = tmp_path / "other.txt"
        other.write_text("+ 0 1\n")
        with pytest.raises(StreamError):
            StreamSession(
                graph,
                str(other),
                graph_digest="g",
                batch_size=64,
                checkpoint=checkpoint,
                resume=True,
            )

    def test_stream_version_is_pinned(self, stream_setup):
        graph, updates, checkpoint = stream_setup
        with pytest.raises(PipelineInterrupted):
            StreamSession(
                graph,
                updates,
                batch_size=64,
                checkpoint=checkpoint,
                interrupt_after=1,
            ).run()
        from repro.storage.checkpoint import read_checkpoint, write_checkpoint

        payload = read_checkpoint(checkpoint)
        payload["pins"]["stream_version"] = STREAM_VERSION + 1
        write_checkpoint(checkpoint, payload)
        with pytest.raises(StreamError):
            StreamSession(
                graph, updates, batch_size=64, checkpoint=checkpoint, resume=True
            )

    def test_stdin_streams_checkpoint_but_never_resume(
        self, stream_setup, monkeypatch
    ):
        import io

        graph, updates, checkpoint = stream_setup
        text = open(updates, "r", encoding="utf-8").read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        session = StreamSession(
            graph, "-", batch_size=100, checkpoint=checkpoint
        )
        summary = session.run()
        baseline = StreamSession(graph, updates, batch_size=100).run()
        summary.pop("elapsed_seconds")
        baseline.pop("elapsed_seconds")
        assert summary == baseline
        from repro.storage.checkpoint import read_checkpoint

        assert read_checkpoint(checkpoint)["pins"]["updates_digest"] == "-"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        with pytest.raises(StreamError, match="stdin"):
            StreamSession(
                graph, "-", batch_size=100, checkpoint=checkpoint, resume=True
            )
        # A file-based session never matches the '-' pin either.
        with pytest.raises(StreamError, match="refusing to resume"):
            StreamSession(
                graph,
                updates,
                batch_size=100,
                checkpoint=checkpoint,
                resume=True,
            )

    def test_checkpoint_writes_drop_the_replayed_journal_prefix(
        self, stream_setup
    ):
        graph, updates, checkpoint = stream_setup
        plain = StreamSession(graph, updates, batch_size=100)
        plain.run()
        durable = StreamSession(
            graph, updates, batch_size=100, checkpoint=checkpoint
        )
        durable.run()
        # Every batch checkpoints, and each write retires the journal
        # entries it made durable — nothing is left in memory.
        assert durable.maintainer.journal == []
        assert (
            sorted(durable.maintainer.independent_set)
            == sorted(plain.maintainer.independent_set)
        )

    def test_checkpointless_sessions_keep_at_most_one_batch_of_journal(
        self, stream_setup
    ):
        graph, updates, _ = stream_setup
        session = StreamSession(graph, updates, batch_size=100)
        maintainer = session.maintainer
        inner = maintainer.apply_updates
        per_batch = []

        def apply_updates(*args, **kwargs):
            # Whatever earlier batches journalled is gone before the next
            # batch starts; only this batch's own entries accumulate.
            assert maintainer.journal == []
            result = inner(*args, **kwargs)
            per_batch.append(len(maintainer.journal))
            return result

        maintainer.apply_updates = apply_updates
        for _report in session.process():
            assert maintainer.journal == []
        assert len(per_batch) == session.total_batches
        assert sum(per_batch) > 0  # the stream did change the selection

    def test_version_1_stream_checkpoints_are_refused(self, stream_setup):
        graph, updates, checkpoint = stream_setup
        offsets, targets = graph.csr_arrays()
        # The version-1 layout: selection as an id list, overlay as pairs.
        write_checkpoint(
            checkpoint,
            {
                "base": {"offsets": offsets.tolist(), "targets": targets.tolist()},
                "cursor": 1,
                "pins": {
                    "stream_version": 1,
                    "graph_digest": None,
                    "updates_digest": updates_digest(updates),
                    "update_count": len(load_updates(updates)),
                    "batch_size": 64,
                    "pipeline": "two_k_swap",
                    "compact_threshold": None,
                },
                "state": {
                    "pipeline": "two_k_swap",
                    "max_id": graph.num_vertices - 1,
                    "num_present": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    "selected": [0, 5],
                    "absent": [],
                    "added": [[1, 2]],
                    "removed": [],
                    "stats": {},
                },
            },
        )
        with pytest.raises(StreamError, match="version 1 is not supported"):
            StreamSession(
                graph, updates, batch_size=64, checkpoint=checkpoint, resume=True
            )

    def test_batch_reports_carry_conflict_and_wave_deltas(self, stream_setup):
        graph, updates, _ = stream_setup
        session = StreamSession(
            graph, updates, batch_size=100, backend="numpy"
        )
        reports = list(session.process())
        maintainer = session.maintainer
        assert (
            sum(r.evictions for r in reports) == maintainer.stats.evictions
        )
        assert (
            sum(r.sub_waves for r in reports) == maintainer.wave.sub_waves
        )
        assert (
            sum(r.scalar_fallbacks for r in reports)
            == maintainer.wave.scalar_fallbacks
        )
        summary = session.result()
        applied = (
            maintainer.stats.edges_inserted + maintainer.stats.edges_deleted
        )
        assert summary["conflict_density"] == (
            maintainer.stats.evictions / applied
        )
        report_keys = set(reports[0].summary())
        assert {"evictions", "sub_waves", "scalar_fallbacks"} <= report_keys


def write_update_file(path, seed, max_vertex, count, insert_bias=0.6):
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        u, v = rng.randrange(max_vertex), rng.randrange(max_vertex)
        if u == v:
            continue
        lines.append(f"{'+' if rng.random() < insert_bias else '-'} {u} {v}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def plain_payload(payload):
    return {
        key: value.tolist() if hasattr(value, "tolist") else value
        for key, value in payload.items()
    }


def checkpoint_writes(tracer):
    return [
        event["args"]
        for event in tracer.to_document()["traceEvents"]
        if event["name"] == "checkpoint:write"
    ]


class TestBatchLog:
    """Stream checkpoints as one snapshot plus an append-only batch log."""

    @staticmethod
    def _session(graph, updates, checkpoint, **kwargs):
        kwargs.setdefault("batch_size", 40)
        return StreamSession(
            graph, updates, graph_digest="g", checkpoint=checkpoint, **kwargs
        )

    @staticmethod
    def _snapshot_bytes(maintainer, path):
        offsets, targets = maintainer.base_arrays()
        write_checkpoint(
            path,
            {
                "base": {"offsets": offsets, "targets": targets},
                "state": maintainer.state_payload(),
            },
        )
        with open(path, "rb") as handle:
            return handle.read()

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 10_000),
        backend=st.sampled_from(["python", "numpy"]),
        make_graph=st.sampled_from([gnm_graph, plrg_test_graph]),
    )
    def test_snapshot_plus_log_rebuilds_the_live_maintainer(
        self, tmp_path_factory, seed, backend, make_graph
    ):
        tmp = tmp_path_factory.mktemp("log")
        graph = make_graph()
        updates = write_update_file(tmp / "updates.txt", seed, 150, 500)
        checkpoint = str(tmp / "s.ck")
        kwargs = dict(backend=backend, compact_threshold=220)
        live = self._session(graph, updates, checkpoint, **kwargs)
        for report in live.process():
            rebuilt = self._session(
                graph, updates, checkpoint, resume=True, **kwargs
            )
            assert rebuilt.cursor == report.batch_index + 1
            assert plain_payload(rebuilt.maintainer.state_payload()) == (
                plain_payload(live.maintainer.state_payload())
            )
            assert self._snapshot_bytes(
                rebuilt.maintainer, str(tmp / "a.ck")
            ) == self._snapshot_bytes(live.maintainer, str(tmp / "b.ck"))
            assert _state_arrays(rebuilt.maintainer) == _state_arrays(
                live.maintainer
            )
            rebuilt.maintainer.check_invariants()

    def test_resume_from_a_log_cut_inside_its_last_record(self, tmp_path):
        graph = plrg_test_graph()
        updates = write_update_file(tmp_path / "updates.txt", 3, 150, 400)
        checkpoint = str(tmp_path / "s.ck")
        kwargs = dict(batch_size=8)
        baseline = StreamSession(graph, updates, graph_digest="g", **kwargs).run()
        with pytest.raises(PipelineInterrupted):
            self._session(
                graph, updates, checkpoint, interrupt_after=3, **kwargs
            ).run()
        # The state one batch before the log's last record, from a
        # session that stopped there.
        reference = str(tmp_path / "reference.ck")
        with pytest.raises(PipelineInterrupted):
            self._session(
                graph, updates, reference, interrupt_after=2, **kwargs
            ).run()
        expected = plain_payload(
            self._session(graph, updates, reference, resume=True, **kwargs)
            .maintainer.state_payload()
        )
        log = f"{checkpoint}.log"
        records, _ = read_records(log)
        assert [record["cursor"] for record in records] == [2, 3]
        _, last_start = read_records(log, accept=lambda r: r["cursor"] < 3)
        with open(log, "rb") as handle:
            data = handle.read()
        for cut in range(last_start, len(data)):
            with open(log, "wb") as handle:
                handle.write(data[:cut])
            resumed = self._session(
                graph, updates, checkpoint, resume=True, **kwargs
            )
            assert resumed.cursor == 2, cut
            assert os.path.getsize(log) == last_start, cut
            payload = plain_payload(resumed.maintainer.state_payload())
            assert payload == expected, cut
        # Resuming from the cut log (and appending after the truncated
        # prefix) finishes bit-identically to the uninterrupted run.
        result = resumed.run()
        for key in ("independent_set", "stats", "num_edges", "batches_applied"):
            assert result[key] == baseline[key]

    def test_a_log_of_another_generation_is_ignored(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 5, 150, 400)
        checkpoint = str(tmp_path / "s.ck")
        with pytest.raises(PipelineInterrupted):
            self._session(graph, updates, checkpoint, interrupt_after=3).run()
        log = f"{checkpoint}.log"
        records, _ = read_records(log)
        assert len(records) == 2
        os.remove(log)
        for record in records:
            append_record(log, dict(record, generation="stale"))
        resumed = self._session(graph, updates, checkpoint, resume=True)
        assert resumed.cursor == read_checkpoint(checkpoint)["cursor"] == 1
        assert os.path.getsize(log) == 0

    def test_a_cursor_gap_ends_the_replayed_prefix(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 5, 150, 400)
        checkpoint = str(tmp_path / "s.ck")
        with pytest.raises(PipelineInterrupted):
            self._session(graph, updates, checkpoint, interrupt_after=3).run()
        log = f"{checkpoint}.log"
        records, _ = read_records(log)
        assert [record["cursor"] for record in records] == [2, 3]
        os.remove(log)
        kept = append_record(log, records[0]).nbytes
        append_record(log, dict(records[1], cursor=4))
        resumed = self._session(graph, updates, checkpoint, resume=True)
        assert resumed.cursor == 2
        assert os.path.getsize(log) == kept

    def test_rollover_when_the_log_outgrows_the_snapshot(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 7, 150, 1500)
        checkpoint = str(tmp_path / "s.ck")
        tracer = SpanTracer()
        session = self._session(
            graph, updates, checkpoint, obs=Observability(tracer=tracer)
        )
        session.run()
        writes = checkpoint_writes(tracer)
        assert len(writes) == session.total_batches
        assert writes[0]["kind"] == "snapshot"
        snapshot_bytes, log_bytes, rollovers = None, 0, 0
        for write in writes:
            if write["kind"] == "snapshot":
                if snapshot_bytes is not None:
                    # No compaction here: only the size rule rolls over.
                    assert log_bytes > snapshot_bytes
                    rollovers += 1
                snapshot_bytes, log_bytes = write["bytes"], 0
            else:
                assert log_bytes <= snapshot_bytes
                log_bytes += write["bytes"]
        assert rollovers >= 1
        assert os.path.getsize(f"{checkpoint}.log") == log_bytes
        registry = session._obs.registry
        assert registry.value(
            "repro_checkpoint_bytes_total", phase="batch"
        ) == sum(write["bytes"] for write in writes)
        assert registry.value(
            "repro_checkpoint_writes_total", phase="batch"
        ) == len(writes)

    def test_every_compaction_writes_a_snapshot(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 9, 150, 900)
        checkpoint = str(tmp_path / "s.ck")
        tracer = SpanTracer()
        session = self._session(
            graph,
            updates,
            checkpoint,
            compact_threshold=120,
            obs=Observability(tracer=tracer),
        )
        reports = list(session.process())
        kinds = [write["kind"] for write in checkpoint_writes(tracer)]
        compacted = [report.compacted for report in reports]
        assert any(compacted)
        for kind, did_compact in zip(kinds, compacted):
            if did_compact:
                assert kind == "snapshot"
        assert "append" in kinds

    def test_version_2_stream_checkpoints_are_refused(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 5, 150, 400)
        checkpoint = str(tmp_path / "s.ck")
        with pytest.raises(PipelineInterrupted):
            self._session(graph, updates, checkpoint, interrupt_after=1).run()
        payload = read_checkpoint(checkpoint)
        payload["pins"]["stream_version"] = 2
        write_checkpoint(checkpoint, payload)
        with pytest.raises(StreamError, match="version 2 is not supported"):
            self._session(graph, updates, checkpoint, resume=True)

    def test_append_bytes_do_not_grow_with_the_graph(self, tmp_path):
        updates = write_update_file(tmp_path / "updates.txt", 11, 2_000, 600)
        sizes = {}
        for n in (2_000, 20_000):
            graph = erdos_renyi_gnm(n, 3 * n, seed=1)
            checkpoint = str(tmp_path / f"n{n}.ck")
            with pytest.raises(PipelineInterrupted):
                StreamSession(
                    graph,
                    updates,
                    pipeline="greedy",
                    batch_size=256,
                    checkpoint=checkpoint,
                    interrupt_after=2,
                ).run()
            sizes[n] = os.path.getsize(f"{checkpoint}.log")
            assert sizes[n] < os.path.getsize(checkpoint)
        assert max(sizes.values()) <= 1.5 * min(sizes.values()), sizes


def checkpoint_encodes(tracer):
    return [
        event["args"]
        for event in tracer.to_document()["traceEvents"]
        if event["name"] == "checkpoint:encode"
    ]


class TestReferencedBase:
    """Until the first compaction a snapshot names its CSR base by digest."""

    @staticmethod
    def _interrupted(graph, updates, checkpoint, **kwargs):
        with pytest.raises(PipelineInterrupted):
            StreamSession(graph, updates, checkpoint=checkpoint, **kwargs).run()

    def test_pre_compaction_snapshot_holds_the_state_not_the_graph(
        self, tmp_path
    ):
        graph = erdos_renyi_gnm(2_000, 8_000, seed=3)
        updates = write_update_file(tmp_path / "updates.txt", 4, 2_000, 600)
        checkpoint = str(tmp_path / "s.ck")
        kwargs = dict(pipeline="greedy", batch_size=128)
        self._interrupted(graph, updates, checkpoint, interrupt_after=1, **kwargs)
        payload = read_checkpoint(checkpoint)
        assert payload["base"] == base_reference(*graph.csr_arrays())
        assert not {"offsets", "targets"} & set(payload["base"])
        state_only = str(tmp_path / "state.ck")
        del payload["base"]
        write_checkpoint(state_only, payload)
        assert os.path.getsize(checkpoint) <= os.path.getsize(state_only) + 1024
        embedded = base_section(*graph.csr_arrays(), embed=True)
        assert len(embedded.blob) > 8 * 1024  # the graph really is the bulk
        # A resume takes the base straight from the session graph.
        resumed = StreamSession(
            graph, updates, checkpoint=checkpoint, resume=True, **kwargs
        )
        for mine, theirs in zip(
            resumed.maintainer.base_arrays(), graph.csr_arrays()
        ):
            assert mine is theirs

    def test_resume_refuses_a_graph_with_other_edges(self, tmp_path):
        graph = erdos_renyi_gnm(120, 360, seed=1)
        same_shape = erdos_renyi_gnm(120, 360, seed=2)
        assert same_shape.csr_arrays()[1].tolist() != graph.csr_arrays()[1].tolist()
        updates = write_update_file(tmp_path / "updates.txt", 5, 150, 400)
        checkpoint = str(tmp_path / "s.ck")
        kwargs = dict(batch_size=40, graph_digest=None)
        self._interrupted(graph, updates, checkpoint, interrupt_after=2, **kwargs)
        with pytest.raises(StreamError, match="digest="):
            StreamSession(
                same_shape, updates, checkpoint=checkpoint, resume=True, **kwargs
            )
        with pytest.raises(StreamError, match="num_edges=360"):
            StreamSession(
                erdos_renyi_gnm(120, 361, seed=1),
                updates,
                checkpoint=checkpoint,
                resume=True,
                **kwargs,
            )
        resumed = StreamSession(
            graph, updates, checkpoint=checkpoint, resume=True, **kwargs
        )
        assert resumed.cursor == 2

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_first_snapshot_after_a_compaction_embeds_the_base(
        self, tmp_path, backend
    ):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 9, 150, 900)
        kwargs = dict(
            backend=backend, batch_size=40, compact_threshold=120, graph_digest="g"
        )
        uninterrupted = StreamSession(graph, updates, **kwargs)
        reports = list(uninterrupted.process())
        baseline = uninterrupted.result()
        first = next(report.batch_index for report in reports if report.compacted)
        checkpoint = str(tmp_path / "s.ck")
        self._interrupted(
            graph, updates, checkpoint, interrupt_after=first + 1, **kwargs
        )
        payload = read_checkpoint(checkpoint)
        assert payload["cursor"] == first + 1
        assert os.path.getsize(f"{checkpoint}.log") == 0
        assert set(payload["base"]) == {"offsets", "targets"}
        assert payload["base"]["targets"] != graph.csr_arrays()[1].tolist()
        resumed = StreamSession(
            graph, updates, checkpoint=checkpoint, resume=True, **kwargs
        )
        offsets, targets = resumed.maintainer.base_arrays()
        assert offsets.tolist() == payload["base"]["offsets"]
        assert targets.tolist() == payload["base"]["targets"]
        result = resumed.run()
        for key in (
            "independent_set",
            "set_size",
            "stats",
            "num_edges",
            "batches_applied",
        ):
            assert result[key] == baseline[key]

    def test_encode_spans_hold_the_digest_until_a_compaction(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 9, 150, 900)
        tracer = SpanTracer()
        session = StreamSession(
            graph,
            updates,
            batch_size=40,
            compact_threshold=120,
            checkpoint=str(tmp_path / "s.ck"),
            obs=Observability(tracer=tracer),
        )
        reports = list(session.process())
        encodes = checkpoint_encodes(tracer)
        # One encode per base: the input's reference, then one embedded
        # base per compaction (each compaction writes a snapshot).
        assert len(encodes) == 1 + sum(report.compacted for report in reports)
        reference = base_section(*graph.csr_arrays(), embed=False)
        assert reference.blob == b""
        assert encodes[0]["bytes"] == len(reference.json_bytes)
        assert all(encode["bytes"] > encodes[0]["bytes"] for encode in encodes[1:])

    def test_version_3_stream_checkpoints_are_refused(self, tmp_path):
        graph = gnm_graph()
        updates = write_update_file(tmp_path / "updates.txt", 5, 150, 400)
        checkpoint = str(tmp_path / "s.ck")
        self._interrupted(
            graph, updates, checkpoint, batch_size=40, interrupt_after=1
        )
        payload = read_checkpoint(checkpoint)
        # The version-3 layout embedded the input base in every snapshot.
        offsets, targets = graph.csr_arrays()
        payload["base"] = {"offsets": offsets.tolist(), "targets": targets.tolist()}
        payload["pins"]["stream_version"] = 3
        write_checkpoint(checkpoint, payload)
        with pytest.raises(StreamError, match="version 3 is not supported"):
            StreamSession(
                graph, updates, batch_size=40, checkpoint=checkpoint, resume=True
            )


def _normalized_overlay(overlay):
    return {u: set(neighbors) for u, neighbors in overlay.items() if neighbors}


def _state_arrays(maintainer):
    count = maintainer._max_id + 1
    return {
        name: [int(x) for x in getattr(maintainer, name)[:count]]
        for name in ("_present", "_selected", "_degree", "_tight")
    }


class TestStateRoundTrip:
    """``from_state(state_payload())`` rebuilds the maintainer exactly."""

    @staticmethod
    def _churned(backend):
        maintainer = DynamicMISMaintainer(gnm_graph(seed=3), backend=backend)
        base_n = maintainer.num_vertices
        rng = random.Random(17)
        insertions, deletions = random_stream(rng, base_n + 25, 400)
        maintainer.apply_updates(insertions, deletions)
        fresh = [maintainer.add_vertex() for _ in range(3)]
        maintainer.insert_edge(fresh[0], 7)
        maintainer.insert_edge(fresh[1], fresh[2])
        maintainer.delete_vertex(fresh[2])
        maintainer.delete_vertex(base_n + 3)  # created by the stream
        maintainer.delete_vertex(11)  # a base vertex
        maintainer.check_invariants()
        assert maintainer._max_id > base_n
        return maintainer

    @staticmethod
    def _assert_same(rebuilt, original):
        assert rebuilt.independent_set == original.independent_set
        assert _normalized_overlay(rebuilt._added) == _normalized_overlay(
            original._added
        )
        assert _normalized_overlay(rebuilt._removed) == _normalized_overlay(
            original._removed
        )
        assert _state_arrays(rebuilt) == _state_arrays(original)
        assert rebuilt.overlay_size == original.overlay_size
        assert rebuilt.num_vertices == original.num_vertices
        assert rebuilt.num_edges == original.num_edges
        assert rebuilt.stats == original.stats
        rebuilt.check_invariants()

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_round_trip_beyond_the_base(self, backend):
        original = self._churned(backend)
        payload = original.state_payload()
        rebuilt = DynamicMISMaintainer.from_state(
            payload, *original.base_arrays(), backend=backend
        )
        self._assert_same(rebuilt, original)
        # The rebuilt maintainer continues the stream identically.
        rng = random.Random(23)
        insertions, deletions = random_stream(rng, 160, 200)
        for maintainer in (original, rebuilt):
            del maintainer.journal[:]
            maintainer.apply_updates(insertions, deletions)
            maintainer.add_vertex()
        assert rebuilt.journal == original.journal
        self._assert_same(rebuilt, original)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_round_trip_through_a_checkpoint_file(self, backend, tmp_path):
        original = self._churned(backend)
        path = str(tmp_path / "state.ck")
        write_checkpoint(path, {"state": original.state_payload()})
        decoded = read_checkpoint(path)["state"]
        assert isinstance(decoded["selected_bits"], list)
        offsets, targets = original.base_arrays()
        # The base may arrive as decoded int lists too: from_state coerces
        # it to int64 ndarrays once at the boundary.
        for base in ((offsets, targets), (offsets.tolist(), targets.tolist())):
            rebuilt = DynamicMISMaintainer.from_state(
                decoded, *base, backend=backend
            )
            assert rebuilt.base_arrays()[0].dtype.name == "int64"
            self._assert_same(rebuilt, original)

    def test_state_payload_layout(self):
        maintainer = self._churned("numpy")
        payload = maintainer.state_payload()
        count = maintainer._max_id + 1
        assert len(payload["selected_bits"]) == -(-count // 8)
        for key in ("added", "removed"):
            pairs = list(zip(*[iter(list(payload[key]))] * 2))
            assert all(u < v for u, v in pairs)
            assert pairs == sorted(pairs)
            assert len(pairs) * 2 == sum(
                len(s) for s in getattr(maintainer, f"_{key}").values()
            )
        absent = [int(v) for v in payload["absent"]]
        assert absent == [
            v for v in range(count) if not maintainer._present[v]
        ]


class TestOverlayCounter:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_counter_tracks_every_overlay_path(self, backend):
        maintainer = DynamicMISMaintainer(
            plrg_test_graph(seed=4), backend=backend, compact_threshold=150
        )
        rng = random.Random(41)
        for _ in range(8):
            insertions, deletions = random_stream(rng, 140, 90, insert_bias=0.5)
            maintainer.apply_updates(insertions, deletions)
            assert maintainer.overlay_size == maintainer._count_overlay()
            maintainer.check_invariants()
        maintainer.delete_vertex(3)
        assert maintainer.overlay_size == maintainer._count_overlay()
        assert maintainer.stats.compactions > 0
        maintainer.compact()
        assert maintainer.overlay_size == 0

    def test_check_invariants_catches_a_drifted_counter(self):
        maintainer = DynamicMISMaintainer(gnm_graph())
        maintainer.insert_edge(0, 119)
        maintainer._overlay_entries += 1
        with pytest.raises(SolverError, match="overlay counter drifted"):
            maintainer.check_invariants()


class TestWatchCommand:
    def write_graph(self, tmp_path):
        from repro.storage.adjacency_file import write_adjacency_file

        graph = gnm_graph(seed=6)
        path = tmp_path / "g.adj"
        write_adjacency_file(graph, str(path))
        return str(path)

    def write_updates(self, tmp_path):
        rng = random.Random(12)
        lines = []
        for _ in range(600):
            u, v = rng.randrange(140), rng.randrange(140)
            if u == v:
                continue
            lines.append(f"{'+' if rng.random() < 0.6 else '-'} {u} {v}")
        path = tmp_path / "updates.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_watch_kill_and_resume_match_uninterrupted(self, tmp_path, capsys):
        graph_path = self.write_graph(tmp_path)
        updates_path = self.write_updates(tmp_path)
        checkpoint = str(tmp_path / "watch.ckpt")
        base_args = [
            "watch",
            graph_path,
            "--updates",
            updates_path,
            "--batch-size",
            "50",
            "--compact-threshold",
            "200",
            "--quiet",
            "--json",
        ]

        assert cli_main(base_args) == 0
        baseline = json.loads(capsys.readouterr().out)

        interrupted = base_args + [
            "--checkpoint",
            checkpoint,
            "--interrupt-after",
            "4",
        ]
        assert cli_main(interrupted) == 3
        capsys.readouterr()
        resumed = base_args + ["--checkpoint", checkpoint, "--resume"]
        assert cli_main(resumed) == 0
        result = json.loads(capsys.readouterr().out)
        baseline.pop("elapsed_seconds")
        result.pop("elapsed_seconds")
        # Wave counters are process telemetry, not checkpointed state:
        # the resumed process restarts them at zero.
        baseline.pop("wave")
        result.pop("wave")
        assert result == baseline

    def test_watch_validates_its_flags(self, tmp_path, capsys):
        graph_path = self.write_graph(tmp_path)
        updates_path = self.write_updates(tmp_path)
        assert (
            cli_main(
                ["watch", graph_path, "--updates", updates_path, "--resume"]
            )
            == 2
        )
        assert (
            cli_main(
                [
                    "watch",
                    graph_path,
                    "--updates",
                    updates_path,
                    "--batch-size",
                    "0",
                ]
            )
            == 2
        )
        capsys.readouterr()

    def test_watch_reads_updates_from_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        graph_path = self.write_graph(tmp_path)
        updates_path = self.write_updates(tmp_path)
        base = [
            "watch",
            graph_path,
            "--batch-size",
            "50",
            "--quiet",
            "--json",
        ]
        assert cli_main(base + ["--updates", updates_path]) == 0
        baseline = json.loads(capsys.readouterr().out)
        text = open(updates_path, "r", encoding="utf-8").read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli_main(base + ["--updates", "-"]) == 0
        piped = json.loads(capsys.readouterr().out)
        baseline.pop("elapsed_seconds")
        piped.pop("elapsed_seconds")
        assert piped == baseline

    def test_watch_refuses_resume_from_stdin(self, tmp_path, capsys):
        graph_path = self.write_graph(tmp_path)
        checkpoint = str(tmp_path / "w.ckpt")
        assert (
            cli_main(
                [
                    "watch",
                    graph_path,
                    "--updates",
                    "-",
                    "--checkpoint",
                    checkpoint,
                    "--resume",
                ]
            )
            == 2
        )
        assert "stdin" in capsys.readouterr().err

    def test_watch_reports_malformed_update_files(self, tmp_path, capsys):
        graph_path = self.write_graph(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("? 1 2\n")
        assert cli_main(["watch", graph_path, "--updates", str(bad)]) == 2
        assert "expected" in capsys.readouterr().err


class TestServiceStreamJobs:
    """Stream jobs through the service worker pool — the top of the stack."""

    def setup_paths(self, tmp_path):
        from repro.storage.adjacency_file import write_adjacency_file

        graph = gnm_graph(seed=9)
        graph_path = tmp_path / "svc.adj"
        write_adjacency_file(graph, str(graph_path))
        rng = random.Random(21)
        lines = []
        for _ in range(700):
            u, v = rng.randrange(140), rng.randrange(140)
            if u == v:
                continue
            lines.append(f"{'+' if rng.random() < 0.6 else '-'} {u} {v}")
        updates_path = tmp_path / "svc_updates.txt"
        updates_path.write_text("\n".join(lines) + "\n")
        return graph, str(graph_path), str(updates_path)

    def make_spec(self, graph_path, updates_path):
        from repro.pipeline.spec import RunSpec

        return RunSpec.from_dict(
            {
                "pipeline": "two_k_swap",
                "input": graph_path,
                "updates": updates_path,
                "batch_size": 100,
                "compact_threshold": 400,
            }
        )

    def drain(self, root, client_spec, interrupt_after=None):
        from repro.service import ServiceClient, ServiceConfig, SolverService

        client = ServiceClient(root)
        record = client.submit(client_spec, interrupt_after=interrupt_after)
        service = SolverService(
            root,
            ServiceConfig(
                workers=1, poll_interval_seconds=0.02, max_restarts=100
            ),
        )
        try:
            service.drain(timeout_seconds=120.0)
        finally:
            service.stop()
        return client, client.status(record.job_id)

    def test_stream_job_matches_a_direct_session(self, tmp_path):
        graph, graph_path, updates_path = self.setup_paths(tmp_path)
        spec = self.make_spec(graph_path, updates_path)
        client, record = self.drain(str(tmp_path / "svc"), spec)
        assert record.state == "done"
        direct = StreamSession(
            graph, updates_path, batch_size=100, compact_threshold=400
        ).run()
        result = client.result(record.job_id)
        assert result.algorithm == "stream"
        assert result.independent_set == frozenset(direct["independent_set"])
        assert result.extras["batches_applied"] == direct["batches_applied"]

    def test_crash_drilled_stream_job_resumes_to_the_same_set(self, tmp_path):
        graph, graph_path, updates_path = self.setup_paths(tmp_path)
        spec = self.make_spec(graph_path, updates_path)
        client, record = self.drain(
            str(tmp_path / "svc"), spec, interrupt_after=2
        )
        # The worker died after every second batch checkpoint and was
        # requeued until the stream drained; the set is still the one an
        # uninterrupted session produces.
        assert record.state == "done"
        assert record.attempts > 1
        direct = StreamSession(
            graph, updates_path, batch_size=100, compact_threshold=400
        ).run()
        result = client.result(record.job_id)
        assert result.independent_set == frozenset(direct["independent_set"])

    def test_resubmitted_stream_job_is_a_cache_hit(self, tmp_path):
        _, graph_path, updates_path = self.setup_paths(tmp_path)
        spec = self.make_spec(graph_path, updates_path)
        root = str(tmp_path / "svc")
        client, record = self.drain(root, spec)
        assert record.state == "done" and not record.cache_hit
        _, duplicate = self.drain(root, spec)
        assert duplicate.state == "done"
        assert duplicate.cache_hit
        assert duplicate.attempts == 0
        assert client.result(duplicate.job_id) == client.result(record.job_id)
