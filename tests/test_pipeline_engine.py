"""Tests of the stage-based pipeline engine, specs and execution context.

The parity classes are the acceptance gate of the engine refactor: every
facade pipeline must produce the bit-identical independent set, per-round
telemetry and I/O counters of the hand-chained passes it replaced.
"""

from __future__ import annotations

import json

import pytest

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.solver import PIPELINES, solve_mis
from repro.core.two_k import two_k_swap
from repro.baselines.dynamic_update import dynamic_update_mis
from repro.baselines.local_search import local_search_mis
from repro.errors import PipelineSpecError
from repro.graphs.generators import erdos_renyi_gnm, star_graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.core.kernels import BACKEND_ENV_VAR, get_backend
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine, decode_result, encode_result
from repro.pipeline.spec import BUILTIN_PIPELINES, PipelineSpec, RunSpec, StageSpec
from repro.pipeline.stages import available_stages, get_stage
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.io_stats import IOStats
from repro.validation.checks import is_independent_set, is_maximal_independent_set

BACKENDS = ("python", "numpy")


# ----------------------------------------------------------------------
# Declarative specs
# ----------------------------------------------------------------------
class TestSpecs:
    def test_pipeline_spec_round_trip(self):
        spec = PipelineSpec(
            name="custom",
            stages=(
                StageSpec("greedy"),
                StageSpec("two_k_swap", {"max_rounds": 2, "max_pairs_per_key": 4}),
            ),
        )
        again = PipelineSpec.from_json(spec.to_json())
        assert again == spec
        assert again.stage_names() == ("greedy", "two_k_swap")

    def test_stage_shorthand_string(self):
        spec = PipelineSpec.from_dict({"name": "p", "stages": ["greedy", "one_k_swap"]})
        assert spec.stage_names() == ("greedy", "one_k_swap")

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "must be a JSON object"),
            ({"stages": ["greedy"]}, "non-empty 'name'"),
            ({"name": "p"}, "non-empty 'stages'"),
            ({"name": "p", "stages": []}, "non-empty 'stages'"),
            ({"name": "p", "stages": [{}]}, "non-empty 'stage' name"),
            ({"name": "p", "stages": [{"stage": "greedy", "bogus": 1}]}, "unknown keys"),
            ({"name": "p", "stages": ["greedy"], "extra": 1}, "unknown keys"),
        ],
    )
    def test_malformed_pipeline_specs(self, payload, message):
        with pytest.raises(PipelineSpecError, match=message):
            PipelineSpec.from_dict(payload)

    def test_builtin_table_matches_paper_compositions(self):
        assert PIPELINES is BUILTIN_PIPELINES
        assert PIPELINES["one_k_swap"].stage_names() == ("greedy", "one_k_swap")
        assert PIPELINES["two_k_swap_after_baseline"].stage_names() == (
            "baseline",
            "two_k_swap",
        )
        assert PIPELINES["reduce_two_k_swap"].stage_names() == (
            "reduce",
            "greedy",
            "two_k_swap",
        )
        for name, spec in PIPELINES.items():
            assert spec.name == name
            for stage in spec.stage_names():
                assert stage in available_stages()

    def test_unknown_stage_rejected_at_engine_construction(self):
        spec = PipelineSpec.chain("bad", "greedy", "three_k_swap")
        with pytest.raises(PipelineSpecError, match="unknown stage 'three_k_swap'"):
            PipelineEngine(spec)

    def test_unknown_stage_option_rejected(self):
        spec = PipelineSpec(
            name="bad", stages=(StageSpec("greedy", {"max_rounds": 3}),)
        )
        with pytest.raises(PipelineSpecError, match="does not accept option"):
            PipelineEngine(spec)

    def test_run_spec_round_trip(self, tmp_path):
        config = {
            "pipeline": {
                "name": "custom",
                "stages": [{"stage": "greedy"}, {"stage": "one_k_swap"}],
            },
            "input": "graph.adj",
            "backend": "numpy",
            "max_rounds": 3,
            "checkpoint": "ck.json",
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        run_spec = RunSpec.from_path(str(path))
        assert run_spec.input == "graph.adj"
        assert run_spec.backend == "numpy"
        assert run_spec.max_rounds == 3
        assert run_spec.checkpoint == "ck.json"
        assert run_spec.pipeline.stage_names() == ("greedy", "one_k_swap")

    def test_run_spec_named_pipeline(self):
        run_spec = RunSpec.from_dict({"pipeline": "two_k_swap", "input": "g.adj"})
        assert run_spec.pipeline is BUILTIN_PIPELINES["two_k_swap"]

    def test_run_spec_folds_swap_knobs_into_two_k_stage(self):
        run_spec = RunSpec.from_dict(
            {
                "pipeline": "two_k_swap",
                "input": "g.adj",
                "max_pairs_per_key": 4,
                "max_partner_checks": 16,
            }
        )
        (greedy, two_k) = run_spec.pipeline.stages
        assert greedy.options == {}
        assert two_k.options == {"max_pairs_per_key": 4, "max_partner_checks": 16}
        # The folded knobs are part of the serialized spec (and hence any
        # cache key derived from it).
        encoded = run_spec.to_dict()["pipeline"]["stages"][1]
        assert encoded["options"] == {
            "max_pairs_per_key": 4,
            "max_partner_checks": 16,
        }

    def test_explicit_stage_options_beat_run_spec_knobs(self):
        run_spec = RunSpec.from_dict(
            {
                "pipeline": {
                    "name": "pinned",
                    "stages": [
                        {"stage": "greedy"},
                        {"stage": "two_k_swap", "options": {"max_pairs_per_key": 2}},
                    ],
                },
                "input": "g.adj",
                "max_pairs_per_key": 64,
                "max_partner_checks": 32,
            }
        )
        two_k = run_spec.pipeline.stages[1]
        assert two_k.options["max_pairs_per_key"] == 2  # the stage pins it
        assert two_k.options["max_partner_checks"] == 32  # the sweep fills it

    def test_swap_knobs_without_two_k_stage_rejected(self):
        with pytest.raises(PipelineSpecError, match="no 'two_k_swap' stage"):
            RunSpec.from_dict(
                {"pipeline": "greedy", "input": "g.adj", "max_pairs_per_key": 4}
            )

    @pytest.mark.parametrize("value", [0, -3, "many", 1.5])
    def test_swap_knobs_validated(self, value):
        with pytest.raises(PipelineSpecError):
            RunSpec.from_dict(
                {
                    "pipeline": "two_k_swap",
                    "input": "g.adj",
                    "max_partner_checks": value,
                }
            )

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"input": "g.adj"}, "missing 'pipeline'"),
            ({"pipeline": "nope", "input": "g.adj"}, "unknown named pipeline"),
            ({"pipeline": "greedy"}, "missing 'input'"),
            ({"pipeline": "greedy", "input": "g", "max_rounds": "x"}, "integer"),
            ({"pipeline": "greedy", "input": "g", "surprise": 1}, "unknown keys"),
        ],
    )
    def test_malformed_run_specs(self, payload, message):
        with pytest.raises(PipelineSpecError, match=message):
            RunSpec.from_dict(payload)

    def test_run_spec_unreadable_file(self, tmp_path):
        with pytest.raises(PipelineSpecError, match="cannot read run spec"):
            RunSpec.from_path(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
class TestExecutionContext:
    def test_resolve_kernel_uses_get_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        graph = erdos_renyi_gnm(20, 40, seed=1)
        for request in (None, "auto", ""):
            ctx = ExecutionContext.create(graph, backend=request)
            assert ctx.resolve_kernel() is get_backend(request, ctx.source)
            assert ctx.resolve_kernel().name == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert ExecutionContext.create(graph).resolve_kernel().name == "python"
        ctx = ExecutionContext.create(graph, backend="numpy")
        assert ctx.resolve_kernel().name == "numpy"

    def test_materialize_graph_caches_reader_graphs(self):
        graph = erdos_renyi_gnm(50, 120, seed=1)
        reader = AdjacencyFileReader(write_adjacency_file(graph, backing=None))
        ctx = ExecutionContext.create(reader)
        first = ctx.materialize_graph()
        assert ctx.materialize_graph() is first
        assert first == graph

    def test_in_memory_graph_is_its_own_materialisation(self):
        graph = erdos_renyi_gnm(30, 60, seed=2)
        ctx = ExecutionContext.create(graph)
        assert ctx.materialize_graph() is graph
        assert ctx.original_graph is graph


# ----------------------------------------------------------------------
# Facade parity: engine output == hand-chained passes (the pre-refactor
# orchestration), per backend.
# ----------------------------------------------------------------------
def _chained_reference(graph, pipeline, backend, max_rounds=None):
    """The exact pass chaining the solver facade performed before the engine."""

    stats = IOStats()
    from repro.storage.scan import InMemoryAdjacencyScan

    order = "id" if pipeline.startswith("baseline") or "after_baseline" in pipeline else "degree"
    source = InMemoryAdjacencyScan(graph, order=order, stats=stats)
    first = greedy_mis(source, backend=backend)
    names = PIPELINES[pipeline].stage_names()
    result = first
    for name in names[1:]:
        runner = one_k_swap if name == "one_k_swap" else two_k_swap
        result = runner(source, initial=result, max_rounds=max_rounds, backend=backend)
    return result, stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "pipeline",
    [
        "greedy",
        "baseline",
        "one_k_swap",
        "two_k_swap",
        "one_k_swap_after_baseline",
        "two_k_swap_after_baseline",
    ],
)
class TestFacadeParity:
    def test_sets_rounds_and_io_match_hand_chaining(self, pipeline, backend):
        graph = plrg_graph_with_vertex_count(400, 2.0, seed=11)
        engine_result = solve_mis(graph, pipeline=pipeline, backend=backend)
        reference, stats = _chained_reference(graph, pipeline, backend)
        assert engine_result.independent_set == reference.independent_set
        assert engine_result.rounds == reference.rounds
        assert engine_result.io.as_dict() == stats.as_dict()
        assert engine_result.initial_size == reference.initial_size
        assert engine_result.memory_bytes == reference.memory_bytes

    def test_stage_reports_cover_every_stage(self, pipeline, backend):
        graph = erdos_renyi_gnm(150, 450, seed=4)
        result = solve_mis(graph, pipeline=pipeline, backend=backend)
        stages = result.extras["stages"]
        assert [entry["stage"] for entry in stages] == list(
            PIPELINES[pipeline].stage_names()
        )
        # Per-stage I/O deltas add up to the run's cumulative counters.
        assert sum(s["io"]["sequential_scans"] for s in stages) == (
            result.io.sequential_scans
        )
        assert all(s["elapsed_seconds"] >= 0 for s in stages)
        assert stages[-1]["size"] == result.size


class TestBackendParityThroughEngine:
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_backends_agree_on_every_builtin_pipeline(self, pipeline):
        graph = plrg_graph_with_vertex_count(250, 2.1, seed=9)
        results = {
            backend: solve_mis(graph, pipeline=pipeline, backend=backend)
            for backend in BACKENDS
        }
        assert (
            results["python"].independent_set == results["numpy"].independent_set
        )
        assert results["python"].rounds == results["numpy"].rounds


# ----------------------------------------------------------------------
# Reduce as a composable stage.
# ----------------------------------------------------------------------
class TestReducePipeline:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reduce_pipeline_solves_original_graph(self, backend):
        graph = plrg_graph_with_vertex_count(300, 2.3, seed=5)
        result = solve_mis(graph, pipeline="reduce_two_k_swap", backend=backend)
        assert is_independent_set(graph, result.independent_set)
        assert is_maximal_independent_set(graph, result.independent_set)
        greedy_size = solve_mis(graph, pipeline="greedy", backend=backend).size
        assert result.size >= greedy_size
        stages = result.extras["stages"]
        assert [s["stage"] for s in stages] == ["reduce", "greedy", "two_k_swap"]
        reduce_extras = stages[0]["extras"]
        assert reduce_extras["kernel_vertices"] <= graph.num_vertices
        assert reduce_extras["rule_applications"] >= 0
        # The artifact never leaks into reports or result extras.
        assert "__artifact__" not in reduce_extras
        assert "__artifact__" not in result.extras

    def test_reduce_stage_reports_its_modeled_memory(self):
        from repro.reductions.kernel import reduce_graph
        from repro.storage.memory import MemoryModel

        graph = erdos_renyi_gnm(300, 420, seed=2)
        reduced = reduce_graph(graph)
        assert reduced.overlay_edges > 0  # folds fired
        result = solve_mis(graph, pipeline="reduce_two_k_swap")
        report = result.extras["stages"][0]
        assert report["stage"] == "reduce"
        assert report["memory_bytes"] == MemoryModel().reduce_bytes(
            graph.num_vertices, graph.num_edges, reduced.overlay_edges
        )

    def test_reduce_on_star_graph_solves_exactly(self):
        graph = star_graph(12)
        result = solve_mis(graph, pipeline="reduce_two_k_swap")
        assert result.size == 12  # all leaves

    def test_reduce_only_pipeline_yields_forced_solution(self):
        graph = star_graph(6)
        spec = PipelineSpec.chain("reduce_only", "reduce")
        ctx = ExecutionContext.create(graph)
        result = PipelineEngine(spec).run(ctx)
        # The star is fully reducible: the forced picks alone solve it.
        assert is_independent_set(graph, result.independent_set)
        assert result.size == 6

    def test_comparator_stage_after_reduce_runs_on_kernel(self):
        graph = plrg_graph_with_vertex_count(200, 2.2, seed=3)
        spec = PipelineSpec.chain("reduce_ls", "reduce", "local_search")
        ctx = ExecutionContext.create(graph)
        result = PipelineEngine(spec).run(ctx)
        assert is_independent_set(graph, result.independent_set)


# ----------------------------------------------------------------------
# Comparator stages: identical to the direct baseline calls.
# ----------------------------------------------------------------------
class TestComparatorStages:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_local_search_stage_matches_direct_call(self, backend):
        graph = erdos_renyi_gnm(200, 700, seed=6)
        spec = PipelineSpec.chain("local_search", "local_search")
        ctx = ExecutionContext.create(graph, backend=backend)
        engine_result = PipelineEngine(spec).run(ctx)
        direct = local_search_mis(graph, backend=backend)
        assert engine_result.independent_set == direct.independent_set
        assert engine_result.extras["iterations"] == direct.extras["iterations"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dynamic_update_stage_matches_direct_call(self, backend):
        graph = erdos_renyi_gnm(200, 700, seed=6)
        spec = PipelineSpec.chain("dynamic_update", "dynamic_update")
        ctx = ExecutionContext.create(graph, backend=backend)
        engine_result = PipelineEngine(spec).run(ctx)
        direct = dynamic_update_mis(graph, backend=backend)
        assert engine_result.independent_set == direct.independent_set


# ----------------------------------------------------------------------
# Result codec used by the checkpoints.
# ----------------------------------------------------------------------
class TestResultCodec:
    def test_encode_decode_round_trip(self):
        graph = erdos_renyi_gnm(80, 250, seed=8)
        result = two_k_swap(graph, initial=greedy_mis(graph))
        again = decode_result(json.loads(json.dumps(encode_result(result))))
        assert again.independent_set == result.independent_set
        assert again.rounds == result.rounds
        assert again.io.as_dict() == result.io.as_dict()
        assert again.extras == result.extras
        assert again.initial_size == result.initial_size

    def test_get_stage_error_lists_available(self):
        with pytest.raises(PipelineSpecError, match="available:"):
            get_stage("warp_drive")


class TestSharedContextMaterialisation:
    def test_file_read_happens_once_across_runs_with_reduce(self):
        """The materialisation memo survives reduce's source replacement."""

        graph = erdos_renyi_gnm(120, 300, seed=31)
        reader = AdjacencyFileReader(write_adjacency_file(graph, backing=None))
        ctx = ExecutionContext.create(reader)
        PipelineEngine(PIPELINES["reduce_two_k_swap"]).run(ctx)
        scans_after_reduce_run = ctx.stats.sequential_scans
        PipelineEngine(PipelineSpec.chain("local_search", "local_search")).run(ctx)
        # local_search materialises the ORIGINAL file graph; the memo from
        # the reduce run's materialisation serves it without a new scan.
        assert ctx.stats.sequential_scans == scans_after_reduce_run
        assert ctx.source is reader  # runs leave the context as found
