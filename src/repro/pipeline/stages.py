"""The pipeline stages and the fixed table that names them.

A *stage* is one composable step of a pipeline: it receives the shared
:class:`~repro.pipeline.context.ExecutionContext` plus the previous
stage's :class:`~repro.core.result.MISResult` and returns its own result.
A fixed table maps the stage names used in declarative specs to stage
objects; the stages cover the paper's semi-external passes
(``baseline``, ``greedy``, ``one_k_swap``, ``two_k_swap``), the exact
kernelization (``reduce`` — promoted from a CLI-only command to a
composable stage, so ``reduce → greedy → two_k_swap`` is a first-class
pipeline) and the Table 5/6 in-memory comparators (``local_search``,
``dynamic_update``).

Swap stages are *resumable*: they forward the engine's per-round
checkpoint hook into the kernel round loops.  The ``reduce`` stage is
*source-transforming*: it swaps the context's active source for the
kernel graph and registers a finalizer that lifts the downstream solution
back to the original vertex ids.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.core.greedy import greedy_mis
from repro.core.one_k import one_k_swap
from repro.core.result import MISResult
from repro.core.two_k import two_k_swap
from repro.errors import PipelineSpecError
from repro.pipeline.context import ExecutionContext
from repro.storage.io_stats import IOStats
from repro.storage.scan import InMemoryAdjacencyScan

if TYPE_CHECKING:
    from repro.reductions.kernel import ReducedGraph

__all__ = [
    "Stage",
    "StageReport",
    "available_stages",
    "get_stage",
]

#: Key under which a source-transforming stage stashes its serialized
#: artifact in the result extras; the engine pops it into the checkpoint.
ARTIFACT_KEY = "__artifact__"


@dataclass(frozen=True)
class StageReport:
    """Telemetry of one executed stage (the ``extras["stages"]`` entries).

    ``io`` is the I/O delta accumulated while the stage ran (including
    any graph materialisation it triggered), ``memory_bytes`` the stage's
    modeled semi-external footprint.
    """

    stage: str
    index: int
    algorithm: str
    size: int
    rounds: int
    elapsed_seconds: float
    io: IOStats
    memory_bytes: int
    extras: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """JSON-serializable form (CLI output, checkpoints, artifacts)."""

        return {
            "stage": self.stage,
            "index": self.index,
            "algorithm": self.algorithm,
            "size": self.size,
            "rounds": self.rounds,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "io": self.io.as_dict(),
            "memory_bytes": self.memory_bytes,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_summary(cls, payload: Mapping[str, object]) -> "StageReport":
        return cls(
            stage=str(payload["stage"]),
            index=int(payload["index"]),
            algorithm=str(payload["algorithm"]),
            size=int(payload["size"]),
            rounds=int(payload["rounds"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            io=IOStats(**payload["io"]),
            memory_bytes=int(payload["memory_bytes"]),
            extras=dict(payload.get("extras", {})),
        )

    def record(self, registry) -> None:
        """Publish this report into a metrics registry.

        This is the canonical projection of stage telemetry onto metric
        series: the engine records live runs through it and the service
        ``metrics`` verb replays persisted job-record stages through the
        *same* method, so both views render identical series.
        """

        registry.observe(
            "repro_stage_seconds",
            self.elapsed_seconds,
            stage=self.stage,
            algorithm=self.algorithm,
        )
        registry.inc("repro_stage_runs_total", stage=self.stage)
        registry.inc("repro_stage_rounds_total", self.rounds, stage=self.stage)
        registry.set_gauge("repro_stage_size", self.size, stage=self.stage)
        registry.set_gauge(
            "repro_stage_memory_bytes", self.memory_bytes, stage=self.stage
        )
        for io_field, value in self.io.as_dict().items():
            registry.inc(
                "repro_stage_io_total", value, stage=self.stage, io=io_field
            )


class Stage(abc.ABC):
    """One composable pipeline step."""

    #: Table key and spec name of the stage.
    name: str = "abstract"

    #: Whether the stage supports per-round checkpoint/resume.
    resumable: bool = False

    #: Whether the stage replaces the context's active scan source (and
    #: therefore invalidates the previous result for its successors).
    transforms_source: bool = False

    #: Option keys accepted in declarative specs.
    option_keys: Tuple[str, ...] = ()

    def check_options(self, options: Mapping[str, object]) -> None:
        """Reject unknown spec options with a clear typed error."""

        unknown = set(options) - set(self.option_keys)
        if unknown:
            allowed = ", ".join(self.option_keys) if self.option_keys else "none"
            raise PipelineSpecError(
                f"stage {self.name!r} does not accept option(s) "
                f"{', '.join(sorted(unknown))} (allowed: {allowed})"
            )

    @abc.abstractmethod
    def run(
        self,
        ctx: ExecutionContext,
        previous: Optional[MISResult],
        options: Mapping[str, object],
        resume_state: Optional[dict] = None,
        on_round=None,
    ) -> MISResult:
        """Execute the stage and return its result."""

    def restore_artifact(self, ctx: ExecutionContext, artifact: dict) -> None:
        """Re-apply a completed source-transforming stage from its artifact.

        Only stages with ``transforms_source`` implement this; the engine
        calls it while replaying the completed prefix of a checkpoint so
        the context (active source, finalizers) matches the original run
        without re-reading the input.
        """

        raise NotImplementedError(f"stage {self.name!r} has no artifact to restore")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


# ----------------------------------------------------------------------
# Semi-external passes (Algorithms 1-4).
# ----------------------------------------------------------------------
class GreedyStage(Stage):
    """Algorithm 1: one sequential greedy scan of the active source."""

    name = "greedy"

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        return greedy_mis(
            ctx.source,
            memory_model=ctx.memory_model,
            backend=ctx.backend,
        )


class BaselineStage(GreedyStage):
    """The Section-7 Baseline: the greedy scan over the unsorted layout.

    The stage itself is the same single scan; the id-order layout comes
    from the context (the solver facade flips in-memory sources to id
    order when a pipeline starts with this stage, and file sources carry
    their own layout).
    """

    name = "baseline"

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        return super().run(ctx, previous, options).with_algorithm("baseline")


class OneKSwapStage(Stage):
    """Algorithm 2: 1↔k / 0↔1 swap rounds over the previous stage's set."""

    name = "one_k_swap"
    resumable = True
    option_keys = ("max_rounds",)

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        return one_k_swap(
            ctx.source,
            initial=previous,
            max_rounds=options.get("max_rounds"),
            memory_model=ctx.memory_model,
            backend=ctx.backend,
            resume_state=resume_state,
            on_round=on_round,
        )


class TwoKSwapStage(Stage):
    """Algorithms 3/4: 2↔k swap rounds over the previous stage's set."""

    name = "two_k_swap"
    resumable = True
    option_keys = ("max_rounds", "max_pairs_per_key", "max_partner_checks")

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        return two_k_swap(
            ctx.source,
            initial=previous,
            max_rounds=options.get("max_rounds"),
            memory_model=ctx.memory_model,
            max_pairs_per_key=options.get("max_pairs_per_key", 8),
            max_partner_checks=options.get("max_partner_checks", 64),
            backend=ctx.backend,
            resume_state=resume_state,
            on_round=on_round,
        )


# ----------------------------------------------------------------------
# Exact kernelization as a composable stage.
# ----------------------------------------------------------------------
class ReduceStage(Stage):
    """Exact reductions: shrink the active source to its kernel graph.

    Downstream stages solve the (usually much smaller) kernel; the
    registered finalizer lifts their solution back to the original vertex
    ids by unwinding the folds and adding the forced picks.  The kernel
    scan source shares the context's I/O counters, so cumulative
    accounting spans the whole composition.
    """

    name = "reduce"
    transforms_source = True

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        from repro.reductions.kernel import reduce_graph

        graph = ctx.materialize_graph()
        reduced = reduce_graph(graph)
        self._apply(ctx, reduced)
        extras: Dict[str, object] = {
            "kernel_vertices": float(reduced.kernel_size),
            "kernel_edges": float(reduced.kernel.num_edges),
            "forced_vertices": float(len(reduced.forced_tokens)),
            "folds": float(len(reduced.folds)),
            "isolated": float(reduced.stats.isolated),
            "pendant": float(reduced.stats.pendant),
            "triangle": float(reduced.stats.triangle),
            "rule_applications": float(reduced.stats.total),
        }
        if ctx.capture_artifacts:
            # The serialized kernel (every edge) is only worth building
            # when a checkpoint will embed it.
            extras[ARTIFACT_KEY] = reduced.to_payload()
        return MISResult(
            algorithm="reduce",
            members=(),
            rounds=(),
            io=IOStats(),
            memory_bytes=ctx.memory_model.reduce_bytes(
                graph.num_vertices, graph.num_edges, reduced.overlay_edges
            ),
            elapsed_seconds=0.0,
            initial_size=0,
            extras=extras,
        )

    def restore_artifact(self, ctx, artifact):
        from repro.reductions.kernel import ReducedGraph

        self._apply(ctx, ReducedGraph.from_payload(artifact))

    @staticmethod
    def _apply(ctx: ExecutionContext, reduced: ReducedGraph) -> None:
        order = ctx.order if isinstance(ctx.order, str) else "degree"
        ctx.replace_source(
            InMemoryAdjacencyScan(reduced.kernel, order=order, stats=ctx.stats)
        )
        ctx.add_finalizer(reduced.reconstruct)


# ----------------------------------------------------------------------
# In-memory comparators (Tables 5-6).
# ----------------------------------------------------------------------
class LocalSearchStage(Stage):
    """The in-memory (1,2)-swap local search comparator."""

    name = "local_search"
    option_keys = ("max_iterations",)

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        from repro.baselines.local_search import local_search_mis

        return local_search_mis(
            ctx.materialize_graph(),
            initial=previous,
            max_iterations=options.get("max_iterations", 100_000),
            memory_model=ctx.memory_model,
            memory_limit_bytes=ctx.memory_limit_bytes,
            backend=ctx.backend,
        )


class DynamicUpdateStage(Stage):
    """The in-memory DynamicUpdate (minimum-degree greedy) comparator."""

    name = "dynamic_update"

    def run(self, ctx, previous, options, resume_state=None, on_round=None):
        from repro.baselines.dynamic_update import dynamic_update_mis

        return dynamic_update_mis(
            ctx.materialize_graph(),
            memory_model=ctx.memory_model,
            memory_limit_bytes=ctx.memory_limit_bytes,
            backend=ctx.backend,
        )


#: Every stage, by the name specs use for it.
_STAGES: Dict[str, Stage] = {
    stage.name: stage
    for stage in (
        GreedyStage(),
        BaselineStage(),
        OneKSwapStage(),
        TwoKSwapStage(),
        ReduceStage(),
        LocalSearchStage(),
        DynamicUpdateStage(),
    )
}


def available_stages() -> Tuple[str, ...]:
    """Names of every stage, sorted."""

    return tuple(sorted(_STAGES))


def get_stage(name: str) -> Stage:
    """Return the stage named ``name``."""

    try:
        return _STAGES[name]
    except KeyError:
        raise PipelineSpecError(
            f"unknown stage {name!r}; available: {', '.join(available_stages())}"
        ) from None
