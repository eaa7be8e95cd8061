"""Solver facade: the paper's pipelines over the stage-based engine.

Section 7 evaluates compositions of the basic passes, e.g. "One-k-swap
(after Greedy)" and "Two-k-swap (after Baseline)".  The facade makes those
pipelines one call:

>>> from repro import SemiExternalMISSolver
>>> from repro.graphs import erdos_renyi_gnm
>>> graph = erdos_renyi_gnm(200, 400, seed=1)
>>> result = SemiExternalMISSolver(pipeline="two_k_swap").solve(graph)
>>> result.size >= SemiExternalMISSolver(pipeline="greedy").solve(graph).size
True

:data:`PIPELINES` is the table of declarative
:class:`~repro.pipeline.spec.PipelineSpec` objects the facade accepts by
name; execution is delegated to
:class:`~repro.pipeline.engine.PipelineEngine`, which also provides the
per-stage telemetry in ``result.extras["stages"]`` and — through the
``checkpoint_path`` / ``resume`` knobs — restartable runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.result import MISResult
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.pipeline.context import ExecutionContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.spec import BUILTIN_PIPELINES
from repro.storage.memory import MemoryModel
from repro.storage.scan import AdjacencyScanSource

__all__ = ["SemiExternalMISSolver", "solve_mis", "PIPELINES"]

#: Pipelines evaluated in the paper (plus reduce-then-solve), as
#: declarative stage specs.  Iterating/membership behaves as the previous
#: name → pass-tuple table did; the stage composition of an entry is
#: ``PIPELINES[name].stage_names()``.
PIPELINES = BUILTIN_PIPELINES


@dataclass
class SemiExternalMISSolver:
    """Configurable facade over the pipeline engine.

    Parameters
    ----------
    pipeline:
        One of :data:`PIPELINES` (e.g. ``"two_k_swap"`` = greedy followed
        by the two-k-swap pass).
    max_rounds:
        Optional early-stop bound forwarded to the swap passes (Table 8's
        early-stop experiment uses 1–3).
    order:
        Scan order used when an in-memory graph is passed (``"degree"``
        for the paper's pre-sorted layout, ``"id"`` for the Baseline).
    validate:
        When true, the result is checked to be an independent set before
        it is returned (cheap insurance for library users; benchmarks
        switch it off).
    backend:
        Kernel backend executing the passes: ``"python"``, ``"numpy"`` or
        ``None``/``"auto"`` for the process default (numpy when
        available).  The numpy backend runs file-backed sources
        record-major: text inputs spill once to a private ``SEXTCSR1``
        memmap; the spill is not charged to ``IOStats``.  Only custom
        streaming sources fall back to the python backend.
    checkpoint_path:
        When set, the engine writes a versioned checkpoint file after
        every completed stage and after every swap round, making the run
        restartable.
    resume:
        Restore a killed run from ``checkpoint_path`` instead of starting
        over; the resumed run reproduces the uninterrupted result —
        independent set, round telemetry and cumulative I/O counters —
        bit-identically.
    checkpoint_every_seconds:
        Throttle round checkpoints to at most one per this many seconds
        (``None`` = checkpoint every round); stage-boundary checkpoints
        are always written.
    obs:
        Optional :class:`~repro.obs.Observability` bundle; when set, the
        engine records stage/round metrics, kernel passes and (with a
        tracer) Chrome trace spans into it.  ``None`` runs with the
        no-op bundle.
    """

    pipeline: str = "two_k_swap"
    max_rounds: Optional[int] = None
    order: Union[str, Sequence[int]] = "degree"
    validate: bool = False
    memory_model: MemoryModel = MemoryModel()
    backend: Optional[str] = None
    checkpoint_path: Optional[str] = None
    resume: bool = False
    checkpoint_every_seconds: Optional[float] = None
    obs: Optional[object] = None

    def solve(self, graph_or_source: Union[Graph, AdjacencyScanSource]) -> MISResult:
        """Run the configured pipeline and return the final result."""

        if self.pipeline not in PIPELINES:
            raise SolverError(
                f"unknown pipeline {self.pipeline!r}; expected one of {sorted(PIPELINES)}"
            )
        spec = PIPELINES[self.pipeline]

        # The baseline pipeline scans in raw id order; everything else uses
        # the configured (default: degree) order.
        order = self.order
        if spec.stages[0].stage == "baseline" and order == "degree":
            order = "id"

        ctx = ExecutionContext.create(
            graph_or_source,
            backend=self.backend,
            memory_model=self.memory_model,
            order=order,
        )
        engine = PipelineEngine(
            spec,
            max_rounds=self.max_rounds,
            validate=self.validate,
            checkpoint_path=self.checkpoint_path,
            resume=self.resume,
            checkpoint_every_seconds=self.checkpoint_every_seconds,
            obs=self.obs,
        )
        return engine.run(ctx)


def solve_mis(
    graph_or_source: Union[Graph, AdjacencyScanSource],
    pipeline: str = "two_k_swap",
    max_rounds: Optional[int] = None,
    order: Union[str, Sequence[int]] = "degree",
    validate: bool = False,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every_seconds: Optional[float] = None,
    obs=None,
) -> MISResult:
    """One-shot convenience wrapper around :class:`SemiExternalMISSolver`."""

    solver = SemiExternalMISSolver(
        pipeline=pipeline,
        max_rounds=max_rounds,
        order=order,
        validate=validate,
        backend=backend,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint_every_seconds=checkpoint_every_seconds,
        obs=obs,
    )
    return solver.solve(graph_or_source)
