"""Declarative pipeline and run specifications.

A :class:`PipelineSpec` names an ordered list of built-in stages with
per-stage options — the declarative form of the paper's compositions
("One-k-swap (after Greedy)" is ``greedy → one_k_swap``), extended with
the reduction and comparator stages so ``reduce → greedy → two_k_swap``
is expressible the same way.  Specs serialize to/from JSON, which is also
how checkpoints pin the pipeline they belong to.

A :class:`RunSpec` is the on-disk configuration consumed by
``repro-mis run --config run.json``: a pipeline (inline or referencing a
named entry of :data:`BUILTIN_PIPELINES`), the input file, and the
execution knobs (backend, max rounds, memory limit, checkpointing).

All parse errors raise :class:`~repro.errors.PipelineSpecError` with a
message naming the offending field.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import PipelineSpecError

__all__ = [
    "BUILTIN_PIPELINES",
    "PipelineSpec",
    "RunSpec",
    "StageSpec",
    "iter_run_specs",
]


@dataclass(frozen=True)
class StageSpec:
    """One stage invocation: the stage name plus its options."""

    stage: str
    options: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {"stage": self.stage}
        if self.options:
            entry["options"] = dict(self.options)
        return entry

    @classmethod
    def from_dict(cls, entry, where: str = "stage") -> "StageSpec":
        if isinstance(entry, str):
            return cls(stage=entry)
        if not isinstance(entry, dict):
            raise PipelineSpecError(
                f"{where} must be a stage name or an object with a 'stage' key, "
                f"got {type(entry).__name__}"
            )
        name = entry.get("stage")
        if not isinstance(name, str) or not name:
            raise PipelineSpecError(f"{where} is missing a non-empty 'stage' name")
        options = entry.get("options", {})
        if not isinstance(options, dict):
            raise PipelineSpecError(
                f"{where} options must be an object, got {type(options).__name__}"
            )
        unknown = set(entry) - {"stage", "options"}
        if unknown:
            raise PipelineSpecError(
                f"{where} has unknown keys: {', '.join(sorted(unknown))}"
            )
        return cls(stage=name, options=dict(options))


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered composition of stages under one pipeline name."""

    name: str
    stages: Tuple[StageSpec, ...]

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.stage for stage in self.stages)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload) -> "PipelineSpec":
        if not isinstance(payload, dict):
            raise PipelineSpecError(
                f"pipeline spec must be a JSON object, got {type(payload).__name__}"
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise PipelineSpecError("pipeline spec is missing a non-empty 'name'")
        raw_stages = payload.get("stages")
        if not isinstance(raw_stages, list) or not raw_stages:
            raise PipelineSpecError(
                f"pipeline {name!r} must declare a non-empty 'stages' list"
            )
        stages = tuple(
            StageSpec.from_dict(entry, where=f"pipeline {name!r} stage {index}")
            for index, entry in enumerate(raw_stages)
        )
        unknown = set(payload) - {"name", "stages"}
        if unknown:
            raise PipelineSpecError(
                f"pipeline {name!r} has unknown keys: {', '.join(sorted(unknown))}"
            )
        return cls(name=name, stages=stages)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineSpecError(f"pipeline spec is not valid JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def chain(cls, name: str, *stage_names: str) -> "PipelineSpec":
        """Convenience constructor for option-free stage chains."""

        return cls(name=name, stages=tuple(StageSpec(s) for s in stage_names))


#: The pipeline compositions evaluated in the paper (Tables 5–8), plus the
#: KaMIS-style reduce-then-solve composition, as declarative specs.  The
#: solver facade re-exports this table as ``repro.core.solver.PIPELINES``.
BUILTIN_PIPELINES: Dict[str, PipelineSpec] = {
    "greedy": PipelineSpec.chain("greedy", "greedy"),
    "baseline": PipelineSpec.chain("baseline", "baseline"),
    "one_k_swap": PipelineSpec.chain("one_k_swap", "greedy", "one_k_swap"),
    "two_k_swap": PipelineSpec.chain("two_k_swap", "greedy", "two_k_swap"),
    "one_k_swap_after_baseline": PipelineSpec.chain(
        "one_k_swap_after_baseline", "baseline", "one_k_swap"
    ),
    "two_k_swap_after_baseline": PipelineSpec.chain(
        "two_k_swap_after_baseline", "baseline", "two_k_swap"
    ),
    "reduce_two_k_swap": PipelineSpec.chain(
        "reduce_two_k_swap", "reduce", "greedy", "two_k_swap"
    ),
}


def _optional_int(payload, key: str, where: str) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise PipelineSpecError(f"{where} {key!r} must be an integer or null")
    return value


def _fold_swap_knobs(
    pipeline: PipelineSpec, knobs: Mapping[str, int]
) -> PipelineSpec:
    """Fold run-spec-level Two-k-swap knobs into the ``two_k_swap`` stages.

    Explicit per-stage options win over the run-spec-level values, so an
    inline pipeline can still pin one stage while the sweep varies the
    rest.  A run spec that sets a knob but runs no ``two_k_swap`` stage is
    a configuration error — the knob would silently do nothing.
    """

    if not any(stage.stage == "two_k_swap" for stage in pipeline.stages):
        raise PipelineSpecError(
            f"run spec sets {', '.join(sorted(knobs))} but pipeline "
            f"{pipeline.name!r} has no 'two_k_swap' stage to apply them to"
        )
    stages = tuple(
        StageSpec(stage.stage, {**knobs, **stage.options})
        if stage.stage == "two_k_swap"
        else stage
        for stage in pipeline.stages
    )
    return PipelineSpec(name=pipeline.name, stages=stages)


@dataclass(frozen=True)
class RunSpec:
    """One ``repro-mis run`` scenario: pipeline + input + execution knobs."""

    pipeline: PipelineSpec
    input: str
    backend: Optional[str] = None
    max_rounds: Optional[int] = None
    memory_limit_bytes: Optional[int] = None
    checkpoint: Optional[str] = None
    resume: bool = False
    checkpoint_every_seconds: Optional[float] = None
    #: Streaming runs: an edge-update file turns the run into a stream
    #: session (the maintained dynamic MIS consumes the updates in
    #: ``batch_size`` batches, compacting its overlay at
    #: ``compact_threshold``).
    updates: Optional[str] = None
    batch_size: Optional[int] = None
    compact_threshold: Optional[int] = None

    @classmethod
    def from_dict(cls, payload) -> "RunSpec":
        if not isinstance(payload, dict):
            raise PipelineSpecError(
                f"run spec must be a JSON object, got {type(payload).__name__}"
            )
        raw_pipeline = payload.get("pipeline")
        if isinstance(raw_pipeline, str):
            if raw_pipeline not in BUILTIN_PIPELINES:
                raise PipelineSpecError(
                    f"unknown named pipeline {raw_pipeline!r}; available: "
                    f"{', '.join(sorted(BUILTIN_PIPELINES))}"
                )
            pipeline = BUILTIN_PIPELINES[raw_pipeline]
        elif raw_pipeline is not None:
            pipeline = PipelineSpec.from_dict(raw_pipeline)
        else:
            raise PipelineSpecError(
                "run spec is missing 'pipeline' (a named pipeline or an inline spec)"
            )
        input_path = payload.get("input")
        if not isinstance(input_path, str) or not input_path:
            raise PipelineSpecError(
                "run spec is missing 'input' (path of a binary adjacency file)"
            )
        backend = payload.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise PipelineSpecError("run spec 'backend' must be a string or null")
        if isinstance(backend, str) and backend not in ("", "auto"):
            # Imported lazily: importing the kernels package compiles the
            # numpy backend, and spec parsing must stay importable on its own.
            from repro.core.kernels import available_backends

            if backend not in available_backends():
                raise PipelineSpecError(
                    f"run spec 'backend' {backend!r} is not a registered kernel "
                    f"backend; available: {', '.join(available_backends())} "
                    f"(or 'auto')"
                )
        checkpoint = payload.get("checkpoint")
        if checkpoint is not None and not isinstance(checkpoint, str):
            raise PipelineSpecError("run spec 'checkpoint' must be a path or null")
        resume = payload.get("resume", False)
        if not isinstance(resume, bool):
            raise PipelineSpecError("run spec 'resume' must be a boolean")
        every = payload.get("checkpoint_every_seconds")
        if every is not None:
            if isinstance(every, bool) or not isinstance(every, (int, float)):
                raise PipelineSpecError(
                    "run spec 'checkpoint_every_seconds' must be a number or null"
                )
            if every <= 0:
                raise PipelineSpecError(
                    "run spec 'checkpoint_every_seconds' must be positive"
                )
            every = float(every)
        # Legacy key: specs persisted by older releases may carry an
        # intra-job worker count.  Results never depended on it, so it is
        # validated as before and then dropped.
        workers = payload.get("workers", 1)
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise PipelineSpecError("run spec 'workers' must be an integer")
        if workers < 1:
            raise PipelineSpecError("run spec 'workers' must be >= 1")
        updates = payload.get("updates")
        if updates is not None and not isinstance(updates, str):
            raise PipelineSpecError("run spec 'updates' must be a path or null")
        batch_size = _optional_int(payload, "batch_size", "run spec")
        if batch_size is not None and batch_size < 1:
            raise PipelineSpecError("run spec 'batch_size' must be >= 1")
        compact_threshold = _optional_int(payload, "compact_threshold", "run spec")
        if compact_threshold is not None and compact_threshold < 1:
            raise PipelineSpecError("run spec 'compact_threshold' must be >= 1")
        if updates is None and (
            batch_size is not None or compact_threshold is not None
        ):
            raise PipelineSpecError(
                "run spec 'batch_size'/'compact_threshold' require 'updates'"
            )
        # Sweep knobs of the Two-k-swap heuristic (paper Section 5.2): the
        # run-spec level is the convenient place to sweep them, but the
        # stage options are where they act — fold them in here so the
        # folded pipeline (and hence the service's cache key) records the
        # values the run actually used.
        swap_knobs: Dict[str, int] = {}
        for key in ("max_pairs_per_key", "max_partner_checks"):
            value = _optional_int(payload, key, "run spec")
            if value is None:
                continue
            if value < 1:
                raise PipelineSpecError(f"run spec {key!r} must be >= 1")
            swap_knobs[key] = value
        if swap_knobs:
            pipeline = _fold_swap_knobs(pipeline, swap_knobs)
        unknown = set(payload) - {
            "pipeline",
            "input",
            "backend",
            "max_rounds",
            "memory_limit_bytes",
            "checkpoint",
            "resume",
            "checkpoint_every_seconds",
            "max_pairs_per_key",
            "max_partner_checks",
            "workers",
            "updates",
            "batch_size",
            "compact_threshold",
        }
        if unknown:
            raise PipelineSpecError(
                f"run spec has unknown keys: {', '.join(sorted(unknown))}"
            )
        return cls(
            pipeline=pipeline,
            input=input_path,
            backend=backend,
            max_rounds=_optional_int(payload, "max_rounds", "run spec"),
            memory_limit_bytes=_optional_int(
                payload, "memory_limit_bytes", "run spec"
            ),
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_every_seconds=every,
            updates=updates,
            batch_size=batch_size,
            compact_threshold=compact_threshold,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineSpecError(f"run spec is not valid JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def from_path(cls, path: str) -> "RunSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise PipelineSpecError(f"cannot read run spec {path!r}: {exc}")
        return cls.from_json(text)

    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline.to_dict(),
            "input": self.input,
            "backend": self.backend,
            "max_rounds": self.max_rounds,
            "memory_limit_bytes": self.memory_limit_bytes,
            "checkpoint": self.checkpoint,
            "resume": self.resume,
            "checkpoint_every_seconds": self.checkpoint_every_seconds,
            "updates": self.updates,
            "batch_size": self.batch_size,
            "compact_threshold": self.compact_threshold,
        }


def iter_run_specs(config_dir: str) -> List[Tuple[str, RunSpec]]:
    """Parse every ``*.json`` run spec in a directory, in sorted name order.

    This is the scenario-sweep loader shared by ``repro-mis run
    --config-dir`` and the service's batch-submit path.  A directory
    without a single spec, or any malformed spec file, raises
    :class:`~repro.errors.PipelineSpecError` naming the offending path.
    """

    try:
        names = sorted(
            name for name in os.listdir(config_dir) if name.endswith(".json")
        )
    except OSError as exc:
        raise PipelineSpecError(f"cannot read config dir {config_dir!r}: {exc}")
    if not names:
        raise PipelineSpecError(
            f"config dir {config_dir!r} contains no *.json run specs"
        )
    specs: List[Tuple[str, RunSpec]] = []
    for name in names:
        path = os.path.join(config_dir, name)
        try:
            specs.append((path, RunSpec.from_path(path)))
        except PipelineSpecError as exc:
            raise PipelineSpecError(f"{path}: {exc}") from None
    return specs
