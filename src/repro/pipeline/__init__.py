"""Stage-based pipeline engine.

The execution spine of the system: declarative pipeline specs
(:mod:`repro.pipeline.spec`) run as compositions of the built-in stages
(:mod:`repro.pipeline.stages`) over a shared execution context
(:mod:`repro.pipeline.context`) driven by the engine
(:mod:`repro.pipeline.engine`), which also provides versioned
checkpoint/resume for long semi-external runs.  The solver facade, the
CLI commands and the benchmark harness are all thin layers over this
package.  :mod:`repro.pipeline.stream` adds streaming sessions that keep
a dynamic MIS valid over edge-update files with the same
checkpoint/resume guarantees.

The names below load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.pipeline.context": ("ExecutionContext",),
    "repro.pipeline.engine": ("PipelineEngine",),
    "repro.pipeline.spec": (
        "BUILTIN_PIPELINES",
        "KERNEL_BACKENDS",
        "PipelineSpec",
        "RunSpec",
        "StageSpec",
        "add_execution_arguments",
    ),
    "repro.pipeline.stages": (
        "Stage",
        "StageReport",
        "available_stages",
        "get_stage",
    ),
    "repro.pipeline.stream": ("BatchReport", "StreamSession"),
}

__all__ = [
    "BUILTIN_PIPELINES",
    "KERNEL_BACKENDS",
    "BatchReport",
    "ExecutionContext",
    "PipelineEngine",
    "PipelineSpec",
    "RunSpec",
    "Stage",
    "StageReport",
    "StageSpec",
    "StreamSession",
    "add_execution_arguments",
    "available_stages",
    "get_stage",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
