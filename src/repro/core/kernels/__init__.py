"""Pluggable kernel backends for the semi-external MIS passes.

Every name loads on first use (:mod:`repro._lazy`), and a backend module
is imported on the first lookup of its name
(:func:`repro.core.kernels.base.get_backend`; the fixed table of shipped
backends is :data:`repro.pipeline.spec.KERNEL_BACKENDS`).  Processes
that fork jobs import the numpy backend before forking (see
:mod:`repro.service.worker`).
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.core.kernels.base": (
        "BACKEND_ENV_VAR",
        "KernelBackend",
        "WaveTelemetry",
        "available_backends",
        "get_backend",
    ),
    "repro.core.kernels.numpy_backend": ("NumpyBackend",),
    "repro.core.kernels.python_backend": ("PythonBackend",),
    "repro.core.kernels.sc_store": ("SwapCandidateStore",),
}

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "NumpyBackend",
    "PythonBackend",
    "SwapCandidateStore",
    "WaveTelemetry",
    "available_backends",
    "get_backend",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
