"""Pluggable kernel backends for the semi-external MIS passes.

Importing this package compiles the vectorized ``numpy`` backend, the
default.  The ``python`` reference is imported on the first lookup of
its name, so a run on the numpy backend never imports it.  See
:func:`repro.core.kernels.base.get_backend` for the selection rules.
The other names load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

# Every solve, stream and service job runs the default backend, so it is
# compiled with the package: a forked job worker then inherits it, and a
# stream session's first seed solve does not pay for it.
from repro.core.kernels.numpy_backend import NumpyBackend

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.core.kernels.base": (
        "BACKEND_ENV_VAR",
        "KernelBackend",
        "WaveTelemetry",
        "available_backends",
        "get_backend",
    ),
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
