"""Pluggable kernel backends for the semi-external MIS passes.

Importing this package registers the ``python`` reference backend and —
when NumPy is importable — the vectorized ``numpy`` backend, then
auto-detects the default (numpy preferred).  See
:mod:`repro.core.kernels.base` for the selection rules.
"""

from repro.core.kernels.base import (
    BACKEND_ENV_VAR,
    KernelBackend,
    WaveTelemetry,
    available_backends,
    default_backend_name,
    get_backend,
    observe_pass,
    register_backend,
    resolve_backend,
    resolve_graph_backend,
    resolve_maintainer_backend,
    set_default_backend,
    set_pass_observer,
)
from repro.core.kernels.python_backend import PythonBackend
from repro.core.kernels.sc_store import SwapCandidateStore

try:
    from repro.core.kernels.numpy_backend import NumpyBackend
except ImportError:  # pragma: no cover - the container ships numpy
    NumpyBackend = None  # type: ignore[assignment,misc]

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "NumpyBackend",
    "PythonBackend",
    "SwapCandidateStore",
    "WaveTelemetry",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "observe_pass",
    "register_backend",
    "resolve_backend",
    "resolve_graph_backend",
    "resolve_maintainer_backend",
    "set_default_backend",
]
