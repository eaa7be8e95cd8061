"""The paper's core contribution: semi-external MIS algorithms.

* :mod:`repro.core.states` — the six-vertex-state machine of Table 3 /
  Figure 3.
* :mod:`repro.core.result` — result and per-round telemetry objects.
* :mod:`repro.core.greedy` — Algorithm 1, the semi-external greedy pass.
* :mod:`repro.core.one_k` — Algorithm 2, 1↔k swaps (:func:`one_k_swap`).
* :mod:`repro.core.two_k` — Algorithms 3 & 4, 2↔k swaps (:func:`two_k_swap`).
* :mod:`repro.core.solver` — a facade that chains the passes into the
  pipelines evaluated in Section 7 (e.g. Greedy → One-k → Two-k).
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; see :mod:`repro._lazy`.  The swap
#: passes live in ``one_k``/``two_k``, so the names ``one_k_swap`` and
#: ``two_k_swap`` always mean the functions and load on first use, like
#: every other name.
_EXPORTS = {
    "repro.core.states": ("VertexState",),
    "repro.core.result": ("MISResult", "RoundStats"),
    "repro.core.greedy": ("greedy_mis",),
    "repro.core.one_k": ("one_k_swap",),
    "repro.core.two_k": ("two_k_swap",),
    "repro.core.solver": ("SemiExternalMISSolver", "solve_mis"),
}

__all__ = [
    "VertexState",
    "MISResult",
    "RoundStats",
    "greedy_mis",
    "one_k_swap",
    "two_k_swap",
    "SemiExternalMISSolver",
    "solve_mis",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
