"""The paper's core contribution: semi-external MIS algorithms.

* :mod:`repro.core.states` — the six-vertex-state machine of Table 3 /
  Figure 3.
* :mod:`repro.core.result` — result and per-round telemetry objects.
* :mod:`repro.core.greedy` — Algorithm 1, the semi-external greedy pass.
* :mod:`repro.core.one_k_swap` — Algorithm 2, 1↔k swaps.
* :mod:`repro.core.two_k_swap` — Algorithms 3 & 4, 2↔k swaps.
* :mod:`repro.core.solver` — a facade that chains the passes into the
  pipelines evaluated in Section 7 (e.g. Greedy → One-k → Two-k).
"""

from repro._lazy import lazy_exports

# ``one_k_swap`` and ``two_k_swap`` share their names with the submodules
# defining them, and importing a submodule binds its name on the package
# to the module.  They are bound eagerly so these names always mean the
# functions; every other name loads on first use.
from repro.core.one_k_swap import one_k_swap
from repro.core.two_k_swap import two_k_swap

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.core.states": ("VertexState",),
    "repro.core.result": ("MISResult", "RoundStats"),
    "repro.core.greedy": ("greedy_mis",),
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
