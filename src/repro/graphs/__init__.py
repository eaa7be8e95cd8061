"""Graph containers, random graph models and dataset stand-ins.

The sub-package provides:

* :class:`repro.graphs.graph.Graph` — an immutable, CSR-backed simple
  undirected graph used throughout the library.
* :class:`repro.graphs.graph.GraphBuilder` — incremental construction.
* :mod:`repro.graphs.plrg` — the Aiello–Chung–Lu power-law random graph
  model :math:`P(\\alpha, \\beta)` used by the paper's analysis.
* :mod:`repro.graphs.generators` — classic deterministic and random
  generators (paths, cycles, stars, complete graphs, Erdős–Rényi, …).
* :mod:`repro.graphs.cascade` — the cascading-swap worst case of Figure 5.
* :mod:`repro.graphs.datasets` — scaled synthetic stand-ins for the ten
  real-world datasets of Table 4.

The names below load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.graphs.graph": ("Graph", "GraphBuilder"),
    "repro.graphs.plrg": ("PLRGParameters", "plrg_degree_sequence", "plrg_graph"),
    "repro.graphs.generators": (
        "complete_bipartite_graph",
        "complete_graph",
        "cycle_graph",
        "empty_graph",
        "erdos_renyi_gnm",
        "erdos_renyi_gnp",
        "path_graph",
        "random_bipartite_graph",
        "random_regular_graph",
        "star_graph",
    ),
    "repro.graphs.cascade": ("cascade_swap_graph",),
    "repro.graphs.datasets": ("DatasetSpec", "available_datasets", "load_dataset"),
}

__all__ = [
    "Graph",
    "GraphBuilder",
    "PLRGParameters",
    "plrg_degree_sequence",
    "plrg_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "erdos_renyi_gnm",
    "erdos_renyi_gnp",
    "path_graph",
    "random_bipartite_graph",
    "random_regular_graph",
    "star_graph",
    "cascade_swap_graph",
    "DatasetSpec",
    "available_datasets",
    "load_dataset",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
