"""repro — semi-external maximum independent set algorithms.

A production-quality reproduction of

    Yu Liu, Jiaheng Lu, Hua Yang, Xiaokui Xiao, Zhewei Wei.
    "Towards Maximum Independent Sets on Massive Graphs." PVLDB 8(13), 2015.

Public API highlights
---------------------
* :func:`repro.greedy_mis`, :func:`repro.one_k_swap`,
  :func:`repro.two_k_swap` — the paper's three semi-external passes.
* :class:`repro.SemiExternalMISSolver` / :func:`repro.solve_mis` —
  pipeline facade (greedy → one-k → two-k).
* :mod:`repro.graphs` — graph containers, the power-law random graph
  model P(α, β) and dataset stand-ins.
* :mod:`repro.storage` — the semi-external substrate: binary adjacency
  files, block-level I/O accounting, external sorting, memory budgets.
* :mod:`repro.baselines` — DynamicUpdate, Baseline, external maximal IS,
  exact branch-and-bound and local search comparators.
* :mod:`repro.analysis` — the PLRG performance model (Lemma 1,
  Propositions 2 and 5) and the Algorithm-5 upper bound.
* :mod:`repro.service` — solver-as-a-service: durable job queue,
  process worker pool with crash recovery, digest-keyed result cache
  (:class:`repro.SolverService`, :class:`repro.ServiceClient`).

Every public name is imported on first use (:mod:`repro._lazy`), so a
process pays only for the modules its command calls.
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; see :mod:`repro._lazy`.
_EXPORTS = {
    "repro.core": (
        "MISResult",
        "RoundStats",
        "SemiExternalMISSolver",
        "VertexState",
        "greedy_mis",
        "one_k_swap",
        "solve_mis",
        "two_k_swap",
    ),
    "repro.analysis": ("approximation_ratio", "independence_upper_bound"),
    "repro.baselines": (
        "baseline_mis",
        "dynamic_update_mis",
        "exact_mis",
        "external_maximal_is",
        "independence_number",
        "local_search_mis",
    ),
    "repro.errors": (
        "AnalysisError",
        "DatasetError",
        "FormatError",
        "GraphError",
        "InvalidIndependentSetError",
        "MemoryBudgetError",
        "ReproError",
        "SolverError",
        "StorageError",
        "VertexError",
    ),
    "repro.dynamic": ("DynamicMISMaintainer",),
    "repro.graphs": ("Graph", "GraphBuilder"),
    "repro.pipeline": (
        "ExecutionContext",
        "PipelineEngine",
        "PipelineSpec",
        "RunSpec",
        "StageReport",
        "StageSpec",
    ),
    "repro.reductions": ("ReducedGraph", "reduce_graph", "reduced_mis"),
    "repro.service": ("ServiceClient", "ServiceConfig", "SolverService"),
    "repro.storage": (
        "AdjacencyFileReader",
        "IOStats",
        "InMemoryAdjacencyScan",
        "MemoryBudget",
        "MemoryModel",
        "write_adjacency_file",
    ),
    "repro.validation": ("is_independent_set", "is_maximal_independent_set"),
}

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Core algorithms
    "greedy_mis",
    "one_k_swap",
    "two_k_swap",
    "solve_mis",
    "SemiExternalMISSolver",
    "MISResult",
    "RoundStats",
    "VertexState",
    # Baselines
    "baseline_mis",
    "dynamic_update_mis",
    "external_maximal_is",
    "exact_mis",
    "independence_number",
    "local_search_mis",
    # Analysis
    "approximation_ratio",
    "independence_upper_bound",
    # Pipeline engine
    "ExecutionContext",
    "PipelineEngine",
    "PipelineSpec",
    "RunSpec",
    "StageReport",
    "StageSpec",
    # Service layer
    "ServiceClient",
    "ServiceConfig",
    "SolverService",
    # Reductions and incremental maintenance
    "ReducedGraph",
    "reduce_graph",
    "reduced_mis",
    "DynamicMISMaintainer",
    # Graphs
    "Graph",
    "GraphBuilder",
    # Storage
    "AdjacencyFileReader",
    "write_adjacency_file",
    "InMemoryAdjacencyScan",
    "IOStats",
    "MemoryModel",
    "MemoryBudget",
    # Validation
    "is_independent_set",
    "is_maximal_independent_set",
    # Errors
    "ReproError",
    "GraphError",
    "VertexError",
    "StorageError",
    "FormatError",
    "MemoryBudgetError",
    "SolverError",
    "InvalidIndependentSetError",
    "AnalysisError",
    "DatasetError",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
