"""The "DynamicUpdate" comparator: in-memory minimum-degree greedy.

DynamicUpdate is the classic greedy of Halldórsson & Radhakrishnan: pick a
vertex of minimum *current* degree, add it to the independent set, delete
it and its neighbours from the graph, update the degrees of the affected
vertices, and repeat until the graph is empty.  It achieves the
``(Δ + 2) / 3`` approximation bound for bounded-degree graphs but requires
the whole graph (and a mutable copy of it) in main memory, which is why
the paper reports "N/A" for it on the billion-edge datasets.

The computational pass runs on a pluggable kernel backend
(:mod:`repro.core.kernels`) over the graph's flat CSR/degree arrays: the
``python`` reference keeps a bucket queue of flat int64 arrays (total
running time ``O(|V| + |E|)``), the ``numpy`` backend processes whole
minimum-degree rounds as vectorized "waves".  Tie-breaking is
deterministic (each round snapshots the minimum-degree vertices in
ascending-id order), so both backends return **bit-identical selection
sequences** — the seed's LIFO bucket order was arbitrary, exactly like
the reduction-rule application order revisited in the CSR reductions
port.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.kernels import get_backend
from repro.core.result import MISResult
from repro.errors import MemoryBudgetError
from repro.graphs.graph import Graph
from repro.storage.io_stats import IOStats
from repro.storage.memory import MemoryModel

__all__ = ["dynamic_update_mis"]


def dynamic_update_mis(
    graph: Graph,
    memory_model: Optional[MemoryModel] = None,
    memory_limit_bytes: Optional[int] = None,
    backend: Optional[str] = None,
) -> MISResult:
    """Run the in-memory DynamicUpdate greedy.

    Parameters
    ----------
    graph:
        The input graph (must be fully resident in memory).
    memory_model:
        Model used to report the (large) in-memory footprint.
    memory_limit_bytes:
        Optional limit emulating a machine with bounded RAM; when the
        modeled footprint exceeds it, :class:`MemoryBudgetError` is raised
        — this is how the Table 6 benchmark reproduces the "N/A" entries.
    backend:
        Kernel backend name (``"python"``, ``"numpy"`` or ``None``/
        ``"auto"`` for the process default).

    Returns
    -------
    MISResult
        A maximal independent set (algorithm name ``"dynamic_update"``).
        DynamicUpdate is constructive — there is no improvement phase —
        so ``initial_size`` equals the size of the set it built and the
        improvement gain is zero, consistent with how the swap pipelines
        report the set they started from.
    """

    model = memory_model if memory_model is not None else MemoryModel()
    required = model.dynamic_update_bytes(graph.num_vertices, graph.num_edges)
    if memory_limit_bytes is not None and required > memory_limit_bytes:
        raise MemoryBudgetError(required, memory_limit_bytes, what="DynamicUpdate")

    started = time.perf_counter()
    kernel = get_backend(backend)
    selection = kernel.dynamic_update_pass(graph)
    elapsed = time.perf_counter() - started
    return MISResult(
        algorithm="dynamic_update",
        members=selection,
        rounds=(),
        io=IOStats(),
        memory_bytes=required,
        elapsed_seconds=elapsed,
        initial_size=len(selection),
    )
