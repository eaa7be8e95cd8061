"""In-memory (1,2)-swap descent to a local optimum.

The related-work section cites fast local search as the strongest
in-memory heuristic family for MIS.  This comparator implements the core
move of that family: repeatedly find an IS vertex ``v`` with (at least)
two non-adjacent "free-after-removal" neighbours, replace ``v`` by two of
them, and re-maximalise the freed neighbourhood, until no such move is
left.  It is a plain descent: the Andrade–Resende–Werneck algorithm
iterates this local search with perturbation (Dahlum et al.,
arXiv:1602.01659), which this comparator does not do.  Unlike the paper's
semi-external swaps it assumes random access to the whole adjacency
structure, so it serves as an "unconstrained memory" quality reference in
the ablation benchmarks — and, like DynamicUpdate, it reports "N/A" when
a :func:`memory limit <local_search_mis>` emulating a smaller machine is
exceeded (Table 6).

The computational pass runs on a pluggable kernel backend
(:mod:`repro.core.kernels`): the ``python`` reference keeps an
*incremental tightness array* and per-sweep candidate snapshots instead
of re-running a full maximalisation over all ``n`` vertices after every
accepted move (the seed behaviour), and the ``numpy`` backend vectorizes
the sweep prefilters and swap commits over the CSR arrays.  Both return
bit-identical sets and iteration counts.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Set, Union

from repro.core.greedy import greedy_mis
from repro.core.kernels import get_backend
from repro.core.result import MISResult
from repro.errors import MemoryBudgetError, SolverError, VertexError
from repro.graphs.graph import Graph
from repro.storage.io_stats import IOStats
from repro.storage.memory import MemoryModel

__all__ = ["local_search_mis"]


def local_search_mis(
    graph: Graph,
    initial: Union[None, MISResult, Iterable[int]] = None,
    max_iterations: int = 100_000,
    memory_model: Optional[MemoryModel] = None,
    memory_limit_bytes: Optional[int] = None,
    backend: Optional[str] = None,
) -> MISResult:
    """Improve an independent set with in-memory (1,2) swaps.

    Parameters
    ----------
    graph:
        The input graph (fully in memory).
    initial:
        Starting independent set; defaults to the degree-ordered greedy.
    max_iterations:
        Upper bound on the number of improving moves, a safety valve for
        adversarial instances.  ``0`` performs **no work at all** — the
        initial set is returned untouched (not even maximalised), so the
        bound really limits the work done on a caller-supplied set.
    memory_model:
        Model used to report the (large) in-memory footprint.
    memory_limit_bytes:
        Optional limit emulating a machine with bounded RAM; when the
        modeled footprint exceeds it, :class:`MemoryBudgetError` is
        raised — how the Table 6 benchmark reproduces the "N/A" entries,
        exactly as for :func:`~repro.baselines.dynamic_update.dynamic_update_mis`.
    backend:
        Kernel backend name (``"python"``, ``"numpy"`` or ``None``/
        ``"auto"`` for the process default).
    """

    if max_iterations < 0:
        raise SolverError(
            f"max_iterations must be non-negative, got {max_iterations}"
        )
    model = memory_model if memory_model is not None else MemoryModel()
    required = model.local_search_bytes(graph.num_vertices, graph.num_edges)
    if memory_limit_bytes is not None and required > memory_limit_bytes:
        raise MemoryBudgetError(required, memory_limit_bytes, what="local search")

    started = time.perf_counter()
    if initial is None:
        selected: Set[int] = set(greedy_mis(graph, backend=backend).independent_set)
    elif isinstance(initial, MISResult):
        selected = set(initial.independent_set)
    else:
        selected = set(initial)
    for vertex in selected:
        if not (0 <= vertex < graph.num_vertices):
            raise VertexError(vertex, graph.num_vertices)
    initial_size = len(selected)

    if max_iterations == 0:
        # The safety valve bounds *all* mutation: no maximalisation, no
        # swaps.  The result may therefore not be maximal.
        elapsed = time.perf_counter() - started
        return MISResult(
            algorithm="local_search",
            independent_set=frozenset(selected),
            rounds=(),
            io=IOStats(),
            memory_bytes=required,
            elapsed_seconds=elapsed,
            initial_size=initial_size,
            extras={"iterations": 0.0},
        )

    kernel = get_backend(backend)
    independent_set, iterations = kernel.local_search_pass(
        graph, frozenset(selected), max_iterations
    )
    elapsed = time.perf_counter() - started
    return MISResult(
        algorithm="local_search",
        independent_set=independent_set,
        rounds=(),
        io=IOStats(),
        memory_bytes=required,
        elapsed_seconds=elapsed,
        initial_size=initial_size,
        extras={"iterations": float(iterations)},
    )
