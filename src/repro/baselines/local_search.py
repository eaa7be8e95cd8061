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
from functools import partial
from typing import Iterable, Optional, Union

from repro.core.greedy import greedy_mis
from repro.core.kernels import get_backend
from repro.core.result import MISResult, initial_members
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
        initial = greedy_mis(graph, backend=backend)
    members = initial_members(
        initial,
        graph.num_vertices,
        partial(VertexError, num_vertices=graph.num_vertices),
    )
    initial_size = members.size

    iterations = 0
    if max_iterations > 0:
        # ``max_iterations == 0`` bounds *all* mutation: no maximalisation,
        # no swaps, so the returned set may not be maximal.
        members, iterations = get_backend(backend).local_search_pass(
            graph, members, max_iterations
        )
    elapsed = time.perf_counter() - started
    return MISResult(
        algorithm="local_search",
        members=members,
        rounds=(),
        io=IOStats(),
        memory_bytes=required,
        elapsed_seconds=elapsed,
        initial_size=initial_size,
        extras={"iterations": float(iterations)},
    )
