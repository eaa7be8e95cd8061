"""Algorithm 1: the semi-external greedy algorithm.

The algorithm performs **one** sequential scan of the (degree-sorted)
adjacency file.  Every still-unvisited vertex it reaches is added to the
independent set and its unvisited neighbours are excluded — a *lazy*
variant of the classic minimum-degree greedy that never updates degrees
and therefore never needs a random disk access.

.. note::

   The pseudo-code of Algorithm 1 (line 8) sets the neighbour state to
   ``IS``, which is a typo in the paper — it would not yield an
   independent set.  Following the textual description ("update the states
   of its neighbours"), neighbours are *excluded* here.

The quality of the result depends on the scan order: the paper's
pre-processing sorts the file by ascending degree (Section 4.1), which is
the default order here; the "Baseline" comparator of Section 7 is the same
scan without the ordering (see :mod:`repro.baselines.unsorted`).

The computational pass itself is delegated to a pluggable kernel backend
(:mod:`repro.core.kernels`): the ``python`` reference streams records from
any scan source, while the ``numpy`` backend performs the bitmap updates
as vectorized array stores against a record-major CSR (in-memory arrays
or a ``SEXTCSR1`` memmap).  Both return identical independent sets.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from repro.core.kernels import observe_pass, resolve_backend
from repro.core.result import MISResult
from repro.graphs.graph import Graph
from repro.storage.memory import MemoryModel
from repro.storage.scan import AdjacencyScanSource, as_scan_source

__all__ = ["greedy_mis"]


def greedy_mis(
    graph_or_source: Union[Graph, AdjacencyScanSource],
    order: Union[str, Sequence[int]] = "degree",
    memory_model: Optional[MemoryModel] = None,
    backend: Optional[str] = None,
) -> MISResult:
    """Compute a maximal independent set with one sequential scan.

    Parameters
    ----------
    graph_or_source:
        Either an in-memory :class:`~repro.graphs.graph.Graph` (wrapped
        into a degree-ordered scan) or any adjacency scan source, e.g. an
        :class:`~repro.storage.adjacency_file.AdjacencyFileReader` over a
        pre-sorted file.
    order:
        Scan order used when a :class:`Graph` is passed; ``"degree"``
        reproduces Algorithm 1, ``"id"`` reproduces the Baseline.
    memory_model:
        Memory model used to report the modeled footprint; defaults to the
        paper's 4-byte-word model.
    backend:
        Kernel backend name (``"python"``, ``"numpy"`` or ``None``/
        ``"auto"`` for the process default).  With numpy, text inputs
        spill once to a private ``SEXTCSR1`` memmap; the spill is not
        charged to ``IOStats``.

    Returns
    -------
    MISResult
        The maximal independent set plus I/O and memory telemetry.
    """

    source = as_scan_source(graph_or_source, order=order)
    model = memory_model if memory_model is not None else MemoryModel()
    num_vertices = source.num_vertices
    kernel = resolve_backend(backend, source)

    started = time.perf_counter()
    before = source.stats.copy()
    independent_set = kernel.greedy_pass(source)
    elapsed = time.perf_counter() - started
    observe_pass("greedy", kernel.name, size=len(independent_set))

    return MISResult(
        algorithm="greedy",
        independent_set=independent_set,
        rounds=(),
        io=source.stats.delta_since(before),
        memory_bytes=model.greedy_bytes(num_vertices),
        elapsed_seconds=elapsed,
        initial_size=0,
    )
