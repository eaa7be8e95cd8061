"""Execution context shared by every stage of a pipeline run.

Before the pipeline engine existed, each entry point (solver facade, CLI
commands, benchmark harness) resolved its own kernel backend, built its
own scan source, threaded its own :class:`~repro.storage.memory.MemoryModel`
and read its own I/O counters.  :class:`ExecutionContext` centralises that
plumbing: one object owns the active scan source, the requested backend,
the memory model and budget, the scan order and the cumulative
:class:`~repro.storage.io_stats.IOStats`, and every stage reads them from
it.

The context keeps the backend *request* as given (``None``, ``""``,
``"auto"`` or a name) and resolves it against the active source through
the one lookup, :func:`repro.core.kernels.get_backend`, which also
honours ``REPRO_KERNEL_BACKEND``.
:func:`~repro.pipeline.spec.add_execution_arguments` declares the shared
CLI flags (``--backend`` among them) on an argparse parser and
:func:`ExecutionContext.from_args` builds the context from the parsed
namespace.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.kernels import get_backend
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.storage.io_stats import IOStats
from repro.storage.memory import MemoryModel
from repro.storage.scan import (
    AdjacencyScanSource,
    InMemoryAdjacencyScan,
    as_scan_source,
)

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Everything a pipeline stage needs to execute.

    Attributes
    ----------
    source:
        The *active* adjacency scan source.  Source-transforming stages
        (``reduce``) replace it mid-run via :meth:`replace_source`.
    backend:
        Requested kernel backend: a name, or ``None``/``""``/``"auto"``
        for ``REPRO_KERNEL_BACKEND``, else numpy.  It is resolved against
        the active source in :meth:`resolve_kernel`.
    memory_model:
        Analytic memory model used for the reported footprints.
    memory_limit_bytes:
        Optional RAM-emulation budget forwarded to in-memory stages.
    order:
        Scan order used when in-memory graphs are wrapped into sources
        (ignored for file readers, whose order is the file layout).
    original_graph:
        The in-memory graph the context was built from, when one was
        given (used for final validation); ``None`` for file sources.
    """

    def __init__(
        self,
        source: AdjacencyScanSource,
        backend: Optional[str] = None,
        memory_model: Optional[MemoryModel] = None,
        memory_limit_bytes: Optional[int] = None,
        order: Union[str, Sequence[int]] = "degree",
        original_graph: Optional[Graph] = None,
    ) -> None:
        self.source = source
        self.backend = backend
        self.memory_model = memory_model if memory_model is not None else MemoryModel()
        self.memory_limit_bytes = memory_limit_bytes
        self.order = order
        self.original_graph = original_graph
        # Materialisation memo keyed by source identity (the source object
        # is pinned alongside its graph so ids stay unique for the memo's
        # lifetime).  It deliberately survives source replacement and
        # engine-run save/restore: a source's materialisation never goes
        # stale, and `compare` relies on one file read across many runs.
        self._materialized: Dict[int, Tuple[object, Graph]] = {}
        if original_graph is not None:
            self._materialized[id(source)] = (source, original_graph)
        self.finalizers: List[Callable[[np.ndarray], Iterable[int]]] = []
        #: Set by the engine while a checkpointing run is active; stages
        #: only build their (potentially large) serialized artifacts when
        #: a checkpoint will actually consume them.
        self.capture_artifacts: bool = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        graph_or_source: Union[Graph, AdjacencyScanSource],
        backend: Optional[str] = None,
        memory_model: Optional[MemoryModel] = None,
        memory_limit_bytes: Optional[int] = None,
        order: Union[str, Sequence[int]] = "degree",
    ) -> "ExecutionContext":
        """Build a context from a graph or an existing scan source.

        A :class:`Graph` is wrapped into an in-memory scan with the
        requested order; an existing source is used as-is (its order is
        fixed by the file layout), matching the semantics every solver
        entry point had before the engine existed.
        """

        source = as_scan_source(graph_or_source, order=order)
        original = graph_or_source if isinstance(graph_or_source, Graph) else None
        return cls(
            source=source,
            backend=backend,
            memory_model=memory_model,
            memory_limit_bytes=memory_limit_bytes,
            order=order,
            original_graph=original,
        )

    @classmethod
    def from_args(
        cls,
        args,
        graph_or_source: Union[Graph, AdjacencyScanSource],
        order: Union[str, Sequence[int]] = "degree",
    ) -> "ExecutionContext":
        """Build a context from an argparse namespace (see
        :func:`repro.pipeline.spec.add_execution_arguments`)."""

        return cls.create(
            graph_or_source,
            backend=getattr(args, "backend", None),
            memory_limit_bytes=getattr(args, "memory_limit_bytes", None),
            order=order,
        )

    # ------------------------------------------------------------------
    # Stage services
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """The cumulative I/O counters of the active source."""

        return self.source.stats

    def resolve_kernel(self):
        """The kernel backend that will actually run against the active source."""

        return get_backend(self.backend, self.source)

    def materialize_graph(self) -> Graph:
        """The active source as an in-memory graph (memoised per source).

        In-memory comparator stages (local search, DynamicUpdate) need the
        whole graph resident; file readers are materialised at most once
        per context, charged to the shared I/O counters exactly as the
        pre-engine CLI did.
        """

        entry = self._materialized.get(id(self.source))
        if entry is not None:
            return entry[1]
        if isinstance(self.source, InMemoryAdjacencyScan):
            graph = self.source.graph
        elif hasattr(self.source, "to_graph"):
            graph = self.source.to_graph()
        else:
            raise SolverError(
                f"cannot materialise an in-memory graph from "
                f"{type(self.source).__name__}"
            )
        self._materialized[id(self.source)] = (self.source, graph)
        return graph

    def replace_source(self, source: AdjacencyScanSource) -> None:
        """Swap the active source (used by source-transforming stages).

        The replacement source should share the previous source's
        :class:`IOStats` so cumulative accounting stays continuous.
        """

        self.source = source

    def add_finalizer(self, finalizer: Callable[[np.ndarray], Iterable[int]]) -> None:
        """Register a solution lifter applied (in reverse order) to the final set.

        Each lifter receives the members (an ascending int64 array) and may
        return any iterable of vertex ids.

        Source-transforming stages use this to map the downstream solution
        back to the original vertex space (e.g. unwinding reduction folds).
        """

        self.finalizers.append(finalizer)

    # ------------------------------------------------------------------
    # Engine-run isolation
    # ------------------------------------------------------------------
    def save_state(self):
        """Snapshot the run-mutable parts of the context.

        The engine brackets every run with :meth:`save_state` /
        :meth:`restore_state`, so source-transforming stages (``reduce``)
        never leak a replaced source or leftover finalizers into a later
        run over the same context — e.g. the ``compare`` command, which
        deliberately shares one context across algorithms for continuous
        I/O accounting.  The materialisation memo is *not* part of the
        snapshot: it never goes stale, and keeping it is what makes the
        shared-context file read happen at most once.
        """

        return (self.source, list(self.finalizers))

    def restore_state(self, state) -> None:
        """Inverse of :meth:`save_state`."""

        source, finalizers = state
        self.source = source
        self.finalizers = list(finalizers)
