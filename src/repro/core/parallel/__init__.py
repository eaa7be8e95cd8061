"""Intra-job parallel execution layer.

``parallelize_kernel`` is the single entry point the solver wrappers
use: given the serial kernel backend resolved for a run and the
requested worker count, it returns either the kernel unchanged
(``workers <= 1`` — byte-for-byte the existing serial path) or a
:class:`~repro.core.parallel.passes.ParallelKernel`.  That wrapper shards
exactly two O(E) sweeps across forked worker processes over a shared
record-major CSR (see :mod:`repro.core.parallel.csr` and
:mod:`repro.core.parallel.pool`): the greedy pass and the one-k
IS-neighbour labelling.  The one-k rounds run the numpy backend's engine
in the parent, and two-k runs the serial kernel at every worker count.

Parallel execution is deterministic and bit-identical to the serial
backends by construction — sets, rounds, oscillation fingerprints,
``on_round`` snapshots and modeled ``IOStats`` all match — so
``workers`` is an execution property: results, caches and checkpoints
carry across worker counts.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.graphs.graph import HAVE_NUMPY

__all__ = ["parallelize_kernel", "close_parallel_sessions"]


def close_parallel_sessions() -> None:
    """Shut down every cached worker pool and release its shared memory.

    Sessions (materialised CSR + forked worker pool) are kept warm
    between passes so a pipeline pays the setup cost once.  Call this to
    reclaim the worker processes and shared segments — e.g. between
    benchmark configurations, in test teardown, or after a batch of
    solves.  A no-op when nothing is cached (including when numpy is
    unavailable and the parallel layer was never imported).
    """

    import sys

    passes = sys.modules.get("repro.core.parallel.passes")
    if passes is not None:
        passes._close_all_sessions()


def parallelize_kernel(kernel, workers: int, source=None):
    """Wrap ``kernel`` for ``workers``-way execution (no-op for ``<= 1``).

    Raises :class:`SolverError` when parallel execution is impossible in
    this environment (no numpy — the sharded sweeps are vectorized even
    under the python delegate, whose results they reproduce exactly).
    The ``source`` argument is accepted for future type-gating; source
    compatibility is checked at materialisation time, which keeps the
    error messages specific.
    """

    workers = int(workers)
    if workers <= 1:
        return kernel
    if not HAVE_NUMPY:
        raise SolverError(
            "parallel execution (--workers > 1) requires numpy; "
            "run with --workers 1"
        )
    from repro.core.parallel.passes import ParallelKernel

    if isinstance(kernel, ParallelKernel):  # pragma: no cover - defensive
        return kernel
    return ParallelKernel(kernel, workers)
