"""Algorithm 2: the one-k-swap algorithm.

A 1↔k swap removes one vertex ``w`` from the independent set and inserts
``k >= 2`` non-IS vertices; a 0↔1 swap simply inserts a vertex whose whole
neighbourhood lies outside the set.  Performing such swaps with only
sequential scans raises two difficulties (Section 5.1): detecting whether
a swap is *valid* without random accesses, and resolving *swap conflicts*
when two candidate swaps collide.

The algorithm solves both with the six-state machine of
:mod:`repro.core.states` and the ``ISN`` bookkeeping:

* ``ISN(u)`` records the single IS neighbour of every adjacent ("A")
  vertex;
* a *1-2 swap skeleton* ``(u, v, w)`` exists when two non-adjacent "A"
  vertices ``u`` and ``v`` share the IS neighbour ``w`` — it certifies
  that swapping ``w`` out and ``u, v`` in enlarges the set;
* skeleton existence is decided in O(deg(u)) by comparing the number of
  "A" vertices pointing at ``w`` (``|ISN⁻¹(w)|``) against how many of them
  are adjacent to ``u`` (Section 5.4);
* the scan order gives earlier vertices the *right of preemption*: a
  vertex that sees a "P" (protected) neighbour becomes "C" (conflict) and
  stays out this round, which resolves swap conflicts deterministically.

Every round performs a pre-swap scan, an in-memory swap pass and a
post-swap scan; the loop terminates when a round performs no 1↔k swap.

The round bodies are delegated to a pluggable kernel backend
(:mod:`repro.core.kernels`): the ``python`` reference streams records from
any scan source, while the ``numpy`` backend vectorizes every full-graph
state sweep over the in-memory CSR arrays.  Both return identical sets
and identical per-round telemetry.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.greedy import greedy_mis
from repro.core.kernels import get_backend
from repro.core.result import MISResult, initial_members
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.storage.memory import MemoryModel
from repro.storage.scan import AdjacencyScanSource, as_scan_source

__all__ = ["one_k_swap"]


def _unknown_vertex(vertex: int) -> SolverError:
    return SolverError(f"initial independent set contains unknown vertex {vertex}")


def _initial_set(
    source: AdjacencyScanSource,
    initial: Union[None, MISResult, Iterable[int]],
    order: Union[str, Sequence[int]],
    backend: Optional[str],
    resume_state: Optional[dict],
    pass_name: str,
) -> np.ndarray:
    """The starting members (default: the greedy pass), range-checked.

    A resumed pass needs them too: it rebuilds the labelled start its
    snapshot's overlays apply to.  A greedy pass run for that is a replay
    and charges no I/O — the snapshot's counters already hold it.
    """

    if resume_state is not None:
        snapshot_pass = resume_state.get("pass")
        if snapshot_pass != pass_name:
            raise SolverError(
                f"cannot resume a {snapshot_pass!r} snapshot with {pass_name}"
            )
    if initial is None:
        io_before = source.stats.copy()
        initial = greedy_mis(source, order=order, backend=backend)
        if resume_state is not None:
            source.stats.reset_to(io_before)
    return initial_members(initial, source.num_vertices, _unknown_vertex)


def one_k_swap(
    graph_or_source: Union[Graph, AdjacencyScanSource],
    initial: Union[None, MISResult, Iterable[int]] = None,
    max_rounds: Optional[int] = None,
    order: Union[str, Sequence[int]] = "degree",
    memory_model: Optional[MemoryModel] = None,
    backend: Optional[str] = None,
    resume_state: Optional[dict] = None,
    on_round=None,
) -> MISResult:
    """Enlarge an independent set with 1↔k and 0↔1 swaps (Algorithm 2).

    Parameters
    ----------
    graph_or_source:
        Graph or adjacency scan source.
    initial:
        Starting independent set: a previous :class:`MISResult`, an
        iterable of vertices, or ``None`` to run the greedy pass first.
    max_rounds:
        Optional early-stop bound on the number of swap rounds (the paper's
        Section 7.4 shows three rounds already capture > 97 % of the gain).
        With ``max_rounds=None`` an oscillation guard fingerprints the
        ``(state, ISN)`` configuration after every round and stops the
        loop when a configuration repeats — the paper's conflict
        resolution can otherwise cycle forever on some graphs.  A guarded
        stop is reported as ``extras["oscillation_guard"] = 1.0``.
    order:
        Scan order used when an in-memory graph is passed.
    memory_model:
        Memory model for the reported footprint.
    backend:
        Kernel backend name (``"python"``, ``"numpy"`` or ``None``/
        ``"auto"`` for the process default).
    resume_state:
        A round-state snapshot previously handed to an ``on_round``
        callback; the pass continues the round loop exactly where the
        snapshot was taken.  It needs the same ``initial`` set as the
        snapshotted run (a different one raises :class:`SolverError`):
        it replays the labelling from that set without charging I/O and
        applies the snapshot's overlays.  Both backends hand out the same
        snapshots, so either resumes one.
    on_round:
        Optional callback invoked after every completed swap round with a
        snapshot of the loop state (the checkpoint hook).  Its values are
        JSON data and, per per-vertex array, the ascending indices that
        differ from the labelled start and their values as 1-D integer
        ndarrays, which encode to the checkpoint bytes of the equal int
        lists; see
        :meth:`repro.core.kernels.base.KernelBackend.one_k_swap_pass`.

    Returns
    -------
    MISResult
        The enlarged independent set, never smaller than the initial one,
        with per-round telemetry.
    """

    source = as_scan_source(graph_or_source, order=order)
    model = memory_model if memory_model is not None else MemoryModel()
    num_vertices = source.num_vertices
    kernel = get_backend(backend, source)
    started = time.perf_counter()
    io_before = source.stats.copy()

    initial_set = _initial_set(
        source, initial, order, backend, resume_state, "one_k_swap"
    )
    members, rounds, oscillation = kernel.one_k_swap_pass(
        source, initial_set, max_rounds, resume=resume_state, on_round=on_round
    )
    elapsed = time.perf_counter() - started

    return MISResult(
        algorithm="one_k_swap",
        members=members,
        rounds=rounds,
        io=source.stats.delta_since(io_before),
        memory_bytes=model.one_k_swap_bytes(num_vertices)
        + model.labelled_start_bytes(num_vertices, 1),
        elapsed_seconds=elapsed,
        initial_size=initial_set.size,
        extras={"oscillation_guard": 1.0} if oscillation else {},
    )
