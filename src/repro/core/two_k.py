"""Algorithms 3 & 4: the two-k-swap algorithm.

A 2↔k swap removes *two* IS vertices and inserts ``k >= 3`` non-IS
vertices.  The algorithm generalises :mod:`repro.core.one_k`:

* an "A" (adjacent) vertex may now have one **or two** IS neighbours and
  ``ISN(u)`` becomes a set of at most two vertices;
* a *swap candidate* ``(u1, u2) ∈ SC(w1, w2)`` is a pair of non-adjacent
  "A" vertices whose IS neighbours are contained in ``{w1, w2}`` with
  ``|ISN(u1)| = 2`` (Definition 2);
* a *2-3 swap skeleton* ``(u1, u2, u3, w1, w2)`` additionally requires a
  third vertex ``u3`` non-adjacent to both, certifying that removing
  ``w1, w2`` and inserting ``u1, u2, u3`` enlarges the set (Definition 3);
* the per-round ``SC`` sets store discovered candidate pairs; Lemma 6
  bounds their total size by ``|V| - e^alpha`` on power-law graphs and the
  experiments of Figure 10 measure roughly ``0.13 |V|``.

Implementation note (documented deviation)
------------------------------------------
Algorithm 4 promotes the two remembered candidates ``v1, v2`` of a
skeleton to "P" when the *third* vertex is scanned.  Between the moment a
pair is recorded in SC and the moment it is promoted, another vertex
adjacent to ``v1`` (or ``v2``) may itself have become "P", and the printed
pseudo-code would then commit two adjacent vertices to the independent
set.  To keep the algorithm sound we re-verify every skeleton at promotion
time: states and ISN membership are checked from the in-memory arrays, and
the "no new P neighbour" condition is checked with a *random* adjacency
lookup of ``v1`` and ``v2`` (charged to ``IOStats.random_vertex_lookups``).
These lookups are rare — a handful per round in practice — and could be
deferred to the next sequential scan in a disk-resident deployment.

The round bodies are delegated to a pluggable kernel backend
(:mod:`repro.core.kernels`).  The ``numpy`` backend vectorizes the
labelling, swap commits, post-swap refresh and completion sweeps; its
pre-swap scan decides every candidate's no-op verdict at round start with
vectorized compares and runs Algorithm 4's scalar body only on the
candidates that may act or that an earlier event reached — the swap
conflicts the paper resolves through the scan order's right of
preemption.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Union

from repro.core.kernels import get_backend
from repro.core.one_k import _initial_set
from repro.core.result import MISResult
from repro.graphs.graph import Graph
from repro.storage.memory import MemoryModel
from repro.storage.scan import AdjacencyScanSource, as_scan_source

__all__ = ["two_k_swap"]


def two_k_swap(
    graph_or_source: Union[Graph, AdjacencyScanSource],
    initial: Union[None, MISResult, Iterable[int]] = None,
    max_rounds: Optional[int] = None,
    order: Union[str, Sequence[int]] = "degree",
    memory_model: Optional[MemoryModel] = None,
    max_pairs_per_key: int = 8,
    max_partner_checks: int = 64,
    backend: Optional[str] = None,
    resume_state: Optional[dict] = None,
    on_round=None,
) -> MISResult:
    """Enlarge an independent set with 2↔k, 1↔k and 0↔1 swaps (Algorithm 3).

    Parameters
    ----------
    graph_or_source:
        Graph or adjacency scan source.
    initial:
        Starting independent set (a :class:`MISResult`, an iterable of
        vertices, or ``None`` to run greedy first).
    max_rounds:
        Optional early-stop bound on the number of swap rounds.  With
        ``max_rounds=None`` an oscillation guard stops the loop when a
        ``(state, ISN)`` configuration repeats (reported as
        ``extras["oscillation_guard"] = 1.0``); see
        :func:`repro.core.one_k.one_k_swap`.
    order:
        Scan order used when an in-memory graph is passed.
    memory_model:
        Memory model for the reported footprint.
    max_pairs_per_key:
        Cap on stored candidate pairs per IS pair (memory/quality knob).
    max_partner_checks:
        Cap on how many potential partners are examined per scanned vertex
        when building swap candidates, bounding the per-vertex CPU cost at
        ``O(deg(u) + max_partner_checks)``.
    backend:
        Kernel backend name (``"python"``, ``"numpy"`` or ``None``/
        ``"auto"`` for the process default).
    resume_state:
        A round-state snapshot previously handed to an ``on_round``
        callback, from either backend; continues the round loop where the
        snapshot was taken, from the same ``initial`` set (see
        :func:`repro.core.one_k.one_k_swap`).
    on_round:
        Optional per-round callback receiving a loop snapshot of JSON data
        and sparse 1-D integer ndarray overlays (the pipeline engine's
        checkpoint hook; see :func:`repro.core.one_k.one_k_swap`).

    Returns
    -------
    MISResult
        The enlarged independent set with per-round telemetry; the extras
        carry ``max_sc_vertices`` (the Figure 10 quantity).
    """

    source = as_scan_source(graph_or_source, order=order)
    model = memory_model if memory_model is not None else MemoryModel()
    num_vertices = source.num_vertices
    kernel = get_backend(backend, source)
    started = time.perf_counter()
    io_before = source.stats.copy()

    initial_set = _initial_set(
        source, initial, order, backend, resume_state, "two_k_swap"
    )
    members, rounds, max_sc_vertices, oscillation = kernel.two_k_swap_pass(
        source,
        initial_set,
        max_rounds,
        max_pairs_per_key,
        max_partner_checks,
        resume=resume_state,
        on_round=on_round,
    )
    elapsed = time.perf_counter() - started

    extras = {"max_sc_vertices": float(max_sc_vertices)}
    if oscillation:
        extras["oscillation_guard"] = 1.0
    return MISResult(
        algorithm="two_k_swap",
        members=members,
        rounds=rounds,
        io=source.stats.delta_since(io_before),
        memory_bytes=model.two_k_swap_bytes(num_vertices, max_sc_vertices)
        + model.labelled_start_bytes(num_vertices, 2),
        elapsed_seconds=elapsed,
        initial_size=initial_set.size,
        extras=extras,
    )
