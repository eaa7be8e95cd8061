"""The numpy backend's in-memory comparator passes (Tables 5-6).

The (1,2)-swap local search and the DynamicUpdate minimum-degree greedy
run on the whole graph's CSR arrays, so no semi-external solve uses
them: :class:`~repro.core.kernels.numpy_backend.NumpyBackend` imports
this module on the first comparator call.  Both passes are bit-identical
to the python reference's loops (``tests/test_comparator_kernels.py``);
see :meth:`~repro.core.kernels.base.KernelBackend.local_search_pass` and
:meth:`~repro.core.kernels.base.KernelBackend.dynamic_update_pass`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.core.kernels.numpy_backend import _int_bincount, _ragged_slot_indices

__all__ = ["dynamic_update_pass", "local_search_pass"]


def local_search_pass(
    graph,
    initial_set: np.ndarray,
    max_iterations: int,
) -> Tuple[np.ndarray, int]:
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    offsets, targets = graph.csr_arrays()
    edge_src = graph.edge_sources_array()
    degrees = graph.degrees_array()
    selected = np.zeros(n, dtype=bool)
    selected[initial_set] = True
    # tight[u] = #selected neighbours; isn_sum[u] = sum of their ids,
    # so a loose vertex (unselected, tight == 1) names its unique IS
    # neighbour in O(1) — the weighted-bincount trick of the one-k pass.
    sel_slot = selected[targets]
    src_sel = edge_src[sel_slot]
    tight = np.bincount(src_sel, minlength=n).astype(np.int64)
    isn_sum = _int_bincount(src_sel, targets[sel_slot], n)

    def _select(vertex: int) -> None:
        selected[vertex] = True
        nbrs = targets[offsets[vertex] : offsets[vertex + 1]]
        tight[nbrs] += 1
        isn_sum[nbrs] += vertex

    # Initial maximalisation in ascending (degree, id) order: only the
    # initially-free vertices can ever become insertable (tight never
    # decreases while inserting), so the scalar loop touches just them.
    order = graph.degree_ascending_order_array()
    for v in order[(~selected[order]) & (tight[order] == 0)].tolist():
        if not selected[v] and tight[v] == 0:
            _select(v)

    iterations = 0
    improved = True
    while improved and iterations < max_iterations:
        improved = False
        # One vectorized sweep prefilter: IS vertices with fewer than
        # two loose neighbours cannot move, so the sweep only walks
        # the (few) eligible ones.  Vertices that *gain* loose
        # neighbours mid-sweep are merged in through a heap of
        # "dirtied" ids still ahead of the sweep cursor — the owner of
        # every loose flip is isn_sum of the flipped vertex — keeping
        # the ascending examination order of the reference without
        # touching the other snapshot members at all.
        loose_slot = (~selected[targets]) & (tight[targets] == 1)
        loose_count = np.bincount(edge_src[loose_slot], minlength=n)
        # The reference examines the IS snapshot taken at sweep start;
        # vertices selected mid-sweep wait for the next sweep, so
        # dirtied owners outside this snapshot must not be examined.
        snapshot = selected.copy()
        pending = np.flatnonzero(selected & (loose_count >= 2)).tolist()
        queued = set(pending)
        dirty_heap: List[int] = []
        position = 0
        while position < len(pending) or dirty_heap:
            if dirty_heap and (
                position >= len(pending) or dirty_heap[0] < pending[position]
            ):
                vertex = heapq.heappop(dirty_heap)
            else:
                vertex = pending[position]
                position += 1
            if not selected[vertex]:
                continue
            nbrs = targets[offsets[vertex] : offsets[vertex + 1]]
            cand = nbrs[(~selected[nbrs]) & (tight[nbrs] == 1)]
            if cand.size < 2:
                continue
            pair = None
            for index, first in enumerate(cand.tolist()[:-1]):
                rest = cand[index + 1 :]
                non_adjacent = rest[
                    ~np.isin(rest, targets[offsets[first] : offsets[first + 1]])
                ]
                if non_adjacent.size:
                    pair = (first, int(non_adjacent[0]))
                    break
            if pair is None:
                continue
            # Commit the (1,2) swap.
            selected[vertex] = False
            tight[nbrs] -= 1
            isn_sum[nbrs] -= vertex
            _select(pair[0])
            _select(pair[1])
            iterations += 1
            improved = True
            inserted = []
            freed = nbrs[(~selected[nbrs]) & (tight[nbrs] == 0)]
            if freed.size:
                freed = freed[np.lexsort((freed, degrees[freed]))]
                for u in freed.tolist():
                    if not selected[u] and tight[u] == 0:
                        _select(u)
                        inserted.append(u)
            # Every vertex whose tight count changed may have flipped
            # to loose; its unique IS neighbour gains a candidate and
            # re-enters the sweep if its id is still ahead (owners
            # already passed are caught by the next sweep's prefilter).
            changed = [nbrs]
            for moved in (pair[0], pair[1], *inserted):
                changed.append(targets[offsets[moved] : offsets[moved + 1]])
            flips = np.concatenate(changed)
            flips = flips[(~selected[flips]) & (tight[flips] == 1)]
            for owner in isn_sum[flips].tolist():
                if owner > vertex and owner not in queued and snapshot[owner]:
                    queued.add(owner)
                    heapq.heappush(dirty_heap, owner)
            if iterations >= max_iterations:
                break

    return np.flatnonzero(selected), iterations

def dynamic_update_pass(graph) -> Tuple[int, ...]:
    n = graph.num_vertices
    if n == 0:
        return ()
    offsets, targets = graph.csr_arrays()
    base_degree = np.diff(offsets)
    degree = base_degree.copy()
    alive = np.ones(n, dtype=bool)
    max_degree = int(degree.max())

    # Bucket queue over current degrees, holding ndarray chunks with
    # possibly-stale entries (filtered against `degree` on inspection).
    buckets: List[List[np.ndarray]] = [[] for _ in range(max_degree + 1)]
    order = np.argsort(degree, kind="stable")
    bounds = np.searchsorted(degree[order], np.arange(max_degree + 2))
    for d in range(max_degree + 1):
        chunk = order[bounds[d] : bounds[d + 1]]
        if chunk.size:
            buckets[d].append(chunk)

    selection: List[int] = []
    cursor = 0
    remaining = n
    sentinel = np.iinfo(np.int64).max
    first_touch = np.full(n, sentinel, dtype=np.int64)
    while remaining and cursor <= max_degree:
        pieces = buckets[cursor]
        if not pieces:
            cursor += 1
            continue
        buckets[cursor] = []
        batch = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        batch = batch[alive[batch] & (degree[batch] == cursor)]
        if batch.size == 0:
            continue
        if batch.size > 1:
            batch = np.sort(batch)
        round_min = cursor
        round_selection: List[int] = []
        while batch.size:
            m = batch.size
            index = np.arange(m, dtype=np.int64)
            lens = base_degree[batch]
            slots = _ragged_slot_indices(offsets[batch], lens)
            owner = np.repeat(index, lens)
            neighbor = targets[slots]
            live_mask = alive[neighbor]
            nbr_live = neighbor[live_mask]
            owner_live = owner[live_mask]
            # ------------------------------------------------------
            # Exact bulk acceptance: a snapshot member is selected in
            # the sequential round order iff no *selected* earlier
            # member touches its closed live neighbourhood.  Validity
            # only shrinks, so every member whose closed neighbourhood
            # is first touched by itself is provably selected; their
            # zones are disjoint and commit in bulk, the rest defer to
            # the next fixpoint iteration.  `owner_live` is ascending,
            # so a reversed fancy store leaves the first toucher.
            # ------------------------------------------------------
            first_touch[nbr_live[::-1]] = owner_live[::-1]
            first_touch[batch] = np.minimum(first_touch[batch], index)
            threat = first_touch[batch]
            if nbr_live.size:
                neighbor_min = np.full(m, sentinel, dtype=np.int64)
                np.minimum.at(neighbor_min, owner_live, first_touch[nbr_live])
                threat = np.minimum(threat, neighbor_min)
            accept_mask = threat == index
            accepted_count = int(np.count_nonzero(accept_mask))
            first_touch[batch] = sentinel
            first_touch[nbr_live] = sentinel
            if accepted_count < max(8, m // 8):
                # Conflict-dense snapshot (e.g. long induced paths):
                # bulk acceptance would degenerate to quadratic
                # re-scans, so finish the round with the scalar rule.
                round_min, removed_total = _scalar_round(
                    batch, cursor, degree, alive, offsets, targets,
                    buckets, round_selection, round_min,
                )
                remaining -= removed_total
                break
            accepted = batch[accept_mask]
            round_selection.extend(accepted.tolist())
            alive[accepted] = False
            remaining -= accepted_count
            removed = nbr_live[accept_mask[owner_live]]
            if removed.size:
                alive[removed] = False
                remaining -= int(removed.size)
                second = targets[
                    _ragged_slot_indices(offsets[removed], base_degree[removed])
                ]
                second = second[alive[second]]
                if second.size:
                    affected, counts = np.unique(second, return_counts=True)
                    degree[affected] -= counts
                    new_degrees = degree[affected]
                    regroup = np.argsort(new_degrees, kind="stable")
                    affected = affected[regroup]
                    new_degrees = new_degrees[regroup]
                    low = int(new_degrees[0])
                    high = int(new_degrees[-1])
                    edges = np.searchsorted(
                        new_degrees, np.arange(low, high + 2)
                    )
                    for i, d in enumerate(range(low, high + 1)):
                        chunk = affected[edges[i] : edges[i + 1]]
                        if chunk.size:
                            buckets[d].append(chunk)
                    if low < round_min:
                        round_min = low
            deferred = batch[~accept_mask]
            if deferred.size:
                deferred = deferred[
                    alive[deferred] & (degree[deferred] == cursor)
                ]
            batch = deferred
        # Fixpoint iterations accept out of id order; the sequential
        # order within a round is ascending id, so restore it.
        round_selection.sort()
        selection.extend(round_selection)
        cursor = round_min
    return tuple(selection)


def _scalar_round(batch, cursor, degree, alive, offsets, targets,
                  buckets, round_selection, round_min):
    """Finish one DynamicUpdate round with the reference's scalar loop.

    Returns the updated round minimum degree and the number of vertices
    removed (selected plus neighbours) while finishing the round.
    """

    removed_total = 0
    for vertex in batch.tolist():
        if not alive[vertex] or degree[vertex] != cursor:
            continue
        alive[vertex] = False
        removed_total += 1
        round_selection.append(vertex)
        pushes: Dict[int, List[int]] = {}
        for neighbor in targets[offsets[vertex] : offsets[vertex + 1]].tolist():
            if not alive[neighbor]:
                continue
            alive[neighbor] = False
            removed_total += 1
            for second in targets[
                offsets[neighbor] : offsets[neighbor + 1]
            ].tolist():
                if alive[second]:
                    new_degree = int(degree[second]) - 1
                    degree[second] = new_degree
                    pushes.setdefault(new_degree, []).append(second)
                    if new_degree < round_min:
                        round_min = new_degree
        for new_degree, vertices in pushes.items():
            buckets[new_degree].append(np.asarray(vertices, dtype=np.int64))
    return round_min, removed_total
