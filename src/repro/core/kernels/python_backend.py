"""The pure-Python reference kernel backend.

This is the original, loop-for-loop implementation of the paper's three
algorithms, operating on *any* adjacency scan source — including true
file-backed readers, which makes it the only backend usable on the
semi-external disk path.  It doubles as the ground truth for the
vectorized numpy backend: the property tests in
``tests/test_kernel_backends.py`` assert that both backends return
byte-identical independent sets and telemetry.

The backend also carries the reference implementations of the in-memory
comparator passes (Tables 5–6): the (1,2)-swap local search and the
DynamicUpdate minimum-degree greedy, both running on flat CSR/degree
arrays instead of per-vertex dict-and-set structures.
``tests/test_comparator_kernels.py`` pins the vectorized versions to
these loops.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    decode_history,
    decode_rounds,
    encode_history,
    encode_rounds,
    round_fingerprint,
)
from repro.core.kernels.sc_store import SwapCandidateStore
from repro.core.result import RoundStats
from repro.core.states import VertexState as S
from repro.errors import SolverError

__all__ = ["PythonBackend"]


# Internal compact states of the greedy bitmap-style pass.
_INITIAL = 0
_IN_SET = 1
_EXCLUDED = 2

_PairKey = FrozenSet[int]


def _ints(values) -> List[int]:
    """A snapshot's per-vertex values (ndarray or int list) as Python ints."""

    return np.asarray(values).tolist()


def _round_arrays(state: List[S], isn: list, two_k: bool) -> Dict[str, np.ndarray]:
    """The loop's per-vertex lists as the numpy backend's arrays — uint8
    ``state``, int64 ISN entries (-1 = absent; two-k's low and high anchor
    as ``isn1``/``isn2``) — which the guard hashes and snapshots hand out."""

    arrays = {"state": np.fromiter(state, np.uint8, len(state))}
    if two_k:
        anchors = [sorted(a or ()) + [-1, -1] for a in isn]
        arrays["isn1"] = np.array([a[0] for a in anchors], dtype=np.int64)
        arrays["isn2"] = np.array([a[1] for a in anchors], dtype=np.int64)
    else:
        arrays["isn"] = np.array([-1 if a is None else a for a in isn], np.int64)
    return arrays


class PythonBackend(KernelBackend):
    """Reference implementation: sequential Python loops over scan records."""

    name = "python"

    # ------------------------------------------------------------------
    # Algorithm 1: greedy.
    # ------------------------------------------------------------------
    def greedy_pass(self, source) -> np.ndarray:
        num_vertices = source.num_vertices
        state = bytearray(num_vertices)  # all _INITIAL

        for vertex, neighbors in source.scan():
            if vertex >= num_vertices:
                raise SolverError(
                    f"scan produced vertex {vertex} outside the declared range of "
                    f"{num_vertices} vertices"
                )
            if state[vertex] != _INITIAL:
                continue
            state[vertex] = _IN_SET
            for u in neighbors:
                if state[u] == _INITIAL:
                    state[u] = _EXCLUDED

        return np.flatnonzero(np.frombuffer(state, dtype=np.uint8) == _IN_SET)

    # ------------------------------------------------------------------
    # Algorithm 2: one-k-swap.
    # ------------------------------------------------------------------
    def one_k_swap_pass(
        self,
        source,
        initial_set: np.ndarray,
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[np.ndarray, Tuple[RoundStats, ...], bool]:
        num_vertices = source.num_vertices
        if resume is None:
            state: List[S] = [S.NON_IS] * num_vertices
            for v in initial_set.tolist():
                state[v] = S.IS
            isn: List[Optional[int]] = [None] * num_vertices

            # ----------------------------------------------------------
            # Lines 1-3: find the adjacent ("A") vertices and their IS
            # neighbour.
            # ----------------------------------------------------------
            for vertex, neighbors in source.scan():
                if state[vertex] is S.IS:
                    continue
                is_neighbors = [u for u in neighbors if state[u] is S.IS]
                if len(is_neighbors) == 1:
                    state[vertex] = S.ADJACENT
                    isn[vertex] = is_neighbors[0]

            rounds: List[RoundStats] = []
            initial_size = len(initial_set)
            current_size = initial_size
            can_swap = True
            oscillation = False
            history = (
                {round_fingerprint(*_round_arrays(state, isn, False).values())}
                if max_rounds is None
                else None
            )
        else:
            # Restore the loop exactly where an ``on_round`` snapshot was
            # taken: the labelling scan already happened before the
            # snapshot, so the loop continues without re-reading the file.
            state = [S(value) for value in _ints(resume["state"])]
            isn = [None if value < 0 else value for value in _ints(resume["isn"])]
            rounds = decode_rounds(resume["rounds"])
            initial_size = int(resume["initial_size"])
            current_size = int(resume["current_size"])
            can_swap = bool(resume["can_swap"])
            oscillation = bool(resume["oscillation"])
            history = decode_history(resume["history"])

        def _snapshot(arrays: Dict[str, np.ndarray]) -> dict:
            return {
                "pass": "one_k_swap",
                "initial_size": initial_size,
                **arrays,
                "rounds": encode_rounds(rounds),
                "current_size": current_size,
                "can_swap": can_swap,
                "oscillation": oscillation,
                "history": encode_history(history),
            }

        while (
            not oscillation
            and can_swap
            and (max_rounds is None or len(rounds) < max_rounds)
        ):
            can_swap = False
            one_k_swaps = 0
            zero_one_swaps = 0

            # Number of "A" vertices currently pointing at each IS vertex; the
            # paper stores this count in the (otherwise unused) ISN entries of
            # the IS vertices so it costs no extra memory.
            pointer_count: Dict[int, int] = defaultdict(int)
            for v in range(num_vertices):
                if state[v] is S.ADJACENT and isn[v] is not None:
                    pointer_count[isn[v]] += 1

            # ----------------------------------------------------------
            # Pre-swap scan (Algorithm 2, lines 7-14).
            # ----------------------------------------------------------
            for vertex, neighbors in source.scan():
                if state[vertex] is not S.ADJACENT:
                    continue
                anchor = isn[vertex]
                if anchor is None:  # pragma: no cover - defensive only
                    state[vertex] = S.NON_IS
                    continue

                if any(state[u] is S.PROTECTED for u in neighbors):
                    # Case (i): conflict with an earlier swap candidate.
                    state[vertex] = S.CONFLICT
                    pointer_count[anchor] -= 1
                    continue

                if state[anchor] is S.IS:
                    # Case (ii): does a 1-2 swap skeleton (vertex, v, anchor) exist?
                    adjacent_partners = sum(
                        1
                        for u in neighbors
                        if state[u] is S.ADJACENT and isn[u] == anchor
                    )
                    # pointer_count counts `vertex` itself, hence the -1.
                    if pointer_count[anchor] - 1 - adjacent_partners > 0:
                        state[vertex] = S.PROTECTED
                        state[anchor] = S.RETROGRADE
                        pointer_count[anchor] -= 1
                        continue

                if state[anchor] is S.RETROGRADE:
                    # Case (iii): complete the swap started by an earlier vertex.
                    state[vertex] = S.PROTECTED
                    pointer_count[anchor] -= 1

            # ----------------------------------------------------------
            # Swap phase (lines 15-19): commit the state transitions.  This
            # pass touches only the in-memory state array, not the disk file.
            # ----------------------------------------------------------
            for vertex in range(num_vertices):
                if state[vertex] is S.PROTECTED:
                    state[vertex] = S.IS
                elif state[vertex] is S.RETROGRADE:
                    state[vertex] = S.NON_IS
                    one_k_swaps += 1
                    can_swap = True

            # ----------------------------------------------------------
            # Post-swap scan (lines 20-28): 0↔1 swaps and "A" refresh.  The
            # refresh also covers plain "N" vertices (as Algorithm 3 line 16
            # does): a swap can reduce an N vertex to a single IS neighbour,
            # and without re-labelling it "A" the cascading swaps of the
            # Figure 5 worst case could never propagate.
            # ----------------------------------------------------------
            for vertex, neighbors in source.scan():
                current = state[vertex]
                if current not in (S.NON_IS, S.CONFLICT, S.ADJACENT):
                    continue
                is_neighbors = [u for u in neighbors if state[u] is S.IS]
                if len(is_neighbors) == 1:
                    state[vertex] = S.ADJACENT
                    isn[vertex] = is_neighbors[0]
                else:
                    state[vertex] = S.NON_IS
                    isn[vertex] = None
                if state[vertex] is S.NON_IS:
                    if all(state[u] in (S.CONFLICT, S.NON_IS) for u in neighbors):
                        state[vertex] = S.IS
                        isn[vertex] = None
                        zero_one_swaps += 1

            new_size = sum(1 for v in range(num_vertices) if state[v] is S.IS)
            rounds.append(
                RoundStats(
                    round_index=len(rounds) + 1,
                    gained=new_size - current_size,
                    one_k_swaps=one_k_swaps,
                    two_k_swaps=0,
                    zero_one_swaps=zero_one_swaps,
                    is_size_after=new_size,
                )
            )
            current_size = new_size

            arrays = _round_arrays(state, isn, False)
            if history is not None and can_swap:
                fingerprint = round_fingerprint(*arrays.values())
                if fingerprint in history:
                    oscillation = True
                else:
                    history.add(fingerprint)
            if on_round is not None:
                on_round(_snapshot(arrays))

        # Final 0↔1 completion pass: a swap can remove the last IS neighbour of
        # a vertex that then stays blocked behind an "A" neighbour during the
        # round's post-swap phase; one extra sequential scan restores the
        # maximality guarantee claimed in Section 5.3.
        completion_gain = 0
        for vertex, neighbors in source.scan():
            if state[vertex] is not S.IS and not any(state[u] is S.IS for u in neighbors):
                state[vertex] = S.IS
                completion_gain += 1
        if completion_gain and rounds:
            last = rounds[-1]
            rounds[-1] = RoundStats(
                round_index=last.round_index,
                gained=last.gained + completion_gain,
                one_k_swaps=last.one_k_swaps,
                two_k_swaps=last.two_k_swaps,
                zero_one_swaps=last.zero_one_swaps + completion_gain,
                is_size_after=last.is_size_after + completion_gain,
            )

        members = np.flatnonzero([s is S.IS for s in state])
        return members, tuple(rounds), oscillation

    # ------------------------------------------------------------------
    # Algorithms 3 & 4: two-k-swap.
    # ------------------------------------------------------------------
    def two_k_swap_pass(
        self,
        source,
        initial_set: np.ndarray,
        max_rounds: Optional[int],
        max_pairs_per_key: int,
        max_partner_checks: int,
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[np.ndarray, Tuple[RoundStats, ...], int, bool]:
        num_vertices = source.num_vertices
        if resume is None:
            state: List[S] = [S.NON_IS] * num_vertices
            for v in initial_set.tolist():
                state[v] = S.IS
            isn: List[Optional[FrozenSet[int]]] = [None] * num_vertices

            # ----------------------------------------------------------
            # Lines 1-3: adjacent vertices now have one *or two* IS
            # neighbours.
            # ----------------------------------------------------------
            for vertex, neighbors in source.scan():
                if state[vertex] is S.IS:
                    continue
                is_neighbors = [u for u in neighbors if state[u] is S.IS]
                if 1 <= len(is_neighbors) <= 2:
                    state[vertex] = S.ADJACENT
                    isn[vertex] = frozenset(is_neighbors)

            rounds: List[RoundStats] = []
            initial_size = len(initial_set)
            current_size = initial_size
            can_swap = True
            max_sc_vertices = 0
            oscillation = False
            history = (
                {round_fingerprint(*_round_arrays(state, isn, True).values())}
                if max_rounds is None
                else None
            )
        else:
            # Restore an ``on_round`` snapshot (see one_k_swap_pass); the
            # one-or-two ISN anchors travel as ``isn1``/``isn2`` with -1
            # marking an absent entry.
            state = [S(value) for value in _ints(resume["state"])]
            isn = [
                frozenset(a for a in pair if a >= 0) or None
                for pair in zip(_ints(resume["isn1"]), _ints(resume["isn2"]))
            ]
            rounds = decode_rounds(resume["rounds"])
            initial_size = int(resume["initial_size"])
            current_size = int(resume["current_size"])
            can_swap = bool(resume["can_swap"])
            max_sc_vertices = int(resume["max_sc_vertices"])
            oscillation = bool(resume["oscillation"])
            history = decode_history(resume["history"])

        def _snapshot(arrays: Dict[str, np.ndarray]) -> dict:
            return {
                "pass": "two_k_swap",
                "initial_size": initial_size,
                **arrays,
                "rounds": encode_rounds(rounds),
                "current_size": current_size,
                "can_swap": can_swap,
                "max_sc_vertices": max_sc_vertices,
                "oscillation": oscillation,
                "history": encode_history(history),
            }

        while (
            not oscillation
            and can_swap
            and (max_rounds is None or len(rounds) < max_rounds)
        ):
            can_swap = False
            one_k_swaps = 0
            two_k_swaps = 0
            zero_one_swaps = 0

            sc = SwapCandidateStore(max_pairs_per_key=max_pairs_per_key)
            protected_this_round: set = set()

            # Per-anchor bookkeeping rebuilt at the start of the round:
            #   single_count[w]  - number of "A" vertices whose only IS neighbour is w
            #   members[w]       - "A" vertices having w among their IS neighbours
            single_count: Dict[int, int] = defaultdict(int)
            members: Dict[int, List[int]] = defaultdict(list)
            for v in range(num_vertices):
                if state[v] is S.ADJACENT and isn[v]:
                    for w in isn[v]:
                        members[w].append(v)
                    if len(isn[v]) == 1:
                        single_count[next(iter(isn[v]))] += 1

            def _leaves_adjacent(vertex: int) -> None:
                """Maintain the single-anchor counters when a vertex leaves state A."""

                anchors = isn[vertex]
                if anchors and len(anchors) == 1:
                    single_count[next(iter(anchors))] -= 1

            def _verify_no_protected_neighbor(vertex: int) -> bool:
                """Random-lookup safety check used only for retroactive promotions."""

                if not protected_this_round:
                    return True
                neighborhood = source.neighbors(vertex)
                return not any(u in protected_this_round for u in neighborhood)

            # ----------------------------------------------------------
            # Pre-swap scan (Algorithm 3 lines 7-9, expanded in Algorithm 4).
            # ----------------------------------------------------------
            for vertex, neighbors in source.scan():
                if state[vertex] is not S.ADJACENT:
                    continue
                anchors = isn[vertex]
                if not anchors:  # pragma: no cover - defensive only
                    state[vertex] = S.NON_IS
                    continue
                neighbor_set = set(neighbors)

                # Algorithm 4 line 1-2: record swap candidates for this vertex.
                if len(anchors) == 2 and all(state[w] is S.IS for w in anchors):
                    w1, w2 = sorted(anchors)
                    checked = 0
                    for partner in members[w1] + members[w2]:
                        if checked >= max_partner_checks:
                            break
                        checked += 1
                        if partner == vertex or partner in neighbor_set:
                            continue
                        if state[partner] is not S.ADJACENT:
                            continue
                        partner_anchors = isn[partner]
                        if not partner_anchors or not partner_anchors <= anchors:
                            continue
                        sc.add(anchors, (vertex, partner))
                    max_sc_vertices = max(max_sc_vertices, sc.peak_vertices)

                # Algorithm 4 line 3-4: conflict with an earlier protected vertex.
                if any(state[u] is S.PROTECTED for u in neighbors):
                    state[vertex] = S.CONFLICT
                    _leaves_adjacent(vertex)
                    continue

                # Algorithm 4 line 5-8: complete a 2-3 swap skeleton.
                candidate_keys: List[_PairKey] = []
                if len(anchors) == 2:
                    candidate_keys.append(anchors)
                else:
                    single_anchor = next(iter(anchors))
                    candidate_keys.extend(
                        key for key in sc.keys_for_anchor(single_anchor) if anchors <= key
                    )
                promoted = False
                for key in candidate_keys:
                    if not all(state[w] is S.IS for w in key):
                        continue
                    for first, second in sc.pairs(key):
                        if vertex in (first, second):
                            continue
                        if first in neighbor_set or second in neighbor_set:
                            continue
                        if state[first] is not S.ADJACENT or state[second] is not S.ADJACENT:
                            continue
                        if not (isn[first] == key and (isn[second] or frozenset()) <= key):
                            continue
                        if not (_verify_no_protected_neighbor(first)
                                and _verify_no_protected_neighbor(second)):
                            continue
                        # Commit the 2-3 swap skeleton (vertex, first, second, key).
                        for member in (vertex, first, second):
                            state[member] = S.PROTECTED
                            _leaves_adjacent(member)
                            protected_this_round.add(member)
                        for w in key:
                            state[w] = S.RETROGRADE
                        sc.free(key)
                        two_k_swaps += 1
                        promoted = True
                        break
                    if promoted:
                        break
                if promoted:
                    continue

                # Algorithm 4 line 9-10: fall back to a 1-2 swap skeleton.
                if len(anchors) == 1:
                    anchor = next(iter(anchors))
                    if state[anchor] is S.IS:
                        adjacent_partners = sum(
                            1
                            for u in neighbors
                            if state[u] is S.ADJACENT and isn[u] == anchors
                        )
                        if single_count[anchor] - 1 - adjacent_partners > 0:
                            state[vertex] = S.PROTECTED
                            protected_this_round.add(vertex)
                            state[anchor] = S.RETROGRADE
                            _leaves_adjacent(vertex)
                            one_k_swaps += 1
                            continue

                # Algorithm 4 line 11-12: all IS neighbours already retrograde.
                if all(state[w] is S.RETROGRADE for w in anchors):
                    state[vertex] = S.PROTECTED
                    protected_this_round.add(vertex)
                    _leaves_adjacent(vertex)

            max_sc_vertices = max(max_sc_vertices, sc.peak_vertices)

            # ----------------------------------------------------------
            # Swap phase (Algorithm 3 lines 10-14).
            # ----------------------------------------------------------
            for vertex in range(num_vertices):
                if state[vertex] is S.PROTECTED:
                    state[vertex] = S.IS
                elif state[vertex] is S.RETROGRADE:
                    state[vertex] = S.NON_IS
                    can_swap = True

            # ----------------------------------------------------------
            # Post-swap scan (Algorithm 3 lines 15-23).
            # ----------------------------------------------------------
            for vertex, neighbors in source.scan():
                current = state[vertex]
                if current not in (S.CONFLICT, S.ADJACENT, S.NON_IS):
                    continue
                is_neighbors = [u for u in neighbors if state[u] is S.IS]
                if 1 <= len(is_neighbors) <= 2:
                    state[vertex] = S.ADJACENT
                    isn[vertex] = frozenset(is_neighbors)
                else:
                    state[vertex] = S.NON_IS
                    isn[vertex] = None
                if state[vertex] is S.NON_IS:
                    if all(state[u] in (S.CONFLICT, S.NON_IS) for u in neighbors):
                        state[vertex] = S.IS
                        isn[vertex] = None
                        zero_one_swaps += 1

            new_size = sum(1 for v in range(num_vertices) if state[v] is S.IS)
            rounds.append(
                RoundStats(
                    round_index=len(rounds) + 1,
                    gained=new_size - current_size,
                    one_k_swaps=one_k_swaps,
                    two_k_swaps=two_k_swaps,
                    zero_one_swaps=zero_one_swaps,
                    is_size_after=new_size,
                    sc_vertices=sc.peak_vertices,
                )
            )
            current_size = new_size

            arrays = _round_arrays(state, isn, True)
            if history is not None and can_swap:
                fingerprint = round_fingerprint(*arrays.values())
                if fingerprint in history:
                    oscillation = True
                else:
                    history.add(fingerprint)
            if on_round is not None:
                on_round(_snapshot(arrays))

        # Final 0↔1 completion pass (same rationale as in one_k_swap): guarantee
        # maximality of the returned set with one extra sequential scan.
        completion_gain = 0
        for vertex, neighbors in source.scan():
            if state[vertex] is not S.IS and not any(state[u] is S.IS for u in neighbors):
                state[vertex] = S.IS
                completion_gain += 1
        if completion_gain and rounds:
            last = rounds[-1]
            rounds[-1] = RoundStats(
                round_index=last.round_index,
                gained=last.gained + completion_gain,
                one_k_swaps=last.one_k_swaps,
                two_k_swaps=last.two_k_swaps,
                zero_one_swaps=last.zero_one_swaps + completion_gain,
                is_size_after=last.is_size_after + completion_gain,
                sc_vertices=last.sc_vertices,
            )

        members = np.flatnonzero([s is S.IS for s in state])
        return members, tuple(rounds), max_sc_vertices, oscillation

    # ------------------------------------------------------------------
    # In-memory comparators (Tables 5-6).
    # ------------------------------------------------------------------
    def local_search_pass(
        self,
        graph,
        initial_set: np.ndarray,
        max_iterations: int,
    ) -> Tuple[np.ndarray, int]:
        num_vertices = graph.num_vertices
        offsets, targets = _csr_lists(graph)
        initial = initial_set.tolist()
        selected = bytearray(num_vertices)
        for v in initial:
            selected[v] = 1
        # tight[u] = number of selected neighbours of u (0 for IS members).
        tight = [0] * num_vertices
        for v in initial:
            for u in targets[offsets[v] : offsets[v + 1]]:
                tight[u] += 1

        degree_order = graph.degree_ascending_order()

        def _select(vertex: int) -> None:
            selected[vertex] = 1
            for u in targets[offsets[vertex] : offsets[vertex + 1]]:
                tight[u] += 1

        # Initial maximalisation in ascending (degree, id) order.
        for v in degree_order:
            if not selected[v] and tight[v] == 0:
                _select(v)

        degrees = graph.degrees()
        iterations = 0
        improved = True
        while improved and iterations < max_iterations:
            improved = False
            snapshot = [v for v in range(num_vertices) if selected[v]]
            for vertex in snapshot:
                if not selected[vertex]:
                    continue
                # Loose neighbours: unselected, their only IS neighbour is
                # `vertex` (tight == 1 and adjacency to `vertex` imply it).
                start, end = offsets[vertex], offsets[vertex + 1]
                candidates = [
                    u
                    for u in targets[start:end]
                    if not selected[u] and tight[u] == 1
                ]
                if len(candidates) < 2:
                    continue
                replacement = None
                for index, first in enumerate(candidates):
                    first_start, first_end = offsets[first], offsets[first + 1]
                    for second in candidates[index + 1 :]:
                        slot = bisect_left(targets, second, first_start, first_end)
                        if slot >= first_end or targets[slot] != second:
                            replacement = (first, second)
                            break
                    if replacement:
                        break
                if replacement is None:
                    continue
                # Commit the (1,2) swap.
                selected[vertex] = 0
                for u in targets[start:end]:
                    tight[u] -= 1
                _select(replacement[0])
                _select(replacement[1])
                iterations += 1
                improved = True
                # Local re-maximalisation: only neighbours of the removed
                # vertex can have become free.
                freed = [
                    u
                    for u in targets[start:end]
                    if not selected[u] and tight[u] == 0
                ]
                freed.sort(key=lambda u: (degrees[u], u))
                for u in freed:
                    if not selected[u] and tight[u] == 0:
                        _select(u)
                if iterations >= max_iterations:
                    break

        return np.flatnonzero(np.frombuffer(selected, dtype=np.uint8)), iterations

    def dynamic_update_pass(self, graph) -> Tuple[int, ...]:
        num_vertices = graph.num_vertices
        if num_vertices == 0:
            return ()
        offsets, targets = _csr_lists(graph)
        degree = [offsets[v + 1] - offsets[v] for v in range(num_vertices)]
        alive = bytearray([1]) * num_vertices
        max_degree = max(degree)
        # Flat bucket queue over current degrees; entries can be stale (a
        # vertex whose degree changed) and are skipped on inspection.
        buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
        for v in range(num_vertices):
            buckets[degree[v]].append(v)

        selection: List[int] = []
        cursor = 0
        remaining = num_vertices
        while remaining and cursor <= max_degree:
            bucket = buckets[cursor]
            if not bucket:
                cursor += 1
                continue
            buckets[cursor] = []
            snapshot = sorted(
                v for v in bucket if alive[v] and degree[v] == cursor
            )
            if not snapshot:
                continue
            round_min = cursor
            for vertex in snapshot:
                if not alive[vertex] or degree[vertex] != cursor:
                    continue
                alive[vertex] = 0
                remaining -= 1
                selection.append(vertex)
                for neighbor in targets[offsets[vertex] : offsets[vertex + 1]]:
                    if not alive[neighbor]:
                        continue
                    alive[neighbor] = 0
                    remaining -= 1
                    for second in targets[offsets[neighbor] : offsets[neighbor + 1]]:
                        if alive[second]:
                            new_degree = degree[second] - 1
                            degree[second] = new_degree
                            buckets[new_degree].append(second)
                            if new_degree < round_min:
                                round_min = new_degree
            cursor = round_min
        return tuple(selection)

    def dynamic_apply_pass(self, maintainer, insertions, deletions) -> None:
        """Scalar reference: apply every update with the per-edge methods.

        This is exactly the pre-refactor ``apply_updates`` loop and the
        parity ground truth for the numpy backend's vectorized waves.
        """

        for u, v in insertions:
            maintainer.insert_edge(u, v)
        for u, v in deletions:
            maintainer.delete_edge(u, v)


def _csr_lists(graph) -> Tuple[List[int], List[int]]:
    """The graph's CSR arrays as plain Python lists (fast scalar indexing)."""

    offsets, targets = graph.csr_arrays()
    return offsets.tolist(), targets.tolist()


#: The instance :func:`~repro.core.kernels.base.get_backend` returns.
BACKEND = PythonBackend()
