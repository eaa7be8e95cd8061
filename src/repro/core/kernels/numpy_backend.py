"""Vectorized NumPy kernel backend.

The backend runs each of the paper's algorithms as one ndarray
execution over a *record-major* CSR (:class:`RecordCSR`): the zero-copy
sections of a ``SEXTCSR1`` memmap, or an in-memory graph gathered into
scan order once.  Text inputs spill once to a private ``SEXTCSR1``
memmap; the spill is not charged to ``IOStats``.  Per-vertex arrays
(states, ISN, counters) stay in memory — the semi-external model — while
the edges stay on disk, and ``source.charge_scan()`` charges every
sequential scan the algorithm makes exactly like the record-streaming
reference.

* Algorithm 1 (greedy), :meth:`NumpyBackend.greedy_pass`: one chunked
  scan over the record rows; an in-memory graph uses its own CSR rows in
  scan order, with no per-edge gather.
* Algorithm 2 (one-k), :func:`one_k_records`: the pre-swap scan runs as
  conflict-free waves.
* Algorithms 3-4 (two-k), :func:`two_k_records`: the pre-swap scan
  decides every candidate's no-op verdict with vectorized round-start
  compares and runs Algorithm 4's body only on the candidates that may
  act — those that can fire at round start and those an earlier event
  reached through a neighbour or a shared anchor.

Both post-swap scans are vectorized base labelling plus a sparse event
loop (:func:`_post_swap`, one or two anchors), and their count/sum/blocker
arrays are maintained at O(changed) per round.

Elsewhere every full-graph O(n)/O(E) sweep is an ndarray operation:

* the greedy exclusion writes are fancy-indexed stores into a ``uint8``
  state bitmap;
* "A"-vertex labelling (the count of IS neighbours per vertex) is one
  ``np.bincount`` over the CSR edge slots, and the identity of a unique
  IS neighbour falls out of a weighted bincount (the sum of IS neighbour
  ids *is* the neighbour when the count is one; with two, the smaller id
  is a minimum over the record's IS neighbours);
* the two-k-swap partner search joins candidates against a lexsorted
  ``(anchor, member)`` ISN index instead of probing per-vertex dicts;
* pointer counts, swap commits (P→IS, R→N) and set sizes are mask
  operations.

The in-memory comparators (:mod:`repro.core.kernels.numpy_comparators`)
and the stream maintainer's wave kernel
(:mod:`repro.core.kernels.numpy_waves`) are modules of their own, which
the backend imports on their first call: a solve loads neither.

Every execution produces results bit-identical to the ``python``
reference backend, including the per-round telemetry and the ``IOStats``
counters.  The property tests in ``tests/test_kernel_backends.py``,
``tests/test_semi_external.py``, ``tests/test_one_k_engine.py`` and
``tests/test_two_k_engine.py`` enforce this on randomized graphs.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    apply_overlays,
    decode_history,
    decode_rounds,
    encode_history,
    encode_rounds,
    initial_digest,
    round_fingerprint,
    round_overlay,
)
from repro.core.kernels.sc_store import SwapCandidateStore
from repro.core.result import RoundStats, as_members
from repro.core.states import VertexState as S
from repro.storage.scan import InMemoryAdjacencyScan

__all__ = ["NumpyBackend"]

# Plain-int state codes (VertexState values) for fast uint8 array compares.
_IS = int(S.IS)
_NON = int(S.NON_IS)
_ADJ = int(S.ADJACENT)
_PRO = int(S.PROTECTED)
_CON = int(S.CONFLICT)
_RET = int(S.RETROGRADE)

#: Chunk size of the in-memory greedy scan: vertices already excluded are
#: skipped in bulk instead of paying one Python iteration each.
_GREEDY_CHUNK = 8192


def _int_bincount(values, weights, minlength: int):
    """Weighted bincount cast back to int64 (weights are small exact ints)."""

    return np.bincount(values, weights=weights, minlength=minlength).astype(np.int64)


def _local_sources(num_records: int, lens):
    """Batch-local source index of every CSR slot (``bincount`` key)."""

    return np.repeat(np.arange(num_records, dtype=np.int64), lens)


def _partner_mask(state, isn1, isn2, partners, v, w1, w2):
    """Algorithm 4 line 2's partner predicate, bar the neighbour check.

    ``partners`` is an array of ``members(w1) + members(w2)`` entries;
    ``v``/``w1``/``w2`` are the scanned candidate and its anchors, as
    scalars or as arrays aligned with ``partners``.  A partner qualifies
    when it is another "A" vertex whose IS neighbours lie inside
    ``{w1, w2}``.  The scalar candidate body and the vectorized round-start
    join both filter with this one predicate.
    """

    p1 = isn1[partners]
    p2 = isn2[partners]
    return (
        (partners != v)
        & (state[partners] == _ADJ)
        & ((p1 == w1) | (p1 == w2))
        & ((p2 < 0) | (p2 == w1) | (p2 == w2))
    )


class _TwoKRound:
    """Per-round context of the two-k pre-swap scan.

    The round bookkeeping the reference builds with per-vertex dict
    appends — the ``ISN`` membership lists and the single-anchor pointer
    counts — is built here as one lexsorted ``(anchor, member)`` join, and
    the partner search over ``members(w1) + members(w2)`` is filtered with
    vectorized compares instead of per-partner Python checks.  The
    candidate processing itself mirrors Algorithm 4 line for line.
    """

    __slots__ = (
        "state",
        "isn1",
        "isn2",
        "sc",
        "source",
        "max_partner_checks",
        "protected",
        "one_k_swaps",
        "two_k_swaps",
        "mem_sorted",
        "mem_starts",
        "single_count",
        "join_vertex",
        "join_partner",
        "joinable",
    )

    def __init__(
        self,
        num_vertices: int,
        state,
        isn1,
        isn2,
        sc: SwapCandidateStore,
        source,
        max_partner_checks: int,
    ) -> None:
        self.state = state
        self.isn1 = isn1
        self.isn2 = isn2
        self.sc = sc
        self.source = source
        self.max_partner_checks = max_partner_checks
        self.protected: Set[int] = set()
        self.one_k_swaps = 0
        self.two_k_swaps = 0

        # The membership join: every "A" vertex contributes the pairs
        # (anchor, vertex) for its one or two IS anchors; sorting by
        # (anchor, member) yields members(w) as one contiguous ascending
        # slice per anchor — identical content and order to the
        # reference's insertion-ordered dict-of-lists.
        adj_idx = np.flatnonzero(state == _ADJ)
        first_anchor = isn1[adj_idx]
        second_anchor = isn2[adj_idx]
        has_second = second_anchor >= 0
        anchors = np.concatenate((first_anchor, second_anchor[has_second]))
        members = np.concatenate((adj_idx, adj_idx[has_second]))
        order = np.lexsort((members, anchors))
        self.mem_sorted = members[order]
        counts = np.bincount(anchors, minlength=num_vertices)
        self.mem_starts = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=self.mem_starts[1:])
        self.single_count = np.bincount(
            isn1[adj_idx[~has_second]], minlength=num_vertices
        ).astype(np.int64)

        # The round-start partner join (Algorithm 4 line 2, bar the
        # neighbour check) of every two-anchor candidate whose anchors are
        # both IS, expanded at once: pairs (join_vertex, join_partner).
        # Candidates only leave "A" and anchors only leave IS during a
        # round, so a join empty here is empty at the candidate's scan
        # position too, and its body skips the join (``joinable``).
        pair = adj_idx[has_second]
        w1 = first_anchor[has_second]
        w2 = second_anchor[has_second]
        both_is = (state[w1] == _IS) & (state[w2] == _IS)
        pair, w1, w2 = pair[both_is], w1[both_is], w2[both_is]
        start1 = self.mem_starts[w1]
        len1 = self.mem_starts[w1 + 1] - start1
        start2 = self.mem_starts[w2]
        lens = np.minimum(len1 + self.mem_starts[w2 + 1] - start2, max_partner_checks)
        src = _local_sources(pair.size, lens)
        rank = np.arange(src.size, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        len1 = len1[src]
        partners = self.mem_sorted[
            np.where(rank < len1, start1[src] + rank, start2[src] + rank - len1)
        ]
        keep = _partner_mask(state, isn1, isn2, partners, pair[src], w1[src], w2[src])
        self.join_vertex = pair[src[keep]]
        self.join_partner = partners[keep]
        self.joinable = np.zeros(num_vertices, dtype=bool)
        self.joinable[self.join_vertex] = True

    def members(self, anchor: int):
        """The "A" vertices having ``anchor`` among their IS neighbours."""

        return self.mem_sorted[self.mem_starts[anchor] : self.mem_starts[anchor + 1]]

    def processor(self):
        """Build the per-candidate closure running Algorithm 4.

        Everything hot is captured as a closure variable (not an attribute
        lookup), matching the cost profile of a fully inlined loop; only
        the rare counter updates go through ``self``.

        The closure returns ``None`` when the candidate changed nothing,
        and otherwise the tuple of vertices it moved out of state "A"
        (empty when it only recorded swap candidates) — the events the
        record-major scan turns into hazards for later candidates.
        """

        ctx = self
        state = self.state
        isn1 = self.isn1
        isn2 = self.isn2
        sc = self.sc
        source = self.source
        max_partner_checks = self.max_partner_checks
        protected = self.protected
        single_count = self.single_count
        members = self.members
        joinable = self.joinable
        # Neighbour marks for the join's adjacency filter, cleared after use.
        marked = np.zeros(state.size, dtype=bool)

        def leaves_adjacent(vertex: int) -> None:
            if isn2[vertex] < 0 and isn1[vertex] >= 0:
                single_count[isn1[vertex]] -= 1

        def verify_no_protected_neighbor(vertex: int) -> bool:
            if not protected:
                return True
            neighborhood = source.neighbors(vertex)
            return not any(u in protected for u in neighborhood)

        def process(v: int, nbrs):
            """Algorithm 4 for one scanned "A" candidate with neighbours ``nbrs``."""

            w1 = int(isn1[v])
            w2 = int(isn2[v])
            nstate = state[nbrs]
            neighbor_set = None
            recorded = False

            # Algorithm 4 line 1-2: record swap candidates via the join.
            if joinable[v] and state[w1] == _IS and state[w2] == _IS:
                partners = np.concatenate((members(w1), members(w2)))
                partners = partners[:max_partner_checks]
                partners = partners[
                    _partner_mask(state, isn1, isn2, partners, v, w1, w2)
                ]
                if partners.size:
                    marked[nbrs] = True
                    partners = partners[~marked[partners]]
                    marked[nbrs] = False
                if partners.size:
                    key = frozenset((w1, w2))
                    for partner in partners.tolist():
                        sc.add(key, (v, partner))
                    recorded = True

            # Algorithm 4 line 3-4: conflict with an earlier P vertex.
            if (nstate == _PRO).any():
                state[v] = _CON
                leaves_adjacent(v)
                return (v,)

            # Algorithm 4 line 5-8: complete a 2-3 swap skeleton.
            if w2 >= 0:
                candidate_keys = [frozenset((w1, w2))]
            else:
                candidate_keys = list(sc.keys_for_anchor(w1))
            for key in candidate_keys:
                kl, kh = sorted(key)
                if state[kl] != _IS or state[kh] != _IS:
                    continue
                for first_v, second_v in sc.pairs(key):
                    if v in (first_v, second_v):
                        continue
                    if neighbor_set is None:
                        neighbor_set = set(nbrs.tolist())
                    if first_v in neighbor_set or second_v in neighbor_set:
                        continue
                    if state[first_v] != _ADJ or state[second_v] != _ADJ:
                        continue
                    # isn[first] == key, isn[second] <= key.
                    if isn1[first_v] != kl or isn2[first_v] != kh:
                        continue
                    s1 = isn1[second_v]
                    s2 = isn2[second_v]
                    if s1 != kl and s1 != kh:
                        continue
                    if s2 >= 0 and s2 != kl and s2 != kh:
                        continue
                    if not (
                        verify_no_protected_neighbor(first_v)
                        and verify_no_protected_neighbor(second_v)
                    ):
                        continue
                    for member in (v, first_v, second_v):
                        state[member] = _PRO
                        leaves_adjacent(member)
                        protected.add(member)
                    state[kl] = _RET
                    state[kh] = _RET
                    sc.free(key)
                    ctx.two_k_swaps += 1
                    return (v, first_v, second_v)

            # Algorithm 4 line 9-10: fall back to a 1-2 swap skeleton.
            if w2 < 0 and state[w1] == _IS:
                adjacent_partners = int(
                    ((nstate == _ADJ) & (isn1[nbrs] == w1) & (isn2[nbrs] < 0)).sum()
                )
                if single_count[w1] - 1 - adjacent_partners > 0:
                    state[v] = _PRO
                    protected.add(v)
                    state[w1] = _RET
                    leaves_adjacent(v)
                    ctx.one_k_swaps += 1
                    return (v,)

            # Algorithm 4 line 11-12: all IS neighbours already retrograde.
            if state[w1] == _RET and (w2 < 0 or state[w2] == _RET):
                state[v] = _PRO
                protected.add(v)
                leaves_adjacent(v)
                return (v,)
            return () if recorded else None

        return process


# ----------------------------------------------------------------------
# Record-major one-k engine (Algorithm 2 over a scan-ordered CSR).
# ----------------------------------------------------------------------
#: Candidate window of the one-k pre-swap wave: the bounded chunk in which
#: the segment cut is searched, so a cut near the front stays cheap.
_WAVE_WINDOW = 8192


class RecordCSR:
    """Record-major CSR of a scan source.

    ``order[i]`` is the vertex id of the ``i``-th record in scan order,
    ``pos`` its inverse, and ``indptr``/``indices`` the concatenated
    neighbour lists in record order (``indices`` keeps the on-disk uint32
    of a memmap — the kernels are dtype-agnostic).
    """

    __slots__ = ("num_vertices", "order", "pos", "indptr", "indices")

    def __init__(self, num_vertices: int, order, indptr, indices) -> None:
        self.num_vertices = int(num_vertices)
        self.order = order
        self.indptr = indptr
        self.indices = indices
        self.pos = np.empty(self.num_vertices, dtype=np.int64)
        self.pos[order] = np.arange(order.size, dtype=np.int64)


def record_csr(source) -> RecordCSR:
    """The record-major CSR of a source the backend supports.

    A ``SEXTCSR1`` memmap is record-major on disk, so its sections are
    used as zero-copy views, and a text adjacency reader serves the views
    of its one private ``SEXTCSR1`` spill (edges on disk, O(n) resident
    state).  An in-memory graph is gathered into scan order once, into
    plain ndarrays.
    """

    if isinstance(source, InMemoryAdjacencyScan):
        offsets, targets = source.graph.csr_arrays()
        offsets = np.asarray(offsets, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        order = source.order_array()
        lens = offsets[order + 1] - offsets[order]
        indptr = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        gather = np.arange(int(indptr[-1]), dtype=np.int64) + np.repeat(
            offsets[order] - indptr[:-1], lens
        )
        return RecordCSR(source.num_vertices, order, indptr, targets[gather])
    order, indptr, indices = source.csr_views()
    # Plain ndarray views: slicing the np.memmap subclass costs a
    # Python-level __getitem__/__array_finalize__ per call.
    return RecordCSR(
        source.num_vertices,
        np.asarray(order, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices),
    )


def label_vertices(csr, state):
    """IS-neighbour count and id sum of every vertex of a record-major CSR.

    Where the count is one, the sum *is* the unique IS neighbour
    (Algorithm 2 lines 1-3).
    """

    indptr, indices = csr.indptr, csr.indices
    records = indptr.size - 1
    is_slot = state[indices] == _IS
    src_sel = _local_sources(records, np.diff(indptr))[is_slot]
    cnt_rec = np.bincount(src_sel, minlength=records).astype(np.int64)
    sum_rec = _int_bincount(src_sel, indices[is_slot], records)
    cnt = np.empty(csr.num_vertices, dtype=np.int64)
    nbr_sum = np.empty(csr.num_vertices, dtype=np.int64)
    cnt[csr.order] = cnt_rec
    nbr_sum[csr.order] = sum_rec
    return cnt, nbr_sum


def _scatter_neighbors(csr, recs, values=None):
    """Per-vertex sums over the concatenated neighbour lists of ``recs``.

    Returns the length-``num_vertices`` int64 array ``out`` with
    ``out[u] = sum over k with u adjacent to record recs[k] of values[k]``
    (``values`` defaults to all ones).  The weighted bincount goes through
    float64, which is exact for these small integer weights and
    vertex-id-bounded sums.
    """

    indptr = csr.indptr
    lens = indptr[recs + 1] - indptr[recs]
    nbrs = csr.indices[_ragged_slot_indices(indptr[recs], lens)]
    if values is None:
        return np.bincount(nbrs, minlength=csr.num_vertices).astype(
            np.int64, copy=False
        )
    return _int_bincount(
        nbrs, np.repeat(values, lens).astype(np.float64), csr.num_vertices
    )


def _scatter_cnt_sum(csr, recs, values):
    """Count and weighted-sum scatters of one record set, one gather.

    Returns ``(cnt_inc, sum_inc)`` — the per-vertex neighbour-count and
    neighbour-``values``-sum increments contributed by ``recs`` — sharing
    a single ragged gather of the neighbour lists (the two quantities are
    always applied together when IS membership changes).
    """

    indptr = csr.indptr
    lens = indptr[recs + 1] - indptr[recs]
    nbrs = csr.indices[_ragged_slot_indices(indptr[recs], lens)]
    cnt_inc = np.bincount(nbrs, minlength=csr.num_vertices).astype(
        np.int64, copy=False
    )
    sum_inc = _int_bincount(
        nbrs, np.repeat(values, lens).astype(np.float64), csr.num_vertices
    )
    return cnt_inc, sum_inc


class _SwapRounds:
    """Round-loop bookkeeping shared by the swap passes.

    Holds what every pass snapshots besides its per-vertex arrays — the
    round telemetry, set sizes, the can-swap flag, ``max_sc_vertices``
    (two-k) and the oscillation guard's fingerprint history — and builds
    the ``on_round`` snapshot in the python reference's key order.
    ``arrays`` maps the snapshot names of the per-vertex arrays (``state``
    first) to the live ndarrays, initialised here from the initial set.

    Once the pass has labelled them (Algorithm 2/3 lines 1-3),
    :meth:`labelled` keeps that *labelled start* as the pass's base,
    narrowed to uint8 ``state`` and int32 ISN entries, and every snapshot
    stores each array as an overlay on it (:func:`round_overlay`).  A
    resume rebuilds the same start from the same initial set and applies
    the overlays over it.
    """

    def __init__(
        self,
        pass_name: str,
        arrays: Dict[str, np.ndarray],
        initial_set: np.ndarray,
        max_rounds: Optional[int],
        resume: Optional[dict],
    ) -> None:
        self.pass_name = pass_name
        self.arrays = arrays
        self.initial_set = initial_set
        self.max_rounds = max_rounds
        self.resume = resume
        self.two_k = pass_name == "two_k_swap"
        state = arrays["state"]
        state[:] = _NON
        state[initial_set] = _IS
        for name, array in arrays.items():
            if name != "state":
                array[:] = -1
        self.base: Dict[str, np.ndarray] = {}
        self.digest: Optional[str] = None
        self.rounds: List[RoundStats] = []
        self.current_size = initial_set.size
        self.can_swap = True
        self.max_sc_vertices = 0
        self.oscillation = False
        self.history = None

    def labelled(self) -> bool:
        """Keep the labelled start; then restore a resumed snapshot over it
        or seed the guard's history.  Returns whether the pass resumed."""

        isn_dtype = np.int32 if self.arrays["state"].size < 2 ** 31 else np.int64
        self.base = {
            name: array.astype(np.uint8 if name == "state" else isn_dtype)
            for name, array in self.arrays.items()
        }
        resume = self.resume
        if resume is None:
            if self.max_rounds is None:
                self.history = {round_fingerprint(*self.arrays.values())}
            return False
        apply_overlays(resume, self.arrays, self.initial_set)
        self.rounds = decode_rounds(resume["rounds"])
        self.current_size = int(resume["current_size"])
        self.can_swap = bool(resume["can_swap"])
        self.max_sc_vertices = int(resume.get("max_sc_vertices", 0))
        self.oscillation = bool(resume["oscillation"])
        self.history = decode_history(resume["history"])
        return True

    def running(self) -> bool:
        return (
            not self.oscillation
            and self.can_swap
            and (self.max_rounds is None or len(self.rounds) < self.max_rounds)
        )

    def end_round(self, on_round, **swaps) -> None:
        """Append the round's telemetry, run the guard, hand out a snapshot."""

        state = self.arrays["state"]
        new_size = int((state == _IS).sum())
        self.rounds.append(
            RoundStats(
                round_index=len(self.rounds) + 1,
                gained=new_size - self.current_size,
                is_size_after=new_size,
                **swaps,
            )
        )
        self.current_size = new_size
        if self.history is not None and self.can_swap:
            digest = round_fingerprint(*self.arrays.values())
            if digest in self.history:
                self.oscillation = True
            else:
                self.history.add(digest)
        if on_round is not None:
            on_round(self.snapshot())

    def snapshot(self) -> dict:
        """The loop state, each per-vertex array as an overlay on the
        labelled start (fresh ndarrays, so a snapshot the caller keeps
        never sees later rounds)."""

        if self.digest is None:
            self.digest = initial_digest(self.initial_set)
        snapshot = {"pass": self.pass_name, "initial_digest": self.digest}
        for name, array in self.arrays.items():
            snapshot[name] = round_overlay(array, self.base[name])
        snapshot.update(
            rounds=encode_rounds(self.rounds),
            current_size=self.current_size,
            can_swap=self.can_swap,
        )
        if self.two_k:
            snapshot["max_sc_vertices"] = self.max_sc_vertices
        snapshot.update(
            oscillation=self.oscillation, history=encode_history(self.history)
        )
        return snapshot

    def result(self, gain: int):
        """The pass result, crediting the final completion's ``gain`` 0-1
        swaps to the last round."""

        if gain and self.rounds:
            last = self.rounds[-1]
            self.rounds[-1] = dataclasses.replace(
                last,
                gained=last.gained + gain,
                zero_one_swaps=last.zero_one_swaps + gain,
                is_size_after=last.is_size_after + gain,
            )
        members = np.flatnonzero(self.arrays["state"] == _IS)
        if self.two_k:
            return (
                members,
                tuple(self.rounds),
                self.max_sc_vertices,
                self.oscillation,
            )
        return members, tuple(self.rounds), self.oscillation


def one_k_records(
    csr,
    source,
    initial_set: np.ndarray,
    max_rounds: Optional[int],
    resume: Optional[dict],
    on_round,
) -> Tuple[np.ndarray, Tuple[RoundStats, ...], bool]:
    """Algorithm 2 over a record-major CSR — the one vectorized one-k.

    * the pre-swap scan runs as conflict-free waves
      (:func:`_one_k_preswap_wave`);
    * the post-swap scan is vectorized base labelling plus a sparse event
      loop (:func:`_post_swap`);
    * the count/sum/blocker arrays are labelled once per pass and then
      maintained by exact integer delta scatters over the vertices that
      changed class, so a round costs work proportional to what changed
      rather than one O(E) sweep.

    ``source.charge_scan()`` charges one logical sequential scan at every
    point the paper's algorithm scans the file.  Sets, round telemetry,
    snapshots and modeled ``IOStats`` are bit-identical to the python
    reference.
    """

    n = csr.num_vertices
    pos = csr.pos
    order = csr.order
    charge_scan = source.charge_scan
    state = np.empty(n, dtype=np.uint8)
    isn = np.empty(n, dtype=np.int64)
    loop = _SwapRounds(
        "one_k_swap",
        {"state": state, "isn": isn},
        initial_set,
        max_rounds,
        resume,
    )

    # Labelling (lines 1-3).  A resume replays it without charging the
    # scan, restores the snapshot over it and recounts for the restored
    # state (round boundaries only hold IS / A / N).
    cnt, nbr_sum = label_vertices(csr, state)
    a_mask = (state != _IS) & (cnt == 1)
    state[a_mask] = _ADJ
    isn[a_mask] = nbr_sum[a_mask]
    if loop.labelled():
        cnt, nbr_sum = label_vertices(csr, state)
    else:
        charge_scan()

    # ``isadj[u]`` = number of neighbours of ``u`` whose state is IS or A
    # — the post-swap ``blocker`` base.  It is seeded once from the
    # labelling and then maintained by exact integer deltas.
    isadj = cnt.copy()
    adj_verts = np.flatnonzero(state == _ADJ)
    if adj_verts.size:
        isadj += _scatter_neighbors(csr, pos[adj_verts])

    member_pos = np.full(n, -1, dtype=np.int64)

    while loop.running():
        # |ISN^-1(w)| for every IS vertex w, as one bincount.
        adj_mask = state == _ADJ
        pointer_count = np.bincount(
            isn[adj_mask & (isn >= 0)], minlength=n
        ).astype(np.int64)

        con_recs, pro_recs, def_recs, ret_verts = _one_k_preswap_wave(
            csr, state, isn, pointer_count, member_pos
        )
        charge_scan()

        # Swap phase (lines 15-19).
        retro = state == _RET
        state[state == _PRO] = _IS
        state[retro] = _NON
        one_k_swaps = int(retro.sum())
        loop.can_swap = one_k_swaps > 0

        # Exact incremental maintenance of the post-swap base arrays:
        # promoted candidates (A -> P -> IS) join the set, retreating
        # anchors (IS -> R -> N) leave it, and every candidate that
        # stopped blocking (A -> C, the defensive A -> N, and the
        # anchors) drops out of the IS|A neighbour counts.
        if pro_recs.size:
            pro_cnt, pro_sum = _scatter_cnt_sum(csr, pro_recs, order[pro_recs])
            cnt += pro_cnt
            nbr_sum += pro_sum
        if ret_verts.size:
            ret_recs = pos[ret_verts]
            ret_cnt, ret_sum = _scatter_cnt_sum(csr, ret_recs, ret_verts)
            cnt -= ret_cnt
            nbr_sum -= ret_sum
            isadj -= ret_cnt
        if con_recs.size:
            isadj -= _scatter_neighbors(csr, con_recs)
        if def_recs.size:
            isadj -= _scatter_neighbors(csr, def_recs)

        zero_one_swaps = _post_swap(csr, state, isn, cnt, nbr_sum, isadj)
        charge_scan()
        loop.end_round(
            on_round,
            one_k_swaps=one_k_swaps,
            two_k_swaps=0,
            zero_one_swaps=zero_one_swaps,
        )

    gain = _completion(csr, state, cnt)
    charge_scan()
    return loop.result(gain)


def _one_k_preswap_wave(csr, state, isn, pointer_count, member_pos):
    """Algorithm 2 lines 7-14 as conflict-free vectorized prefixes.

    A candidate's serial decision reads only (a) the PRO flags and
    same-anchor-A membership of its neighbours, (b) its anchor's state and
    pointer count.  Every state that can change mid-scan belongs to
    *candidates* (A vertices) or their anchors, so the whole scan factors
    over the candidate-candidate adjacency:

    * ``partner0`` (same-anchor A neighbours at round start) and the
      earlier-candidate dependency edges are computed once per round from
      a single ragged gather;
    * the scan is cut into segments at each candidate whose ``prev``
      (nearest earlier candidate-neighbour) falls inside the current
      segment — within a segment no member observes another, so its
      case-(i) flags and partner corrections follow exactly from the
      recorded outcomes of earlier segments along the dependency edges
      (no per-window re-gather of neighbour state at all);
    * the remaining coupling runs through shared anchors only and resolves
      as a vectorized fold over each same-anchor group: before a group's
      first promotion the anchor's pointer count has been decremented only
      by the group's earlier case-(i) members, and after the first
      promotion the anchor is RETROGRADE so every later non-case-(i)
      member promotes unconditionally — the first promotion index per
      group is a segmented minimum.

    Returns ``(con_recs, pro_recs, def_recs, ret_verts)`` — the records of
    candidates that became C, became P, were defensively dropped to N, and
    the vertex ids of anchors that retreated — the exact transition sets
    the caller scatters into the incrementally maintained count/sum/blocker
    arrays.
    """

    order = csr.order
    indptr = csr.indptr
    indices = csr.indices
    empty = np.empty(0, dtype=np.int64)
    con_out: List[np.ndarray] = []
    pro_out: List[np.ndarray] = []
    ret_out: List[np.ndarray] = []
    def_recs = empty
    cand_rec = np.flatnonzero(state[order] == _ADJ)
    if cand_rec.size == 0:
        return empty, empty, empty, empty
    cand = order[cand_rec]
    anchors_all = isn[cand]
    negative = anchors_all < 0
    if negative.any():  # pragma: no cover - defensive, like the reference guard
        state[cand[negative]] = _NON
        def_recs = cand_rec[negative]
        keep = ~negative
        cand = cand[keep]
        cand_rec = cand_rec[keep]
        anchors_all = anchors_all[keep]

    total = cand.size
    # One ragged gather of every candidate's neighbour list for the whole
    # round.
    lens_all = indptr[cand_rec + 1] - indptr[cand_rec]
    nbrs_all = indices[_ragged_slot_indices(indptr[cand_rec], lens_all)]
    src_all = _local_sources(total, lens_all)

    # Candidate index of every neighbour (-1 = not a candidate), through
    # the n-sized scratch.
    member_pos[cand] = np.arange(total, dtype=np.int64)
    nbr_ci = member_pos[nbrs_all]
    member_pos[cand] = -1

    # Candidate-candidate edges carry all mid-scan interaction: the
    # same-anchor ones define partner0 (adjacent partners at round start —
    # every A vertex is a candidate), and the earlier-pointing ones are the
    # dependency edges outcomes propagate along.
    cc = np.flatnonzero(nbr_ci >= 0)
    e_src = src_all[cc]
    e_ci = nbr_ci[cc]
    e_same = anchors_all[e_ci] == anchors_all[e_src]
    partner0 = np.bincount(e_src[e_same], minlength=total)
    earlier = e_ci < e_src
    d_src = e_src[earlier]
    d_from = e_ci[earlier]
    d_same = e_same[earlier]
    # prev[j]: the latest earlier candidate-neighbour of j (or -1); d_src
    # is nondecreasing, so each j's dependencies are contiguous.
    prev = np.full(total, -1, dtype=np.int64)
    if d_src.size:
        d_new = np.empty(d_src.size, dtype=bool)
        d_new[0] = True
        np.not_equal(d_src[1:], d_src[:-1], out=d_new[1:])
        d_starts = np.flatnonzero(d_new)
        prev[d_src[d_starts]] = np.maximum.reduceat(d_from, d_starts)

    out_pro = np.zeros(total, dtype=bool)
    out_gone = np.zeros(total, dtype=bool)  # left A this round (P or C)

    s = 0
    while s < total:
        # Find the segment end: the first candidate whose nearest earlier
        # candidate-neighbour falls inside [s, ...).  Scanned in bounded
        # chunks so a cut near the front stays cheap.
        cut = total
        lo = s + 1
        hi = min(s + _WAVE_WINDOW, total)
        while lo < total:
            rel = prev[lo:hi] >= s
            pos_hit = int(np.argmax(rel)) if rel.size else 0
            if rel.size and rel[pos_hit]:
                cut = lo + pos_hit
                break
            if hi == total:
                break
            lo = hi
            hi = min(hi + _WAVE_WINDOW, total)
        m = cut - s
        seg = slice(s, cut)
        cands_p = cand[seg]
        anchors_p = anchors_all[seg]
        w_rec = cand_rec[seg]

        # Case-(i) flags and partner corrections from the recorded outcomes
        # of earlier segments, along the dependency edges.
        e0, e1 = np.searchsorted(d_src, (s, cut))
        if e1 > e0:
            tj = d_src[e0:e1] - s
            ti = d_from[e0:e1]
            case_i = np.bincount(tj[out_pro[ti]], minlength=m) > 0
            gone_edge = out_gone[ti] & d_same[e0:e1]
            adjacent_partners = partner0[seg] - np.bincount(
                tj[gone_edge], minlength=m
            )
        else:
            case_i = np.zeros(m, dtype=bool)
            adjacent_partners = partner0[seg]

        # Same-anchor group fold.  Within a group (scan order), only
        # case-(i) members decrement the pointer before the first
        # promotion, so the serial promotion condition at in-group position
        # j is pc0 - (case-i count before j) - 1 - adj > 0; from the first
        # promotion on, the anchor is RETROGRADE and every later
        # non-case-(i) member promotes too.
        perm = np.argsort(anchors_p, kind="stable")
        a_sorted = anchors_p[perm]
        new_seg = np.empty(m, dtype=bool)
        new_seg[0] = True
        np.not_equal(a_sorted[1:], a_sorted[:-1], out=new_seg[1:])
        seg_start = np.flatnonzero(new_seg)
        gid = np.cumsum(new_seg) - 1
        seg_anchor = a_sorted[seg_start]
        case_s = case_i[perm]
        adj_s = adjacent_partners[perm]
        pc0 = pointer_count[seg_anchor]
        seg_state = state[seg_anchor]
        seg_is = seg_state == _IS
        anchor_is = seg_is[gid]
        anchor_ret = (seg_state == _RET)[gid]
        cum = np.cumsum(case_s.astype(np.int64))
        c_excl = cum - case_s - (cum[seg_start] - case_s[seg_start])[gid]
        iota_m = np.arange(m, dtype=np.int64)
        cond = (~case_s) & anchor_is & ((pc0[gid] - c_excl - 1 - adj_s) > 0)
        first_fire = np.minimum.reduceat(np.where(cond, iota_m, m), seg_start)
        fired_s = (~case_s) & (
            (anchor_is & (iota_m >= first_fire[gid])) | anchor_ret
        )
        fired = np.empty(m, dtype=bool)
        fired[perm] = fired_s

        state[cands_p[case_i]] = _CON
        state[cands_p[fired]] = _PRO
        ret_anchors = seg_anchor[seg_is & (first_fire < m)]
        state[ret_anchors] = _RET
        # Group anchors are pairwise distinct, so the fancy in-place
        # decrement cannot collide.
        pointer_count[seg_anchor] -= np.add.reduceat(
            (case_s | fired_s).astype(np.int64), seg_start
        )
        out_pro[seg] = fired
        out_gone[seg] = fired | case_i
        if case_i.any():
            con_out.append(w_rec[case_i])
        if fired.any():
            pro_out.append(w_rec[fired])
        if ret_anchors.size:
            ret_out.append(ret_anchors)

        s = cut

    def _cat(parts: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else empty

    return _cat(con_out), _cat(pro_out), def_recs, _cat(ret_out)


def _post_swap(csr, state, isn, cnt, nbr_sum, isadj, isn2=None) -> int:
    """The post-swap scan via base labelling + sparse event loop.

    Algorithm 2 lines 20-28 when ``isn2`` is ``None`` (a vertex is "A"
    with exactly one IS neighbour), Algorithm 3 lines 15-23 otherwise (one
    or two IS neighbours; ``isn``/``isn2`` take the smaller and the larger
    id).  ``cnt`` / ``nbr_sum`` / ``isadj`` are the incrementally
    maintained post-swap base arrays (bit-identical to what a fresh
    labelling sweep would produce).  A scanned vertex deviates from its
    vectorized A/N labelling only if an *insertion* reached it first — and
    insertions start exclusively at zero-count vertices.  The event loop
    walks those seeds (plus everything an insertion touches) in scan
    order, maintaining the exact live count/sum/min/blocker values the
    serial loop would see.  On return the three arrays have been advanced
    to the round's final state, ready for the next round.  Returns the
    number of 0-1 swaps.
    """

    two = isn2 is not None
    max_cnt = 2 if two else 1
    blocker = isadj
    order = csr.order
    pos = csr.pos
    indptr = csr.indptr
    indices = csr.indices

    order_state = state[order]
    scanned_rec = np.flatnonzero(order_state != _IS)
    if scanned_rec.size == 0:
        return 0
    scanned = order[scanned_rec]
    was_adj = order_state[scanned_rec] == _ADJ
    base_cnt = cnt[scanned]
    becomes_adj = (base_cnt >= 1) & (base_cnt <= max_cnt)

    # delta0: the blocker change each scanned vertex would contribute if it
    # followed its base labelling (A adds one, leaving A removes one).
    # Unscanned (IS) vertices contribute zero.
    delta0 = np.zeros(csr.num_vertices, dtype=np.int64)
    delta0[scanned] = becomes_adj.astype(np.int64) - was_adj.astype(np.int64)

    # Insertion seeds: zero-count scanned vertices, with their blocker value
    # at their own scan position assuming every earlier neighbour follows
    # the base labelling.
    seed_rec = scanned_rec[base_cnt == 0]
    blocker0 = {}
    if seed_rec.size:
        seed_lens = indptr[seed_rec + 1] - indptr[seed_rec]
        seed_nbrs = indices[_ragged_slot_indices(indptr[seed_rec], seed_lens)]
        earlier = pos[seed_nbrs] < np.repeat(seed_rec, seed_lens)
        seed_src = _local_sources(seed_rec.size, seed_lens)
        base_corr = _int_bincount(
            seed_src[earlier],
            delta0[seed_nbrs[earlier]].astype(np.float64),
            seed_rec.size,
        )
        blocker0 = dict(
            zip(seed_rec.tolist(), (blocker[order[seed_rec]] + base_corr).tolist())
        )

    # Base labelling, vectorized (the event loop overrides deviations).
    # With two anchors the pair splits into its minimum and sum - minimum.
    state[scanned] = np.where(becomes_adj, _ADJ, _NON).astype(np.uint8)
    isn[scanned] = np.where(base_cnt == 1, nbr_sum[scanned], -1)
    if two:
        isn2[scanned] = -1
        pair_rec = scanned_rec[base_cnt == 2]
        if pair_rec.size:
            pair = order[pair_rec]
            low = _is_min(csr, pair_rec, state)
            isn[pair] = low
            isn2[pair] = nbr_sum[pair] - low

    heap = seed_rec.tolist()  # ascending, already a valid heap
    seeds = set(heap)
    done = set()
    extra_cnt: dict = {}
    extra_sum: dict = {}
    extra_min: dict = {}
    corr: dict = {}
    inserted_recs: List[int] = []
    while heap:
        rec = heapq.heappop(heap)
        if rec in done:
            continue
        done.add(rec)
        v = int(order[rec])
        extra = extra_cnt.get(rec, 0)
        base = int(cnt[v])
        live_cnt = base + extra
        if 1 <= live_cnt <= max_cnt:
            state[v] = _ADJ
            total = int(nbr_sum[v]) + extra_sum.get(rec, 0)
            if live_cnt == 1:
                isn[v] = total
                if two:
                    isn2[v] = -1
            else:
                # Reached by an insertion, so extra >= 1 and base <= 1.
                low = extra_min[rec]
                if base == 1:
                    low = min(low, int(nbr_sum[v]))
                isn[v] = low
                isn2[v] = total - low
            blocks = 1
        else:
            state[v] = _NON
            isn[v] = -1
            if two:
                isn2[v] = -1
            blocks = 0
            if rec in seeds and extra == 0 and blocker0[rec] + corr.get(rec, 0) == 0:
                # 0-1 swap: no live neighbour is IS or A.
                state[v] = _IS
                inserted_recs.append(rec)
                blocks = 1
                nbrs = indices[indptr[rec] : indptr[rec + 1]]
                for w_rec in pos[nbrs].tolist():
                    if w_rec > rec:
                        extra_cnt[w_rec] = extra_cnt.get(w_rec, 0) + 1
                        extra_sum[w_rec] = extra_sum.get(w_rec, 0) + v
                        if two:
                            extra_min[w_rec] = min(extra_min.get(w_rec, v), v)
                        heapq.heappush(heap, w_rec)
        deviation = blocks - (1 if 1 <= base <= max_cnt else 0)
        if deviation:
            # Fold the deviation into delta0 as well: after the loop
            # delta0[v] is exactly (blocks final - blocked before), the
            # vertex's true IS|A-membership change this scan.
            delta0[v] += deviation
            nbrs = indices[indptr[rec] : indptr[rec + 1]]
            for w_rec in pos[nbrs].tolist():
                if w_rec > rec:
                    corr[w_rec] = corr.get(w_rec, 0) + deviation

    # Advance the maintained arrays to the round's final state: the
    # inserted vertices join the IS set, and every vertex whose IS|A
    # membership changed adjusts its neighbours' blocker base.
    if inserted_recs:
        recs = np.asarray(inserted_recs, dtype=np.int64)
        ins_cnt, ins_sum = _scatter_cnt_sum(csr, recs, order[recs])
        cnt += ins_cnt
        nbr_sum += ins_sum
    changed = np.flatnonzero(delta0)
    if changed.size:
        isadj += _scatter_neighbors(csr, pos[changed], delta0[changed])
    return len(inserted_recs)


def _is_min(csr, recs, state):
    """Smallest IS neighbour of each record in ``recs`` (each has one)."""

    lens = csr.indptr[recs + 1] - csr.indptr[recs]
    nbrs = csr.indices[_ragged_slot_indices(csr.indptr[recs], lens)]
    values = np.where(state[nbrs] == _IS, nbrs, csr.num_vertices).astype(np.int64)
    return np.minimum.reduceat(values, np.cumsum(lens) - lens)


def _completion(csr, state, cnt) -> int:
    """Final 0-1 maximalization sweep, decomposed around contention.

    ``cnt`` is the per-vertex IS-neighbour count of ``state``.  A
    zero-count vertex is inserted by the serial sweep iff none of its
    *earlier-scanned* zero-count vertices were inserted before it — greedy
    MIS over the candidate-induced subgraph in scan order.  Candidates
    with no earlier candidate neighbour at all are committed vectorized;
    only the (typically few) contested ones run through the scalar fold.
    Returns the number of inserted vertices.
    """

    order = csr.order
    pos = csr.pos
    indptr = csr.indptr
    cand_rec = np.flatnonzero((state[order] != _IS) & (cnt[order] == 0))
    if cand_rec.size == 0:
        return 0
    verts = order[cand_rec]
    lens = indptr[cand_rec + 1] - indptr[cand_rec]
    nbrs = csr.indices[_ragged_slot_indices(indptr[cand_rec], lens)]
    src = _local_sources(cand_rec.size, lens)
    in_cand = np.zeros(csr.num_vertices, dtype=bool)
    in_cand[verts] = True
    earlier = in_cand[nbrs] & (pos[nbrs] < cand_rec[src])
    contested = np.bincount(src[earlier], minlength=cand_rec.size) > 0
    inserted = np.zeros(csr.num_vertices, dtype=bool)
    free = verts[~contested]
    state[free] = _IS
    inserted[free] = True
    gain = int(free.size)
    if contested.any():
        e_nbrs = nbrs[earlier]
        e_src = src[earlier]
        bounds = np.searchsorted(e_src, np.arange(cand_rec.size + 1, dtype=np.int64))
        for i in np.flatnonzero(contested).tolist():
            if not inserted[e_nbrs[bounds[i] : bounds[i + 1]]].any():
                v = int(verts[i])
                state[v] = _IS
                inserted[v] = True
                gain += 1
    return gain


# ----------------------------------------------------------------------
# Record-major two-k engine (Algorithms 3-4 over a scan-ordered CSR).
# ----------------------------------------------------------------------
def two_k_records(
    csr,
    source,
    initial_set: np.ndarray,
    max_rounds: Optional[int],
    max_pairs_per_key: int,
    max_partner_checks: int,
    resume: Optional[dict],
    on_round,
) -> Tuple[np.ndarray, Tuple[RoundStats, ...], int, bool]:
    """Algorithms 3-4 over a record-major CSR — the one vectorized two-k.

    * the pre-swap scan decides every candidate's no-op verdict with
      vectorized round-start compares and runs Algorithm 4's body only on
      the candidates that may act (:func:`_two_k_preswap`);
    * the post-swap scan is the one-k engine's base labelling plus sparse
      event loop, with one or two anchors (:func:`_post_swap`);
    * the count/sum/blocker arrays are maintained at O(changed) per round.

    ``source`` serves the random lookups of the 2-3 skeleton
    re-verification and the modeled sequential-scan charges.  Sets, round
    telemetry, ``max_sc_vertices``, snapshots and modeled ``IOStats`` are
    bit-identical to the python reference.
    """

    n = csr.num_vertices
    pos = csr.pos
    state = np.empty(n, dtype=np.uint8)
    # ISN as a sorted pair per vertex (-1 = absent): isn1 < isn2.
    isn1 = np.empty(n, dtype=np.int64)
    isn2 = np.empty(n, dtype=np.int64)
    loop = _SwapRounds(
        "two_k_swap",
        {"state": state, "isn1": isn1, "isn2": isn2},
        initial_set,
        max_rounds,
        resume,
    )

    # Lines 1-3: one or two IS neighbours make a vertex "A" (replayed
    # uncharged on resume, as in one_k_records).
    cnt, nbr_sum = label_vertices(csr, state)
    a_mask = (state != _IS) & (cnt >= 1) & (cnt <= 2)
    state[a_mask] = _ADJ
    one = a_mask & (cnt == 1)
    isn1[one] = nbr_sum[one]
    pair = np.flatnonzero(a_mask & (cnt == 2))
    if pair.size:
        low = _is_min(csr, pos[pair], state)
        isn1[pair] = low
        isn2[pair] = nbr_sum[pair] - low
    if loop.labelled():
        cnt, nbr_sum = label_vertices(csr, state)
    else:
        source.charge_scan()

    # ``isadj[u]`` = number of neighbours of ``u`` whose state is IS or A
    # — the post-swap ``blocker`` base, maintained by exact deltas.
    isadj = cnt.copy()
    adj_verts = np.flatnonzero(state == _ADJ)
    if adj_verts.size:
        isadj += _scatter_neighbors(csr, pos[adj_verts])

    while loop.running():
        sc = SwapCandidateStore(max_pairs_per_key=max_pairs_per_key)
        round_ctx = _TwoKRound(n, state, isn1, isn2, sc, source, max_partner_checks)
        _two_k_preswap(csr, round_ctx)
        source.charge_scan()
        loop.max_sc_vertices = max(loop.max_sc_vertices, sc.peak_vertices)

        # Swap phase (Algorithm 3 lines 10-14) and the exact incremental
        # maintenance of the post-swap base arrays: promoted candidates
        # (A -> P -> IS) join the set, retreating anchors (IS -> R -> N)
        # leave it, and conflicting candidates (A -> C) stop blocking.
        pro = np.flatnonzero(state == _PRO)
        ret = np.flatnonzero(state == _RET)
        con = np.flatnonzero(state == _CON)
        state[pro] = _IS
        state[ret] = _NON
        loop.can_swap = ret.size > 0
        if pro.size:
            pro_cnt, pro_sum = _scatter_cnt_sum(csr, pos[pro], pro)
            cnt += pro_cnt
            nbr_sum += pro_sum
        if ret.size:
            ret_cnt, ret_sum = _scatter_cnt_sum(csr, pos[ret], ret)
            cnt -= ret_cnt
            nbr_sum -= ret_sum
            isadj -= ret_cnt
        if con.size:
            isadj -= _scatter_neighbors(csr, pos[con])

        zero_one_swaps = _post_swap(csr, state, isn1, cnt, nbr_sum, isadj, isn2)
        source.charge_scan()
        loop.end_round(
            on_round,
            one_k_swaps=round_ctx.one_k_swaps,
            two_k_swaps=round_ctx.two_k_swaps,
            zero_one_swaps=zero_one_swaps,
            sc_vertices=sc.peak_vertices,
        )

    gain = _completion(csr, state, cnt)
    source.charge_scan()
    return loop.result(gain)


def _two_k_preswap(csr, ctx: _TwoKRound) -> None:
    """Algorithm 4's pre-swap scan, running its body only where it may act.

    At round start nothing is P or R and the swap-candidate store is
    empty, so an "A" candidate can act in only two ways, each decided for
    all candidates at once with one ragged gather:

    * **1-2 fire** — a single anchor ``w1`` with
      ``single_count[w1] - 1 - adjacent_partners > 0``;
    * **SC add** — two anchors and a non-empty partner join:
      ``members(w1) + members(w2)`` truncated to ``max_partner_checks``,
      filtered by :func:`_partner_mask`, minus the candidate's neighbours.

    Everything else a candidate reads — neighbour P flags, anchor states,
    ``single_count``, partner states, swap-candidate keys and the
    protected set of the 2-3 re-verification — changes only through an
    earlier write to one of its neighbours, or to one of its anchors or a
    member sharing that anchor.  So the scan walks a scan-ordered heap
    seeded with the candidates that may act; after each body that acts it
    pushes the later neighbours of every candidate the body moved out of
    "A", and the later members of every anchor it touched (the
    candidate's own anchors, which cover its swap-candidate key and its
    retreats, and the anchors of every candidate it moved).  Every other
    candidate is a provable no-op, so the serial outcome is reproduced
    exactly, including the store's key order and the random lookups.
    """

    state = ctx.state
    isn1 = ctx.isn1
    isn2 = ctx.isn2
    order = csr.order
    pos = csr.pos
    indptr = csr.indptr
    indices = csr.indices
    n = csr.num_vertices

    cand_rec = np.flatnonzero(state[order] == _ADJ)
    if cand_rec.size == 0:
        return
    cand = order[cand_rec]
    a1 = isn1[cand]
    a2 = isn2[cand]
    anchored_is = state[a1] == _IS
    seeds = [np.empty(0, dtype=np.int64)]

    # 1-2 fire.  Without at least one other single-anchor member there is
    # nothing to swap in, so only those candidates need their neighbours.
    single_count = ctx.single_count
    idx = np.flatnonzero((a2 < 0) & anchored_is & (single_count[a1] >= 2))
    if idx.size:
        recs = cand_rec[idx]
        lens = indptr[recs + 1] - indptr[recs]
        nbrs = indices[_ragged_slot_indices(indptr[recs], lens)]
        src = _local_sources(idx.size, lens)
        hit = (
            (state[nbrs] == _ADJ)
            & (isn1[nbrs] == a1[idx][src])
            & (isn2[nbrs] < 0)
        )
        partners = np.bincount(src[hit], minlength=idx.size)
        seeds.append(recs[single_count[a1[idx]] - 1 - partners > 0])

    # SC add: the round-start join minus each candidate's neighbours, as a
    # sort-based join of (candidate, partner) against (candidate,
    # neighbour) keys.
    joined = ctx.join_vertex
    if joined.size:
        cands = as_members(joined)
        recs = pos[cands]
        lens = indptr[recs + 1] - indptr[recs]
        nbr_keys = np.repeat(cands, lens) * n + indices[
            _ragged_slot_indices(indptr[recs], lens)
        ]
        nbr_keys.sort()
        keys = joined * n + ctx.join_partner
        at = np.searchsorted(nbr_keys, keys)
        adjacent = at < nbr_keys.size
        adjacent[adjacent] = nbr_keys[at[adjacent]] == keys[adjacent]
        seeds.append(pos[as_members(joined[~adjacent])])

    heap = as_members(np.concatenate(seeds)).tolist()  # ascending: a valid heap
    if not heap:
        return
    is_cand = np.zeros(n, dtype=bool)
    is_cand[cand_rec] = True
    queued = np.zeros(n, dtype=bool)
    queued[heap] = True
    pushed_anchors: Set[int] = set()
    members = ctx.members
    process = ctx.processor()

    last = -1
    while heap:
        rec = heapq.heappop(heap)
        if rec == last:  # a duplicate push pops right after the original
            continue
        last = rec
        v = int(order[rec])
        if state[v] != _ADJ:
            continue
        moved = process(v, indices[indptr[rec] : indptr[rec + 1]])
        if moved is None:
            continue
        # Hazards: later members of every touched anchor (a member set is
        # pushed once — a later cursor only ever wants a subset of it) and
        # later neighbours of every candidate that left "A".
        later = []
        for x in (v, *moved):
            for anchor in (int(isn1[x]), int(isn2[x])):
                if anchor >= 0 and anchor not in pushed_anchors:
                    pushed_anchors.add(anchor)
                    later.append(pos[members(anchor)])
        for x in moved:
            x_rec = pos[x]
            later.append(pos[indices[indptr[x_rec] : indptr[x_rec + 1]]])
        if not later:
            continue
        recs = np.concatenate(later)
        recs = recs[(recs > rec) & is_cand[recs]]
        recs = recs[~queued[recs]]
        if recs.size:
            queued[recs] = True
            for hazard in recs.tolist():
                heapq.heappush(heap, hazard)


class NumpyBackend(KernelBackend):
    """Vectorized kernels over in-memory CSR arrays or record-major CSRs."""

    name = "numpy"

    # ------------------------------------------------------------------
    # Algorithm 1: greedy.
    # ------------------------------------------------------------------
    def greedy_pass(self, source) -> np.ndarray:
        """One scan in chunks of ``_GREEDY_CHUNK`` records.

        Record ``i`` is vertex ``order[i]`` with neighbours
        ``targets[starts[i]:ends[i]]``: the graph's own CSR rows for an
        in-memory source, the record-major sections otherwise — O(n)
        extra memory either way, no per-edge gather of the whole graph.
        """

        if isinstance(source, InMemoryAdjacencyScan):
            offsets, targets = source.graph.csr_arrays()
            order = source.order_array()
            starts, ends = offsets[order], offsets[order + 1]
        else:
            order, indptr, targets = (np.asarray(a) for a in source.csr_views())
            starts, ends = indptr[:-1], indptr[1:]
        state = np.zeros(source.num_vertices, dtype=np.uint8)
        rank_of = np.full(source.num_vertices, -1, dtype=np.int64)
        for start in range(0, order.size, _GREEDY_CHUNK):
            chunk = slice(start, start + _GREEDY_CHUNK)
            cand = order[chunk]
            mask = state[cand] == 0
            if not mask.any():
                continue
            cand_starts = starts[chunk][mask]
            lens = ends[chunk][mask] - cand_starts
            cum = np.concatenate(([0], np.cumsum(lens)))
            gather = np.arange(cum[-1], dtype=np.int64) + np.repeat(
                cand_starts - cum[:-1], lens
            )
            self._greedy_commit(state, rank_of, cand[mask], lens, targets[gather])
        source.charge_scan()
        return np.flatnonzero(state == 1)

    @staticmethod
    def _greedy_commit(state, rank_of, cand, lens, nbrs) -> None:
        """Resolve one chunk of still-initial candidates and commit it.

        The greedy scan is sequential by definition — a vertex joins the
        set only if no earlier neighbour did — but the sequential
        dependency is *local*: a candidate that is still unexcluded when
        its chunk starts can only be rejected by an earlier candidate of
        the same chunk (an accepted vertex from an earlier chunk would
        already have excluded it).  So the (rare) intra-chunk conflicts
        are resolved with a scalar fold over the chunk-internal edges
        only, and acceptances/exclusions then commit as two fancy stores
        — a neighbour of an accepted vertex can never itself be accepted,
        so the exclusion store needs no mask.
        """

        c = cand.size
        rank_of[cand] = np.arange(c, dtype=np.int64)
        nbr_rank = rank_of[nbrs]
        rank_of[cand] = -1

        accepted = np.ones(c, dtype=bool)
        internal = nbr_rank >= 0
        if internal.any():
            src_rank = np.repeat(np.arange(c, dtype=np.int64), lens)[internal]
            dst_rank = nbr_rank[internal]
            earlier = dst_rank < src_rank
            # Edges arrive sorted by source rank, so each source sees
            # the final verdict of all earlier ranks.
            flags: List[bool] = accepted.tolist()
            for s, d in zip(src_rank[earlier].tolist(), dst_rank[earlier].tolist()):
                if flags[d] and flags[s]:
                    flags[s] = False
            accepted = np.asarray(flags, dtype=bool)

        state[cand[accepted]] = 1
        state[nbrs[np.repeat(accepted, lens)]] = 2

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
        return one_k_records(
            record_csr(source), source, initial_set, max_rounds, resume, on_round
        )

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
        return two_k_records(
            record_csr(source),
            source,
            initial_set,
            max_rounds,
            max_pairs_per_key,
            max_partner_checks,
            resume,
            on_round,
        )

    # ------------------------------------------------------------------
    # In-memory comparators (Tables 5-6) and the stream kernel, each in a
    # module of its own: a solve loads neither.
    # ------------------------------------------------------------------
    def local_search_pass(
        self,
        graph,
        initial_set: np.ndarray,
        max_iterations: int,
    ) -> Tuple[np.ndarray, int]:
        from repro.core.kernels.numpy_comparators import local_search_pass

        return local_search_pass(graph, initial_set, max_iterations)

    def dynamic_update_pass(self, graph) -> Tuple[int, ...]:
        from repro.core.kernels.numpy_comparators import dynamic_update_pass

        return dynamic_update_pass(graph)

    def normalize_updates_pass(self, updates, *, strict):
        from repro.core.kernels.numpy_waves import WAVES

        return WAVES.normalize_updates_pass(updates, strict=strict)

    def dynamic_apply_pass(self, maintainer, insertions, deletions) -> None:
        from repro.core.kernels.numpy_waves import WAVES

        WAVES.dynamic_apply_pass(maintainer, insertions, deletions)


def _ragged_slot_indices(starts, lens):
    """CSR slot indices of the concatenated slices ``[s_k, s_k + l_k)``."""

    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(starts.size, dtype=np.int64), lens)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return starts[reps] + local


#: The instance :func:`~repro.core.kernels.base.get_backend` returns.
BACKEND = NumpyBackend()
