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

Every execution produces results bit-identical to the ``python``
reference backend, including the per-round telemetry and the ``IOStats``
counters.  The property tests in ``tests/test_kernel_backends.py``,
``tests/test_semi_external.py``, ``tests/test_one_k_engine.py`` and
``tests/test_two_k_engine.py`` enforce this on randomized graphs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    decode_history,
    decode_rounds,
    encode_history,
    encode_rounds,
    register_backend,
)
from repro.core.kernels.sc_store import SwapCandidateStore
from repro.core.result import RoundStats
from repro.core.states import VertexState as S
from repro.errors import GraphError
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


def _scalar_normalize(updates, *, strict: bool):
    """The scalar reference's ``normalize_updates``, imported on first use
    (only update streams need it)."""

    from repro.core.kernels.python_backend import normalize_updates

    return normalize_updates(updates, strict=strict)


def _fingerprint(*arrays) -> bytes:
    """Digest of the solver state used by the oscillation guard."""

    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(array.tobytes())
    return digest.digest()


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
    first) to the live ndarrays; on resume they are restored in place.
    """

    def __init__(
        self,
        pass_name: str,
        arrays: Dict[str, np.ndarray],
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        resume: Optional[dict],
    ) -> None:
        self.pass_name = pass_name
        self.arrays = arrays
        self.max_rounds = max_rounds
        self.two_k = pass_name == "two_k_swap"
        state = arrays["state"]
        if resume is None:
            state[:] = _NON
            if initial_set:
                state[
                    np.fromiter(initial_set, dtype=np.int64, count=len(initial_set))
                ] = _IS
            for name, array in arrays.items():
                if name != "state":
                    array[:] = -1
            self.rounds: List[RoundStats] = []
            self.initial_size = len(initial_set)
            self.current_size = self.initial_size
            self.can_swap = True
            self.max_sc_vertices = 0
            self.oscillation = False
            self.history = None
        else:
            # Restore the loop exactly where an ``on_round`` snapshot was
            # taken; the labelling scan already happened before it.
            for name, array in arrays.items():
                array[:] = np.asarray(resume[name], dtype=array.dtype)
            self.rounds = decode_rounds(resume["rounds"])
            self.initial_size = int(resume["initial_size"])
            self.current_size = int(resume["current_size"])
            self.can_swap = bool(resume["can_swap"])
            self.max_sc_vertices = int(resume.get("max_sc_vertices", 0))
            self.oscillation = bool(resume["oscillation"])
            self.history = decode_history(resume["history"])

    def labelled(self) -> None:
        """Seed the guard's history once the labelling scan is done."""

        if self.max_rounds is None:
            self.history = {_fingerprint(*self.arrays.values())}

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
            digest = _fingerprint(*self.arrays.values())
            if digest in self.history:
                self.oscillation = True
            else:
                self.history.add(digest)
        if on_round is not None:
            on_round(self.snapshot())

    def snapshot(self) -> dict:
        """The loop state, per-vertex arrays as 1-D integer ndarray copies.

        Copies, so a snapshot the caller keeps never sees later rounds;
        the checkpoint encoder packs them to the bytes of the equal int
        lists without a per-element walk.
        """

        snapshot = {"pass": self.pass_name, "initial_size": self.initial_size}
        for name, array in self.arrays.items():
            snapshot[name] = array.copy()
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
        state = self.arrays["state"]
        independent_set = frozenset(np.flatnonzero(state == _IS).tolist())
        if self.two_k:
            return (
                independent_set,
                tuple(self.rounds),
                self.max_sc_vertices,
                self.oscillation,
            )
        return independent_set, tuple(self.rounds), self.oscillation


def one_k_records(
    csr,
    source,
    initial_set: FrozenSet[int],
    max_rounds: Optional[int],
    resume: Optional[dict],
    on_round,
) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], bool]:
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

    # Labelling (lines 1-3); on resume it rebuilds the count/sum arrays
    # for the restored state (round boundaries only hold IS / A / N).
    cnt, nbr_sum = label_vertices(csr, state)
    if resume is None:
        a_mask = (state != _IS) & (cnt == 1)
        state[a_mask] = _ADJ
        isn[a_mask] = nbr_sum[a_mask]
        charge_scan()
        loop.labelled()

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
    initial_set: FrozenSet[int],
    max_rounds: Optional[int],
    max_pairs_per_key: int,
    max_partner_checks: int,
    resume: Optional[dict],
    on_round,
) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], int, bool]:
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

    cnt, nbr_sum = label_vertices(csr, state)
    if resume is None:
        # Lines 1-3: one or two IS neighbours make a vertex "A".
        a_mask = (state != _IS) & (cnt >= 1) & (cnt <= 2)
        state[a_mask] = _ADJ
        one = a_mask & (cnt == 1)
        isn1[one] = nbr_sum[one]
        pair = np.flatnonzero(a_mask & (cnt == 2))
        if pair.size:
            low = _is_min(csr, pos[pair], state)
            isn1[pair] = low
            isn2[pair] = nbr_sum[pair] - low
        source.charge_scan()
        loop.labelled()

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
        cands = np.unique(joined)
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
        seeds.append(pos[np.unique(joined[~adjacent])])

    heap = np.unique(np.concatenate(seeds)).tolist()  # ascending: a valid heap
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

    def supports(self, source) -> bool:
        """In-memory sources and record-major ones (``csr_views``): a
        ``SEXTCSR1`` memmap, or a text reader through its spill."""

        return isinstance(source, InMemoryAdjacencyScan) or hasattr(
            source, "csr_views"
        )

    def supports_graph(self, graph) -> bool:
        """Graphs whose CSR arrays are int64 ndarrays (the numpy build)."""

        offsets, targets = graph.csr_arrays()
        return isinstance(offsets, np.ndarray) and isinstance(targets, np.ndarray)

    # ------------------------------------------------------------------
    # Algorithm 1: greedy.
    # ------------------------------------------------------------------
    def greedy_pass(self, source) -> FrozenSet[int]:
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
        return frozenset(np.flatnonzero(state == 1).tolist())

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
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], bool]:
        return one_k_records(
            record_csr(source), source, initial_set, max_rounds, resume, on_round
        )

    # ------------------------------------------------------------------
    # Algorithms 3 & 4: two-k-swap.
    # ------------------------------------------------------------------
    def two_k_swap_pass(
        self,
        source,
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        max_pairs_per_key: int,
        max_partner_checks: int,
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], int, bool]:
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
    # In-memory comparators (Tables 5-6).
    # ------------------------------------------------------------------
    def local_search_pass(
        self,
        graph,
        initial_set: FrozenSet[int],
        max_iterations: int,
    ) -> Tuple[FrozenSet[int], int]:
        n = graph.num_vertices
        if n == 0:
            return frozenset(), 0
        offsets, targets = graph.csr_arrays()
        edge_src = graph.edge_sources_array()
        degrees = graph.degrees_array()
        selected = np.zeros(n, dtype=bool)
        if initial_set:
            selected[
                np.fromiter(initial_set, dtype=np.int64, count=len(initial_set))
            ] = True
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

        independent_set = frozenset(np.flatnonzero(selected).tolist())
        return independent_set, iterations

    def dynamic_update_pass(self, graph) -> Tuple[int, ...]:
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

    # ------------------------------------------------------------------
    # Streaming dynamic MIS: wave-batched update application.
    # ------------------------------------------------------------------
    def supports_maintainer(self, maintainer) -> bool:
        """Maintainers whose flat state arrays are ndarrays (the numpy build)."""

        return isinstance(maintainer._selected, np.ndarray)

    def normalize_updates_pass(self, updates, *, strict):
        """Vectorized validate + dedupe of one update-batch side.

        Bit-identical to the scalar helper: the first malformed pair
        raises the same :class:`GraphError` (or is dropped when not
        strict), and duplicates of the same undirected edge keep only the
        first occurrence in its original orientation.  Small, ragged or
        non-numeric inputs fall back to the scalar helper.
        """

        if isinstance(updates, np.ndarray):
            arr = updates
        else:
            if not isinstance(updates, (list, tuple)) or len(updates) < 64:
                return _scalar_normalize(updates, strict=strict)
            try:
                # fromiter over a flattened chain beats np.asarray on a
                # list of pairs by ~2x (no per-sequence type inspection).
                # fromiter would silently truncate ragged rows, so the
                # pair shape is checked up front.
                if not all(len(pair) == 2 for pair in updates):
                    return _scalar_normalize(updates, strict=strict)
                arr = np.fromiter(
                    itertools.chain.from_iterable(updates),
                    dtype=np.int64,
                    count=2 * len(updates),
                ).reshape(-1, 2)
            except (TypeError, ValueError, OverflowError):
                return _scalar_normalize(updates, strict=strict)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            return _scalar_normalize(updates, strict=strict)
        arr = arr.astype(np.int64, copy=False)
        if not arr.shape[0]:
            return []
        u, v = arr[:, 0], arr[:, 1]
        bad = (u == v) | (u < 0) | (v < 0)
        if bad.any():
            if strict:
                k = int(np.argmax(bad))
                # Match the scalar helper's check order for the message.
                if int(u[k]) == int(v[k]):
                    raise GraphError("self loops are not allowed")
                raise GraphError("vertex ids must be non-negative")
            arr = arr[~bad]
            if not arr.shape[0]:
                return []
            u, v = arr[:, 0], arr[:, 1]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        span = int(hi.max()) + 1
        if span > 2**31:
            return _scalar_normalize(updates, strict=strict)
        _, first = np.unique(lo * span + hi, return_index=True)
        if first.size == arr.shape[0]:
            kept = arr
        else:
            first.sort()
            kept = arr[first]
        return list(zip(kept[:, 0].tolist(), kept[:, 1].tolist()))

    def dynamic_apply_pass(self, maintainer, insertions, deletions) -> None:
        """Dependency-partitioned vectorized waves with batched evictions.

        Each update window is pre-scanned once to split it into maximal
        *sub-waves*: prefixes in which no update touches a vertex whose
        selection flag an earlier update of the same sub-wave can flip.
        Every row is classified against the window-start state as

        * **quiet** — cannot flip any selection flag (covered endpoints,
          no eviction for insertions; no endpoint starved of selected
          neighbours for deletions, with the per-row *prefix-cumulative*
          tightness loss accounted exactly);
        * **conflict** — flips flags through the scalar rule (insertion
          eviction + re-saturation, deletion flip-select), committed
          *batched*: the eviction tie-break, tightness scatters and
          re-saturation run as ndarray operations whose per-row results
          are provably equal to the scalar path because admitted conflict
          rows have pairwise-disjoint touch zones;
        * **hard** (insertions only) — needs vertex creation or a
          coverage pre-select and goes through the scalar per-edge method.

        A first-touch scan (``np.minimum.at`` over the rows' touch zones)
        finds the first row that reads or writes state an earlier row of
        the window can change; everything before it commits as one
        sub-wave, in journal order.  Selected set, tightness, journal and
        drift counters are bit-identical to the python backend's scalar
        loop; :class:`~repro.core.kernels.base.WaveTelemetry` on the
        maintainer records how the scheduler spent the stream.
        """

        if len(insertions) or len(deletions):
            maintainer.wave.chunks += 1
        self._insert_waves(maintainer, insertions)
        self._delete_waves(maintainer, deletions)

    #: Wave-window bounds: the window doubles on a full-prefix commit
    #: (larger scatters amortise better) and re-anchors to twice the
    #: committed prefix on a cut (persisted across ``apply_updates``
    #: calls through ``maintainer._wave_state``).
    _WAVE_WINDOW_MIN = 64
    _WAVE_WINDOW_MAX = 65536
    #: When the window is already at its minimum and the head row still
    #: needs the scalar path (vertex creation / coverage pre-select),
    #: the stream is hard-dense: burn this many updates through the
    #: scalar loop before paying for another classification scan.
    _WAVE_SCALAR_BURST = 256

    def _insert_waves(self, m, insertions) -> None:
        count = len(insertions)
        if not count:
            return
        pairs = np.asarray(insertions, dtype=np.int64).reshape(count, 2)
        wave = m.wave
        idx = 0
        window = m._wave_state.get("insert_window", self._WAVE_WINDOW_MIN)
        while idx < count:
            chunk = pairs[idx : idx + window]
            prefix = self._insert_subwave(m, chunk)
            if prefix:
                wave.sub_waves += 1
                idx += prefix
                if prefix == len(chunk):
                    window = min(window * 2, self._WAVE_WINDOW_MAX)
                else:
                    window = max(
                        self._WAVE_WINDOW_MIN,
                        min(self._WAVE_WINDOW_MAX, 2 * prefix),
                    )
            else:
                # Hard head: vertex creation and coverage pre-selects
                # only happen on the scalar path.
                burst = (
                    self._WAVE_SCALAR_BURST
                    if window == self._WAVE_WINDOW_MIN
                    else 1
                )
                for x, y in pairs[idx : idx + burst].tolist():
                    m.insert_edge(x, y)
                    idx += 1
                    wave.scalar_fallbacks += 1
                window = max(window // 2, self._WAVE_WINDOW_MIN)
        m._wave_state["insert_window"] = window

    def _insert_subwave(self, m, chunk) -> int:
        """Classify one insertion window and commit its longest safe prefix.

        Rows are *hard* (need vertex creation or a coverage pre-select),
        *conflict* (both endpoints selected: eviction + re-saturation) or
        *quiet* (pure counter bookkeeping).  The window is truncated at
        the first hard row, the first-touch scan cuts it at the first row
        an earlier row can disturb, and the remaining prefix commits as
        one sub-wave.  Returns the committed length — 0 iff the head row
        is hard and must go through the scalar path.
        """

        n = chunk.shape[0]
        u, v = chunk[:, 0], chunk[:, 1]
        cap = m._capacity
        inb = (u < cap) & (v < cap)
        cu = np.where(inb, u, 0)
        cv = np.where(inb, v, 0)
        sel_u = m._selected[cu] & inb
        sel_v = m._selected[cv] & inb
        easy = inb & m._present[cu] & m._present[cv]
        easy &= (sel_u | (m._tight[cu] > 0)) & (sel_v | (m._tight[cv] > 0))
        # Two selected endpoints of an existing edge would violate
        # independence, so conflict rows are always new edges — no
        # duplicate check needed before the batched eviction commit.
        conflict = easy & sel_u & sel_v
        limit = n if easy.all() else int(np.argmin(easy))
        if limit == 0:
            return 0
        conflict = conflict[:limit]
        cidx = np.flatnonzero(conflict)
        if not cidx.size:
            self._commit_insert_quiet(m, chunk[:limit])
            return limit
        rows_c = chunk[cidx]
        uc, vc = rows_c[:, 0], rows_c[:, 1]
        deg = m._degree
        # Both endpoints gain one degree from the row's own insert, so
        # the post-insert tie-break equals the pre-insert comparison.
        evict = np.where(deg[uc] >= deg[vc], uc, vc)
        nbr_vals, nbr_lens = _gather_adjacency(m, evict)
        nbr_row = np.repeat(cidx, nbr_lens)
        # Saturation candidates: unselected neighbours whose only
        # selected neighbour is the evicted vertex itself.
        cand_mask = (~m._selected[nbr_vals]) & (m._tight[nbr_vals] == 1)
        cand_vals = nbr_vals[cand_mask]
        cand_row = nbr_row[cand_mask]
        snbr_vals, snbr_lens = _gather_adjacency(m, cand_vals)
        zone_vert = np.concatenate([rows_c.ravel(), nbr_vals, snbr_vals])
        zone_owner = np.concatenate(
            [np.repeat(cidx, 2), nbr_row, np.repeat(cand_row, snbr_lens)]
        )
        qidx = np.flatnonzero(~conflict)
        quiet_vert = chunk[:limit][~conflict].ravel()
        quiet_owner = np.repeat(qidx, 2)
        # A conflict row reads its endpoints (degree tie-break, selection
        # state) and the evicted vertex's neighbourhood (candidate
        # classification and candidate-candidate adjacency); the
        # second-ring saturation scatters are value-blind writes, so they
        # register in the zone but never force a cut by themselves.  A
        # quiet row can only be disturbed through selection flips: the
        # evicted vertices and their saturation candidates (which also
        # bound every vertex an eviction can uncover).
        p = self._first_violation(
            m,
            limit,
            zone_vert,
            zone_owner,
            quiet_vert,
            quiet_owner,
            np.concatenate([rows_c.ravel(), nbr_vals]),
            np.concatenate([np.repeat(cidx, 2), nbr_row]),
            np.concatenate([evict, cand_vals]),
            np.concatenate([cidx, cand_row]),
        )
        quiet_rows = chunk[:p][~conflict[:p]]
        if quiet_rows.shape[0]:
            self._commit_insert_quiet(m, quiet_rows)
        if cidx.size and int(cidx[0]) < p:
            self._commit_insert_conflicts(
                m, p, cidx, rows_c, evict,
                nbr_vals, nbr_row, cand_vals, cand_row, snbr_vals, snbr_lens,
            )
        return p

    #: First-touch sentinel: larger than any window row index.
    _FT_SENTINEL = np.int64(2**62)

    @classmethod
    def _first_violation(
        cls,
        m,
        limit,
        zone_vert,
        zone_owner,
        quiet_vert,
        quiet_owner,
        conf_read_vert,
        conf_read_owner,
        flip_vert,
        flip_owner,
    ) -> int:
        """First window row whose state an earlier row can disturb.

        Writes and reads are tracked separately so sub-waves only break
        where a *read* crosses an earlier *write*:

        - ``zone_*``: every vertex a conflict row writes (one owner row
          index per touched vertex) — registered, never tested.
        - ``quiet_*``: the quiet rows' endpoint writes (also their only
          reads).
        - ``conf_read_*``: the vertices a conflict row's classification
          and commit actually read.  A conflict row is violated when any
          earlier row (quiet or conflict) writes one of them.
        - ``flip_*``: the conflict writes a quiet row can observe — for
          inserts the possible selection flips (evicted vertex plus its
          saturation candidates), for deletes the full conflict zone.  A
          quiet row is violated when an earlier conflict row lands a
          flip write on one of its endpoints; quiet/quiet overlaps are
          commuting counter increments and never cut.

        Returns ``limit`` when the whole window is mutually consistent.
        The per-vertex first-touch minima land in two capacity-sized
        scratch arrays kept on the maintainer (touched entries are reset
        to the sentinel afterwards), so the scan is pure scatters — no
        sort/unique compression.
        """

        scratch = getattr(m, "_wave_scratch", None)
        if scratch is None or scratch[0].size < m._capacity:
            scratch = (
                np.full(m._capacity, cls._FT_SENTINEL, dtype=np.int64),
                np.full(m._capacity, cls._FT_SENTINEL, dtype=np.int64),
            )
            m._wave_scratch = scratch
        ft_any, ft_flip = scratch
        np.minimum.at(ft_any, zone_vert, zone_owner)
        np.minimum.at(ft_any, quiet_vert, quiet_owner)
        np.minimum.at(ft_flip, flip_vert, flip_owner)
        row_min = np.full(limit, cls._FT_SENTINEL, dtype=np.int64)
        np.minimum.at(row_min, conf_read_owner, ft_any[conf_read_vert])
        np.minimum.at(row_min, quiet_owner, ft_flip[quiet_vert])
        ft_any[zone_vert] = cls._FT_SENTINEL
        ft_any[quiet_vert] = cls._FT_SENTINEL
        ft_flip[flip_vert] = cls._FT_SENTINEL
        bad = np.flatnonzero(row_min < np.arange(limit, dtype=np.int64))
        return int(bad[0]) if bad.size else limit

    @staticmethod
    def _edge_exists_rows(m, rows) -> np.ndarray:
        """Vectorized current-graph membership of each ``(a, b)`` row.

        Base-CSR membership is a fancy-indexed binary search — every row
        walks its own ``[offsets[a], offsets[a+1])`` segment, all rows in
        lockstep, so the loop runs ``log2(max degree)`` vectorized steps
        rather than one Python bisect per row.  The dynamic overlay then
        corrects the verdict with per-row dict probes (the overlay is the
        small part of the graph by design).
        """

        if rows.shape[0] < 8:
            return np.fromiter(
                (m._has_edge(x, y) for x, y in rows.tolist()),
                dtype=bool,
                count=rows.shape[0],
            )
        a, b = rows[:, 0], rows[:, 1]
        base_n = m._base_n
        if base_n and m._base_offsets is not None and len(m._base_targets):
            offsets, targets = m._base_offsets, m._base_targets
            in_base = (a < base_n) & (b < base_n)
            av = np.where(in_base, a, 0)
            lo = np.where(in_base, offsets[av], 0)
            seg_end = np.where(in_base, offsets[av + 1], 0)
            hi = seg_end
            # Each row binary-searches its own (sorted) CSR segment, all
            # rows advancing in lockstep; segments are short and
            # contiguous, so the probes stay cache-local instead of
            # jumping across a graph-sized key table.
            last = np.int64(len(targets) - 1)
            while True:
                active = lo < hi
                if not active.any():
                    break
                mid = (lo + hi) >> 1
                less = targets[np.minimum(mid, last)] < b
                lo = np.where(active & less, mid + 1, lo)
                hi = np.where(active & ~less, mid, hi)
            exists = (
                in_base
                & (lo < seg_end)
                & (targets[np.minimum(lo, last)] == b)
            )
        else:
            exists = np.zeros(rows.shape[0], dtype=bool)
        added, removed = m._added, m._removed
        if added or removed:
            # Only rows whose source vertex ever had an overlay entry can
            # disagree with the base verdict.
            idxs = np.flatnonzero(m._overlay_dirty[a])
            if idxs.size:
                add_get = added.get
                rem_get = removed.get
                for k, x, y in zip(
                    idxs.tolist(), a[idxs].tolist(), b[idxs].tolist()
                ):
                    s = add_get(x)
                    if s and y in s:
                        exists[k] = True
                    elif exists[k]:
                        s = rem_get(x)
                        if s and y in s:
                            exists[k] = False
        return exists

    @staticmethod
    def _commit_insert_conflicts(
        m, p, cidx, rows_c, evict,
        nbr_vals, nbr_row, cand_vals, cand_row, snbr_vals, snbr_lens,
    ) -> None:
        """Batched eviction + re-saturation of the admitted conflict rows.

        Admitted rows have pairwise-disjoint touch zones, so the scalar
        per-row sequence (insert, evict the higher-degree endpoint,
        greedily re-select starved neighbours smallest-degree-first)
        decomposes into order-free tightness scatters plus one tiny
        acceptance loop per row over its saturation candidates; the
        journal is emitted in ascending row order, exactly as the scalar
        loop would write it.
        """

        keep = cidx < p
        rows = rows_c[keep]
        e_rows = evict[keep]
        deg = m._degree
        kept_rows = cidx[keep]
        cstarts = np.searchsorted(cand_row, kept_rows, side="left").tolist()
        cends = np.searchsorted(cand_row, kept_rows, side="right").tolist()
        snbr_off = np.concatenate(([0], np.cumsum(snbr_lens))).tolist()
        acc_mask = np.zeros(cand_vals.size, dtype=bool)
        cand_list = cand_vals.tolist()
        journal: List[Tuple[str, int]] = []
        n_selects = 0
        for i, e in enumerate(e_rows.tolist()):
            journal.append(("unselect", e))
            lo, hi = cstarts[i], cends[i]
            if hi == lo:
                continue
            if hi - lo == 1:
                # A lone candidate is always accepted.
                acc_mask[lo] = True
                journal.append(("select", cand_list[lo]))
                n_selects += 1
                continue
            cands = cand_vals[lo:hi]
            order = np.argsort(deg[cands] * np.int64(m._capacity) + cands)
            accepted: Set[int] = set()
            for j in order.tolist():
                y = cand_list[lo + j]
                seg = snbr_vals[snbr_off[lo + j] : snbr_off[lo + j + 1]]
                # A candidate adjacent to an earlier accept is tight again.
                if accepted and not accepted.isdisjoint(seg.tolist()):
                    continue
                accepted.add(y)
                acc_mask[lo + j] = True
                journal.append(("select", y))
                n_selects += 1
        np.add.at(deg, rows.ravel(), 1)
        # Net tightness of insert + evict: the evicted end keeps the new
        # edge's +1, the surviving end cancels (+1 insert, -1 unselect),
        # every pre-insert neighbour of the evicted vertex loses one.
        np.add.at(m._tight, e_rows, 1)
        nbr_commit = nbr_vals[nbr_row < p]
        if nbr_commit.size:
            np.subtract.at(m._tight, nbr_commit, 1)
        m._store_selected(e_rows, False)
        if n_selects:
            m._store_selected(cand_vals[acc_mask], True)
            gained = snbr_vals[np.repeat(acc_mask, snbr_lens)]
            if gained.size:
                np.add.at(m._tight, gained, 1)
        m._journal_extend(journal)
        _overlay_record_inserts(m, rows)
        m._num_edges += rows.shape[0]
        m.stats.edges_inserted += rows.shape[0]
        m.stats.evictions += rows.shape[0]
        m.stats.additions += n_selects
        m.wave.batched_evictions += rows.shape[0]
        m.wave.batched_selects += n_selects

    @classmethod
    def _commit_insert_quiet(cls, m, rows) -> None:
        # Duplicates of existing edges are no-ops under invariants (both
        # endpoints of a quiet insertion are covered, so the pre-insert
        # selection step of insert_edge cannot fire either).
        exists = cls._edge_exists_rows(m, rows)
        if exists.any():
            rows = rows[~exists]
            if not rows.shape[0]:
                return
        a, b = rows[:, 0], rows[:, 1]
        np.add.at(m._degree, rows.ravel(), 1)
        sel_b = m._selected[b]
        sel_a = m._selected[a]
        if sel_b.any():
            np.add.at(m._tight, a[sel_b], 1)
        if sel_a.any():
            np.add.at(m._tight, b[sel_a], 1)
        _overlay_record_inserts(m, rows)
        m._num_edges += rows.shape[0]
        m.stats.edges_inserted += rows.shape[0]

    def _delete_waves(self, m, deletions) -> None:
        count = len(deletions)
        if not count:
            return
        pairs = np.asarray(deletions, dtype=np.int64).reshape(count, 2)
        wave = m.wave
        idx = 0
        window = m._wave_state.get("delete_window", self._WAVE_WINDOW_MIN)
        while idx < count:
            chunk = pairs[idx : idx + window]
            prefix = self._delete_subwave(m, chunk)
            if prefix:
                wave.sub_waves += 1
                idx += prefix
                if prefix == len(chunk):
                    window = min(window * 2, self._WAVE_WINDOW_MAX)
                else:
                    window = max(
                        self._WAVE_WINDOW_MIN,
                        min(self._WAVE_WINDOW_MAX, 2 * prefix),
                    )
            else:  # pragma: no cover - a head row is never violated
                x, y = pairs[idx].tolist()
                m.delete_edge(x, y)
                idx += 1
                wave.scalar_fallbacks += 1
        m._wave_state["delete_window"] = window

    def _delete_subwave(self, m, chunk) -> int:
        """Classify one deletion window and commit its longest safe prefix.

        Dead rows (missing edge or vertex) are order-free no-ops.  Live
        rows are quiet when neither endpoint runs out of selected
        neighbours — tested against the *prefix-cumulative* tightness
        loss at the row's own position (a searchsorted over per-vertex
        loss events), so quiet/quiet interactions are exact.  The rest
        are conflict rows: the deletion starves exactly one endpoint,
        which re-saturation immediately selects back.  The first-touch
        scan cuts the window at the first disturbed row; everything
        before commits batched.
        """

        n = chunk.shape[0]
        live = self._live_mask(m, chunk)
        if not live.any():
            return n
        lidx = np.flatnonzero(live)
        rows_l = chunk[live]
        a, b = rows_l[:, 0], rows_l[:, 1]
        sel_a = m._selected[a]
        sel_b = m._selected[b]
        # Loss events: committing live row r decrements tight[x] for each
        # endpoint x whose other endpoint is selected.  Packed (vertex,
        # row) keys make "losses of x at rows <= r" one searchsorted.
        ev_vert = np.concatenate([a[sel_b], b[sel_a]])
        ev_row = np.concatenate([lidx[sel_b], lidx[sel_a]])
        span = np.int64(n + 1)
        keys = np.sort(ev_vert * span + ev_row)
        loss_a = np.searchsorted(keys, a * span + lidx, side="right")
        loss_a -= np.searchsorted(keys, a * span)
        loss_b = np.searchsorted(keys, b * span + lidx, side="right")
        loss_b -= np.searchsorted(keys, b * span)
        quiet_a = sel_a | (m._tight[a] - loss_a > 0)
        quiet_b = sel_b | (m._tight[b] - loss_b > 0)
        quiet = quiet_a & quiet_b
        if quiet.all():
            self._commit_delete_quiet(m, rows_l)
            return n
        crow = ~quiet
        cidx = lidx[crow]
        fail_vert = np.concatenate([a[~quiet_a], b[~quiet_b]])
        fail_row = np.concatenate([lidx[~quiet_a], lidx[~quiet_b]])
        fnbr_vals, fnbr_lens = _gather_adjacency(m, fail_vert)
        zone_vert = np.concatenate([rows_l[crow].ravel(), fnbr_vals])
        zone_owner = np.concatenate(
            [np.repeat(cidx, 2), np.repeat(fail_row, fnbr_lens)]
        )
        quiet_vert = rows_l[quiet].ravel()
        quiet_owner = np.repeat(lidx[quiet], 2)
        # A conflict deletion's classification and commit read only its
        # own endpoints: the prefix-cumulative loss math accounts for
        # every earlier quiet row exactly, and any structure change to
        # the failing endpoint's neighbourhood necessarily writes at the
        # endpoint itself.  Quiet rows keep the full conflict zone as
        # their flip set — a re-selection's tightness scatters can change
        # the loss-based classification anywhere in the zone.
        conf_vert = rows_l[crow].ravel()
        conf_owner = np.repeat(cidx, 2)
        p = self._first_violation(
            m,
            n,
            zone_vert,
            zone_owner,
            quiet_vert,
            quiet_owner,
            conf_vert,
            conf_owner,
            zone_vert,
            zone_owner,
        )
        qmask = quiet & (lidx < p)
        if qmask.any():
            self._commit_delete_quiet(m, rows_l[qmask])
        if bool((fail_row < p).any()):
            self._commit_delete_conflicts(
                m, p, rows_l, lidx, fail_vert, fail_row, fnbr_vals, fnbr_lens
            )
        return p

    @staticmethod
    def _commit_delete_conflicts(
        m, p, rows_l, lidx, fail_vert, fail_row, fnbr_vals, fnbr_lens
    ) -> None:
        """Batched flip-select commit of the admitted conflict deletions.

        Every admitted conflict deletion starves exactly one unselected
        endpoint ``f`` (its only selected neighbour was the other
        endpoint ``s``), and re-saturation selects ``f`` right back:
        degree/tightness effects land as scatters and the journal gets
        one ``("select", f)`` per row in ascending row order.
        """

        keep = fail_row < p
        fn_commit = fnbr_vals[np.repeat(keep, fnbr_lens)]
        f_vert = fail_vert[keep]
        f_row = fail_row[keep]
        order = np.argsort(f_row)
        f_vert = f_vert[order]
        f_row = f_row[order]
        rows = rows_l[np.searchsorted(lidx, f_row)]
        s_vert = rows[:, 0] + rows[:, 1] - f_vert
        np.subtract.at(m._degree, rows.ravel(), 1)
        # The removed edge costs f its only selected neighbour ...
        np.subtract.at(m._tight, f_vert, 1)
        # ... and selecting f back raises all its post-delete neighbours:
        # +1 over the pre-delete neighbourhood minus the s endpoint.
        if fn_commit.size:
            np.add.at(m._tight, fn_commit, 1)
        np.subtract.at(m._tight, s_vert, 1)
        m._store_selected(f_vert, True)
        m._journal_extend([("select", int(y)) for y in f_vert.tolist()])
        _overlay_record_deletes(m, rows)
        m._num_edges -= rows.shape[0]
        m.stats.edges_deleted += rows.shape[0]
        m.stats.additions += rows.shape[0]
        m.wave.batched_selects += rows.shape[0]

    @classmethod
    def _live_mask(cls, m, chunk) -> np.ndarray:
        """Rows of ``chunk`` whose edge currently exists between present vertices."""

        cap = m._capacity
        u, v = chunk[:, 0], chunk[:, 1]
        live = (u < cap) & (v < cap)
        if live.any():
            cu = np.where(live, u, 0)
            cv = np.where(live, v, 0)
            live &= m._present[cu] & m._present[cv]
            idxs = np.nonzero(live)[0]
            if idxs.size:
                live[idxs] = cls._edge_exists_rows(m, chunk[idxs])
        return live

    @staticmethod
    def _commit_delete_quiet(m, rows) -> None:
        a, b = rows[:, 0], rows[:, 1]
        np.subtract.at(m._degree, rows.ravel(), 1)
        sel_b = m._selected[b]
        sel_a = m._selected[a]
        if sel_b.any():
            np.subtract.at(m._tight, a[sel_b], 1)
        if sel_a.any():
            np.subtract.at(m._tight, b[sel_a], 1)
        _overlay_record_deletes(m, rows)
        m._num_edges -= rows.shape[0]
        m.stats.edges_deleted += rows.shape[0]


def _overlay_record_inserts(m, rows) -> None:
    """Record committed edge insertions in the delta overlay.

    A re-inserted base edge cancels its ``removed`` entry instead of
    gaining an ``added`` one; the no-``removed`` fast path skips those
    probes entirely (the common state on insert-dominated streams).
    """

    added, removed = m._added, m._removed
    cancelled = 0
    if removed:
        rem_get = removed.get
        add_get = added.get
        for x, y in rows.tolist():
            rem = rem_get(x)
            if rem and y in rem:
                rem.discard(y)
                cancelled += 1
            else:
                s = add_get(x)
                if s is None:
                    added[x] = {y}
                else:
                    s.add(y)
            rem = rem_get(y)
            if rem and x in rem:
                rem.discard(x)
                cancelled += 1
            else:
                s = add_get(y)
                if s is None:
                    added[y] = {x}
                else:
                    s.add(x)
    else:
        add_get = added.get
        for x, y in rows.tolist():
            s = add_get(x)
            if s is None:
                added[x] = {y}
            else:
                s.add(y)
            s = add_get(y)
            if s is None:
                added[y] = {x}
            else:
                s.add(x)
    # Each directed entry is either a fresh one (+1) or a cancellation (-1).
    m._overlay_entries += 2 * (len(rows) - cancelled)
    m._overlay_dirty[rows.ravel()] = True


def _overlay_record_deletes(m, rows) -> None:
    """Record committed edge deletions in the delta overlay (mirror case)."""

    added, removed = m._added, m._removed
    cancelled = 0
    if added:
        add_get = added.get
        rem_get = removed.get
        for x, y in rows.tolist():
            add = add_get(x)
            if add and y in add:
                add.discard(y)
                cancelled += 1
            else:
                s = rem_get(x)
                if s is None:
                    removed[x] = {y}
                else:
                    s.add(y)
            add = add_get(y)
            if add and x in add:
                add.discard(x)
                cancelled += 1
            else:
                s = rem_get(y)
                if s is None:
                    removed[y] = {x}
                else:
                    s.add(x)
    else:
        rem_get = removed.get
        for x, y in rows.tolist():
            s = rem_get(x)
            if s is None:
                removed[x] = {y}
            else:
                s.add(y)
            s = rem_get(y)
            if s is None:
                removed[y] = {x}
            else:
                s.add(x)
    m._overlay_entries += 2 * (len(rows) - cancelled)
    m._overlay_dirty[rows.ravel()] = True


def _gather_adjacency(m, verts):
    """Concatenated current neighbour lists of ``verts`` → (values, lens).

    The CSR base contributes one vectorized ragged gather; vertices with
    delta-overlay entries (the small part of the graph by design) have
    their segment replaced by the maintainer's scalar neighbour scan.
    """

    base_n = m._base_n
    offsets, targets = m._base_offsets, m._base_targets
    if base_n and offsets is not None:
        in_base = verts < base_n
        vb = np.where(in_base, verts, 0)
        starts = np.where(in_base, offsets[vb], 0)
        lens = np.where(in_base, offsets[vb + 1] - offsets[vb], 0)
        values = targets[_ragged_slot_indices(starts, lens)]
    else:
        lens = np.zeros(verts.size, dtype=np.int64)
        values = np.empty(0, dtype=np.int64)
    if m._added or m._removed:
        dirty = np.flatnonzero(m._overlay_dirty[verts])
        if dirty.size:
            values, lens = _patch_dirty_segments(m, verts, values, lens, dirty)
    return values, lens


def _patch_dirty_segments(m, verts, values, lens, dirty):
    """Apply the delta overlay to the dirty segments of a ragged gather.

    The Python loop only walks each dirty vertex's (small) overlay sets;
    the O(degree) work — locating removed edges in the sorted base
    segments and splicing added ones in — happens in a handful of
    vectorized operations over the whole gather at once.
    """

    has_removed = bool(m._removed)
    has_added = bool(m._added)
    get_removed = m._removed.get
    get_added = m._added.get
    rem_keys: List[int] = []
    add_vals: List[int] = []
    add_counts = np.zeros(dirty.size, dtype=np.int64)
    cap = m._capacity
    for k, vv in enumerate(verts[dirty].tolist()):
        if has_removed:
            rem = get_removed(vv)
            if rem:
                base = k * cap
                rem_keys.extend(base + w for w in rem)
        if has_added:
            add = get_added(vv)
            if add:
                add_vals.extend(add)
                add_counts[k] = len(add)
    new_lens = lens.copy()
    if rem_keys:
        ends = np.cumsum(lens)
        d_lens = lens[dirty]
        slot_idx = _ragged_slot_indices(ends[dirty] - d_lens, d_lens)
        # Segment values are ascending and owners non-decreasing, so the
        # packed (owner, neighbour) keys are globally sorted; every
        # removed overlay entry is a live base edge, so each search hits.
        keys = np.repeat(
            np.arange(dirty.size, dtype=np.int64) * cap, d_lens
        ) + values[slot_idx]
        rk = np.asarray(rem_keys, dtype=np.int64)
        rk.sort()
        keep = np.ones(values.size, dtype=bool)
        keep[slot_idx[np.searchsorted(keys, rk)]] = False
        values = values[keep]
        new_lens[dirty] -= np.bincount(rk // cap, minlength=dirty.size)
    if add_vals:
        new_lens[dirty] += add_counts
        new_ends = np.cumsum(new_lens)
        add_idx = _ragged_slot_indices(
            new_ends[dirty] - add_counts, add_counts
        )
        out = np.empty(values.size + len(add_vals), dtype=np.int64)
        add_slot = np.zeros(out.size, dtype=bool)
        add_slot[add_idx] = True
        out[add_idx] = np.asarray(add_vals, dtype=np.int64)
        out[~add_slot] = values
        values = out
    return values, new_lens


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


register_backend(NumpyBackend())
