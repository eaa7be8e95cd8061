"""The numpy backend's stream kernel: wave-batched update application.

A :class:`~repro.dynamic.maintainer.DynamicMISMaintainer` on the numpy
backend applies each update batch through :data:`WAVES`: a vectorized
validate-and-dedupe of each batch side
(:meth:`WaveScheduler.normalize_updates_pass`) and dependency-partitioned
sub-waves with a scalar fallback
(:meth:`WaveScheduler.dynamic_apply_pass`).  No static solve runs it, so
it is a module of its own: the maintainer imports it at its top (a timed
stream batch then compiles nothing), and a ``solve`` never loads it.
"""

from __future__ import annotations

import itertools
from typing import List, Set, Tuple

import numpy as np

from repro.core.kernels.base import normalize_updates
from repro.core.kernels.numpy_backend import _ragged_slot_indices
from repro.errors import GraphError

__all__ = ["WAVES", "WaveScheduler"]


class WaveScheduler:
    """Wave-batched update application, bit-identical to the scalar
    per-edge maintainer methods (the python backend's loop)."""

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
                return normalize_updates(updates, strict=strict)
            try:
                # fromiter over a flattened chain beats np.asarray on a
                # list of pairs by ~2x (no per-sequence type inspection).
                # fromiter would silently truncate ragged rows, so the
                # pair shape is checked up front.
                if not all(len(pair) == 2 for pair in updates):
                    return normalize_updates(updates, strict=strict)
                arr = np.fromiter(
                    itertools.chain.from_iterable(updates),
                    dtype=np.int64,
                    count=2 * len(updates),
                ).reshape(-1, 2)
            except (TypeError, ValueError, OverflowError):
                return normalize_updates(updates, strict=strict)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            return normalize_updates(updates, strict=strict)
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
            return normalize_updates(updates, strict=strict)
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


#: The scheduler every numpy-backend maintainer applies its batches through.
WAVES = WaveScheduler()
