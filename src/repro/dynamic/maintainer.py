"""Maintain a maximal independent set under edge and vertex updates.

The maintainer keeps the whole adjacency in memory (this is a prototype of
the paper's future-work direction, not a semi-external component) and
preserves two invariants after every update:

* **independence** — no edge has both endpoints selected;
* **maximality** — every unselected vertex has a selected neighbour.

The adjacency is stored as the immutable **CSR arrays** of the initial
graph plus a small per-vertex delta overlay (edges added or removed
since), and the per-vertex solver state lives in flat arrays — a selected
flag, the current degree, and a *tightness* counter (the number of
selected neighbours).  Tightness makes every invariant decision O(1):
a vertex can join the set exactly when its tightness is zero, which
replaces the seed's per-update set intersections.  The arrays are
ndarrays, and the initial tightness, invariant checks and rebuilds run as
vectorized bincounts over the CSR slots.

Update rules:

``insert_edge(u, v)``
    If both endpoints are selected, the one with the larger current degree
    is evicted and the neighbourhood of the evicted vertex is re-saturated
    (any neighbour left without a selected neighbour is added back
    greedily, smallest degree first).
``delete_edge(u, v)``
    If the deletion leaves an unselected endpoint with no selected
    neighbour, it is added.
``add_vertex()`` / ``delete_vertex(v)``
    A fresh isolated vertex always joins the set; deleting a vertex
    detaches its incident edges and re-saturates its neighbourhood.
``apply_updates(insertions, deletions)``
    Bulk form for update streams: dedupes each batch, applies every
    insertion, then every deletion, each with exactly the per-edge
    semantics above.  The per-update logic is dispatched through the
    kernel-backend registry: the ``python`` backend is the scalar
    reference loop, the ``numpy`` backend commits conflict-free spans of
    the batch as vectorized waves with bit-identical results.  Every
    selection change is appended to :attr:`journal` as ``("select" |
    "unselect", vertex)``.
``compact()``
    Fold the delta overlay back into fresh CSR base arrays once it grows
    past ``compact_threshold`` (checked after every ``apply_updates``
    batch); the selected set and all counters are untouched.
``replay_batch(record)``
    Re-apply a logged batch on resume: its graph edits and the selection
    flips it journalled, with no MIS decision of its own.
``rebuild(pipeline=...)``
    Recompute the set from scratch with any of the library pipelines —
    the counterpart of the paper's periodic swap passes — and reset the
    drift counters.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as _np

# The numpy backend's wave kernel (and with it the backend) compiles
# with the maintainer, so no timed stream batch imports a module.
import repro.core.kernels.numpy_waves  # noqa: F401
from repro.core.kernels import WaveTelemetry, get_backend
from repro.core.result import initial_members
from repro.core.solver import solve_mis
from repro.errors import DuplicateEdgeError, GraphError, SolverError, VertexError
from repro.graphs.graph import Graph

__all__ = ["UpdateStats", "DynamicMISMaintainer"]


def _unknown_initial_vertex(vertex: int) -> SolverError:
    return SolverError(f"initial vertex {vertex} is not in the graph")


@dataclass
class UpdateStats:
    """Counters describing the update stream processed so far."""

    edges_inserted: int = 0
    edges_deleted: int = 0
    vertices_added: int = 0
    vertices_deleted: int = 0
    evictions: int = 0
    additions: int = 0
    rebuilds: int = 0
    compactions: int = 0


class DynamicMISMaintainer:
    """Keep a maximal independent set valid across graph updates."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        initial: Optional[Iterable[int]] = None,
        pipeline: str = "two_k_swap",
        backend: Optional[str] = None,
        compact_threshold: Optional[int] = None,
    ) -> None:
        self._pipeline = pipeline
        self._backend = backend
        self.compact_threshold = compact_threshold
        self.stats = UpdateStats()
        #: How the wave scheduler spent this maintainer's stream; written
        #: only by the numpy backend, zeros under the scalar reference.
        self.wave = WaveTelemetry()
        #: Backend scratch that survives between ``apply_updates`` calls
        #: (e.g. the adaptive wave-window sizes).
        self._wave_state: Dict[str, int] = {}
        #: Ordered record of every selection change as ("select" |
        #: "unselect", vertex); parity tests compare it across backends.
        self.journal: List[Tuple[str, int]] = []
        #: The normalised ``(insertions, deletions)`` of the latest
        #: ``apply_updates`` batch: what a batch log records for replay.
        self.last_batch: Tuple[List[Tuple[int, int]], ...] = ([], [])
        # Immutable CSR base (the initial graph) + per-vertex delta overlay.
        self._base_offsets = None
        self._base_targets = None
        self._base_n = 0
        self._added: Dict[int, Set[int]] = {}
        self._removed: Dict[int, Set[int]] = {}
        #: Directed entries across both overlays, kept in step by every
        #: path that adds or discards one (``overlay_size`` is O(1)).
        self._overlay_entries = 0
        # Flat per-vertex state, grown on demand.
        self._capacity = 0
        self._present = _np.zeros(0, dtype=bool)
        self._selected = _np.zeros(0, dtype=bool)
        self._tight = _np.zeros(0, dtype=_np.int64)
        self._degree = _np.zeros(0, dtype=_np.int64)
        #: Conservative per-vertex flag: True once the vertex has (ever
        #: had) a delta-overlay entry, so vectorized adjacency gathers
        #: can skip the per-vertex dict probes on clean vertices.
        self._overlay_dirty = _np.zeros(0, dtype=bool)
        self._num_present = 0
        self._num_edges = 0
        self._max_id = -1

        if graph is not None:
            self._base_offsets, self._base_targets = graph.csr_arrays()
            self._base_n = graph.num_vertices
            self._grow(self._base_n)
            self._max_id = self._base_n - 1
            self._num_present = self._base_n
            self._num_edges = graph.num_edges
            self._present[: self._base_n] = True
            self._degree[: self._base_n] = _np.diff(self._base_offsets)
            if initial is None:
                initial = solve_mis(graph, pipeline=pipeline, backend=backend)
            self._selected[
                initial_members(initial, self._base_n, _unknown_initial_vertex)
            ] = True
            self._recompute_tightness()
            if self._tight[self._selected].any():
                raise SolverError("the initial set is not independent")
            self._saturate(self._uncovered_ids())
            # The journal records the *update stream*; construction-time
            # saturation is part of the initial state, not an update.
            self.journal.clear()

    # ------------------------------------------------------------------
    # Flat-array plumbing
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        """Ensure the state arrays cover vertex ids ``0 .. needed - 1``."""

        if needed <= self._capacity:
            return
        new_capacity = max(needed, 2 * self._capacity, 16)
        for name in ("_present", "_selected", "_tight", "_degree", "_overlay_dirty"):
            old = getattr(self, name)
            fresh = _np.zeros(new_capacity, dtype=old.dtype)
            fresh[: old.size] = old
            setattr(self, name, fresh)
        self._capacity = new_capacity

    def _selected_ids(self) -> List[int]:
        return _np.flatnonzero(self._selected).tolist()

    def _present_ids(self) -> List[int]:
        return _np.flatnonzero(self._present).tolist()

    def _uncovered_ids(self) -> List[int]:
        """Present vertices that are neither selected nor tight, ascending.

        Whole-graph saturation needs only these: saturating selects and
        never unselects, so a vertex outside this mask stays selected or
        tight and the ``_saturate`` loop would skip it anyway.
        """

        return _np.flatnonzero(
            self._present & ~self._selected & (self._tight == 0)
        ).tolist()

    # ------------------------------------------------------------------
    # Adjacency (CSR base + deltas)
    # ------------------------------------------------------------------
    def _base_slice(self, vertex: int) -> List[int]:
        if not (0 <= vertex < self._base_n):
            return []
        return self._base_targets[
            self._base_offsets[vertex] : self._base_offsets[vertex + 1]
        ].tolist()

    def _neighbors(self, vertex: int) -> List[int]:
        """Current neighbours of ``vertex`` (base minus removed plus added)."""

        removed = self._removed.get(vertex)
        neighbors = (
            [u for u in self._base_slice(vertex) if u not in removed]
            if removed
            else self._base_slice(vertex)
        )
        added = self._added.get(vertex)
        if added:
            neighbors.extend(added)
        return neighbors

    def _base_has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._base_n and 0 <= v < self._base_n):
            return False
        start = self._base_offsets[u]
        end = self._base_offsets[u + 1]
        slot = bisect_left(self._base_targets, v, int(start), int(end))
        return slot < end and self._base_targets[slot] == v

    def _has_edge(self, u: int, v: int) -> bool:
        added = self._added.get(u)
        if added and v in added:
            return True
        if self._base_has_edge(u, v):
            removed = self._removed.get(u)
            return not (removed and v in removed)
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the maintained graph."""

        return self._num_present

    @property
    def num_edges(self) -> int:
        """Number of edges currently in the maintained graph."""

        return self._num_edges

    @property
    def independent_set(self) -> FrozenSet[int]:
        """The currently maintained independent set."""

        return frozenset(self._selected_ids())

    @property
    def members(self) -> _np.ndarray:
        """The maintained independent set as an ascending int64 array."""

        return _np.flatnonzero(self._selected)

    @property
    def size(self) -> int:
        """Size of the maintained independent set."""

        return int(self._selected.sum())

    def to_graph(self) -> Graph:
        """Materialise the current graph as an immutable :class:`Graph`."""

        num_vertices = self._max_id + 1
        added_pairs = [
            (u, v)
            for u, neighbors in self._added.items()
            for v in neighbors
            if u < v
        ]
        offsets, targets = self.base_arrays()
        sources = _np.repeat(
            _np.arange(self._base_n, dtype=_np.int64), _np.diff(offsets)
        )
        forward = sources < targets
        eu, ev = sources[forward], targets[forward]
        removed_keys = {
            u * num_vertices + v
            for u, neighbors in self._removed.items()
            for v in neighbors
            if u < v
        }
        if removed_keys:
            keys = eu * num_vertices + ev
            keep = ~_np.isin(keys, _np.fromiter(removed_keys, dtype=_np.int64))
            eu, ev = eu[keep], ev[keep]
        edges = _np.column_stack((eu, ev))
        if added_pairs:
            edges = _np.concatenate((edges, _np.asarray(added_pairs, dtype=_np.int64)))
        return Graph(num_vertices, edges)

    def _recompute_tightness(self) -> None:
        """Rebuild the tightness array from the selection flags.

        The CSR base contributes one vectorized masked bincount; the
        (small) delta overlay is patched in scalar.
        """

        self._tight[:] = 0
        if self._base_n:
            degrees = _np.diff(self._base_offsets)
            sources = _np.repeat(_np.arange(self._base_n, dtype=_np.int64), degrees)
            mask = self._selected[self._base_targets]
            self._tight[: self._base_n] += _np.bincount(
                sources[mask], minlength=self._base_n
            )
        for u, neighbors in self._removed.items():
            for v in neighbors:
                if self._selected[v]:
                    self._tight[u] -= 1
        for u, neighbors in self._added.items():
            for v in neighbors:
                if self._selected[v]:
                    self._tight[u] += 1

    def check_invariants(self) -> None:
        """Raise :class:`SolverError` if independence or maximality is violated.

        The check recomputes the tightness counters from scratch (it does
        not trust the incrementally maintained array), so it also catches
        maintainer bugs.
        """

        maintained = self._tight.copy()
        self._recompute_tightness()
        try:
            for u in self._selected_ids():
                if not self._present[u]:
                    raise SolverError(f"selected vertex {u} is not in the graph")
                if self._tight[u]:
                    conflict = next(
                        w for w in self._neighbors(u) if self._selected[w]
                    )
                    raise SolverError(
                        f"selected vertices {u} and {conflict} are adjacent"
                    )
            uncovered = self._uncovered_ids()
            if uncovered:
                raise SolverError(
                    f"vertex {uncovered[0]} is uncovered: the set is not maximal"
                )
            if (maintained != self._tight).any():
                raise SolverError("the maintained tightness counters drifted")
            if self._overlay_entries != self._count_overlay():
                raise SolverError(
                    f"the overlay counter drifted: {self._overlay_entries} "
                    f"vs {self._count_overlay()} overlay entries"
                )
        finally:
            self._tight[:] = maintained

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _create_vertex(self, vertex: int) -> None:
        self._grow(vertex + 1)
        self._present[vertex] = True
        self._num_present += 1
        if vertex > self._max_id:
            self._max_id = vertex

    def _select(self, vertex: int) -> None:
        self._selected[vertex] = True
        for u in self._neighbors(vertex):
            self._tight[u] += 1
        self.stats.additions += 1
        self.journal.append(("select", vertex))

    def _unselect(self, vertex: int) -> None:
        self._selected[vertex] = False
        for u in self._neighbors(vertex):
            self._tight[u] -= 1
        self.journal.append(("unselect", vertex))

    def add_vertex(self) -> int:
        """Add an isolated vertex; it immediately joins the independent set."""

        vertex = self._max_id + 1
        self._create_vertex(vertex)
        self._select(vertex)
        self.stats.vertices_added += 1
        return vertex

    def insert_edge(self, u: int, v: int, *, exist_ok: bool = True) -> None:
        """Insert the undirected edge ``{u, v}``, creating vertices as needed.

        Inserting an edge that already exists is a no-op by default; with
        ``exist_ok=False`` it raises :class:`DuplicateEdgeError` instead.
        """

        if u == v:
            raise GraphError("self loops are not allowed")
        for vertex in (u, v):
            if vertex < 0:
                raise GraphError("vertex ids must be non-negative")
            if not (vertex < self._capacity and self._present[vertex]):
                self._create_vertex(vertex)
            # Vertices with no selected neighbour join the set before the
            # edge goes in (covers brand-new vertices in particular).
            if not self._selected[vertex] and not self._tight[vertex]:
                self._select(vertex)
        if self._has_edge(u, v):
            if exist_ok:
                return
            raise DuplicateEdgeError(u, v)
        self._apply_edge_insert(u, v)
        self.stats.edges_inserted += 1

        if self._selected[u] and self._selected[v]:
            evicted = u if self._degree[u] >= self._degree[v] else v
            self._unselect(evicted)
            self.stats.evictions += 1
            self._saturate(self._neighbors(evicted) + [evicted])

    def _apply_edge_insert(self, u: int, v: int) -> None:
        self._link(u, v)
        if self._selected[v]:
            self._tight[u] += 1
        if self._selected[u]:
            self._tight[v] += 1

    def _link(self, u: int, v: int) -> None:
        """Add the absent edge ``{u, v}`` to the adjacency (graph only)."""

        for a, b in ((u, v), (v, u)):
            removed = self._removed.get(a)
            if removed and b in removed:
                removed.discard(b)
                self._overlay_entries -= 1
            else:
                self._added.setdefault(a, set()).add(b)
                self._overlay_entries += 1
            self._overlay_dirty[a] = True
            self._degree[a] += 1
        self._num_edges += 1

    def _unlink(self, u: int, v: int) -> None:
        """Remove the present edge ``{u, v}`` from the adjacency (graph only)."""

        for a, b in ((u, v), (v, u)):
            added = self._added.get(a)
            if added and b in added:
                added.discard(b)
                self._overlay_entries -= 1
            else:
                self._removed.setdefault(a, set()).add(b)
                self._overlay_entries += 1
            self._overlay_dirty[a] = True
            self._degree[a] -= 1
        self._num_edges -= 1

    def _deletable(self, u: int, v: int) -> bool:
        """Whether deleting ``{u, v}`` changes the graph (else a no-op)."""

        if u == v or min(u, v) < 0 or max(u, v) >= self._capacity:
            return False
        if not (self._present[u] and self._present[v]):
            return False
        return self._has_edge(u, v)

    def delete_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}`` (a no-op if it does not exist)."""

        if not self._deletable(u, v):
            return
        self._unlink(u, v)
        if self._selected[v]:
            self._tight[u] -= 1
        if self._selected[u]:
            self._tight[v] -= 1
        self.stats.edges_deleted += 1
        self._saturate((u, v))

    def delete_vertex(self, vertex: int) -> None:
        """Delete ``vertex`` and its incident edges from the graph.

        The vertex leaves the set if it was selected, and its former
        neighbourhood is re-saturated (any neighbour left without a
        selected neighbour is added back greedily, smallest degree
        first).  Raises :class:`VertexError` for unknown vertices.
        """

        if vertex < 0:
            raise GraphError("vertex ids must be non-negative")
        if vertex >= self._capacity or not self._present[vertex]:
            raise VertexError(vertex, self._max_id + 1)
        neighbors = self._neighbors(vertex)
        if self._selected[vertex]:
            self._unselect(vertex)
        for u in neighbors:
            self._unlink(u, vertex)
        self._tight[vertex] = 0
        self._present[vertex] = False
        self._num_present -= 1
        self.stats.edges_deleted += len(neighbors)
        self.stats.vertices_deleted += 1
        self._saturate(neighbors)

    def apply_updates(
        self,
        insertions: Iterable[Tuple[int, int]] = (),
        deletions: Iterable[Tuple[int, int]] = (),
        *,
        exist_ok: bool = True,
    ) -> UpdateStats:
        """Apply a bulk update stream: every insertion, then every deletion.

        Accepts any iterable of ``(u, v)`` pairs — including ``(m, 2)``
        integer ndarrays.  Each batch side is deduplicated first (repeats
        of the same undirected edge keep the first occurrence only), then
        handed to the kernel backend's ``dynamic_apply_pass``, which
        applies each update with exactly the per-edge semantics of
        :meth:`insert_edge` / :meth:`delete_edge`.  With
        ``exist_ok=False`` an insertion that duplicates an existing edge
        raises :class:`DuplicateEdgeError` before anything is applied,
        matching :meth:`insert_edge`'s single-edge strict mode.  Returns
        the (cumulative) :class:`UpdateStats`.
        """

        backend = get_backend(self._backend)
        insertions = backend.normalize_updates_pass(insertions, strict=True)
        deletions = backend.normalize_updates_pass(deletions, strict=False)
        if not exist_ok:
            # Deletions run after insertions and duplicates are gone, so
            # checking against the pre-batch graph is exactly the moment
            # insert_edge would have seen each edge.
            for u, v in insertions:
                if self._has_edge(u, v):
                    raise DuplicateEdgeError(u, v)
        backend.dynamic_apply_pass(self, insertions, deletions)
        self.last_batch = (insertions, deletions)
        self._maybe_compact()
        return self.stats

    def rebuild(self, pipeline: Optional[str] = None) -> None:
        """Recompute the set from scratch with a full pipeline run."""

        graph = self.to_graph()
        solution = solve_mis(
            graph, pipeline=pipeline or self._pipeline, backend=self._backend
        ).members
        # to_graph() may contain placeholder ids for vertices that were never
        # created; keep only real vertices and re-saturate the rest.
        solution = solution[solution < self._capacity]
        self._selected[:] = False
        self._selected[solution[self._present[solution]]] = True
        self._recompute_tightness()
        self._saturate(self._uncovered_ids())
        self.stats.rebuilds += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    @property
    def overlay_size(self) -> int:
        """Number of directed entries in the delta overlay (O(1))."""

        return self._overlay_entries

    def _count_overlay(self) -> int:
        """``overlay_size`` recounted from the overlay sets themselves."""

        return sum(len(s) for s in self._added.values()) + sum(
            len(s) for s in self._removed.values()
        )

    def compact(self) -> None:
        """Fold the delta overlay back into fresh CSR base arrays.

        Compaction only rewrites the adjacency representation: the
        selected set, tightness, degree and presence arrays — and hence
        every future update decision — are untouched.  Afterwards the
        overlay is empty and per-vertex neighbour scans are pure CSR
        slices again.
        """

        graph = self.to_graph()
        self._base_offsets, self._base_targets = graph.csr_arrays()
        self._base_n = graph.num_vertices
        self._added.clear()
        self._removed.clear()
        self._overlay_entries = 0
        self._overlay_dirty[:] = False
        self.stats.compactions += 1

    def _maybe_compact(self) -> None:
        if (
            self.compact_threshold is not None
            and self.overlay_size >= self.compact_threshold
        ):
            self.compact()

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------
    def base_arrays(self) -> Tuple[Any, Any]:
        """The immutable CSR base ``(offsets, targets)`` arrays."""

        if self._base_offsets is None:
            offsets, targets = Graph(0, []).csr_arrays()
            return offsets, targets
        return self._base_offsets, self._base_targets

    def state_payload(self) -> Dict[str, Any]:
        """JSON-serialisable maintainer state (without the CSR base).

        Together with :meth:`base_arrays` this captures the full state:
        :meth:`from_state` rebuilds an identical maintainer — degrees and
        tightness are recomputed deterministically from the adjacency and
        selection, so only flags, overlays and counters are stored.  The
        bulky fields are flat int ndarrays that the checkpoint encoder
        packs without a per-element walk:

        * ``selected_bits`` — the selection over ``[0, max_id]`` as a
          big-endian bitmap, one signed byte per 8 vertices;
        * ``absent`` — ids in ``[0, max_id]`` that are not in the graph;
        * ``added`` / ``removed`` — the overlay edges as ``u0, v0, u1,
          v1, ...`` with ``u < v``, sorted by ``(u, v)``.
        """

        count = self._max_id + 1
        return {
            "pipeline": self._pipeline,
            "max_id": self._max_id,
            "num_present": self._num_present,
            "num_edges": self._num_edges,
            "selected_bits": _np.packbits(self._selected[:count]).view(_np.int8),
            "absent": _np.flatnonzero(~self._present[:count]),
            "added": _flat_overlay_edges(self._added),
            "removed": _flat_overlay_edges(self._removed),
            "stats": asdict(self.stats),
        }

    @classmethod
    def from_state(
        cls,
        payload: Dict[str, Any],
        base_offsets,
        base_targets,
        *,
        backend: Optional[str] = None,
        compact_threshold: Optional[int] = None,
        records: Iterable[Dict[str, Any]] = (),
    ) -> "DynamicMISMaintainer":
        """Rebuild a maintainer from :meth:`state_payload` + CSR base.

        ``payload`` may hold the fields as ndarrays (straight from
        :meth:`state_payload`) or as the int lists a checkpoint decodes to;
        the base arrays may be any int sequences and are coerced to int64
        ndarrays here.  ``records`` are batch-log records (see
        :meth:`replay_batch`) of the batches applied after ``payload`` was
        taken, replayed in order before tightness is recomputed once.
        """

        maintainer = cls(
            pipeline=payload["pipeline"],
            backend=backend,
            compact_threshold=compact_threshold,
        )
        base_offsets = _np.asarray(base_offsets, dtype=_np.int64)
        maintainer._base_offsets = base_offsets
        maintainer._base_targets = _np.asarray(base_targets, dtype=_np.int64)
        maintainer._base_n = len(base_offsets) - 1
        max_id = int(payload["max_id"])
        count = max_id + 1
        maintainer._max_id = max_id
        maintainer._num_present = int(payload["num_present"])
        maintainer._num_edges = int(payload["num_edges"])
        maintainer._grow(count)
        added = _overlay_pairs(payload["added"])
        removed = _overlay_pairs(payload["removed"])
        maintainer._present[:count] = True
        maintainer._present[_np.asarray(payload["absent"], dtype=_np.int64)] = False
        bits = _np.asarray(payload["selected_bits"], dtype=_np.int8)
        maintainer._selected[:count] = _np.unpackbits(
            bits.view(_np.uint8), count=count
        ).astype(bool)
        maintainer._degree[: maintainer._base_n] = _np.diff(base_offsets)
        for pairs, overlay in (
            (added, maintainer._added),
            (removed, maintainer._removed),
        ):
            for u, v in pairs:
                overlay.setdefault(u, set()).add(v)
                overlay.setdefault(v, set()).add(u)
                maintainer._overlay_dirty[u] = True
                maintainer._overlay_dirty[v] = True
        for u, neighbors in maintainer._added.items():
            maintainer._degree[u] += len(neighbors)
        for u, neighbors in maintainer._removed.items():
            maintainer._degree[u] -= len(neighbors)
        maintainer._overlay_entries = maintainer._count_overlay()
        maintainer.stats = UpdateStats(**payload["stats"])
        for record in records:
            maintainer.replay_batch(record)
        maintainer._recompute_tightness()
        return maintainer

    def replay_batch(self, record: Dict[str, Any]) -> None:
        """Re-apply one logged ``apply_updates`` batch without deciding anything.

        ``record`` holds the batch's normalised ``insertions`` and
        ``deletions`` as flat ``u0, v0, u1, v1, ...`` int arrays, the
        selection ``flips`` it journalled (``v`` for a select, ``~v`` for
        an unselect, in journal order) and the ``stats`` after it.  The
        edge updates change only the graph — overlay, degrees, vertex
        creation — and skip no-op edges exactly as the live path does;
        the flips then reproduce the batch's selection changes.  No MIS
        decision is made, and tightness is left stale: :meth:`from_state`
        recomputes it once after the last record.  A logged batch never
        compacted (a compaction is always snapshotted instead).
        """

        for u, v in _overlay_pairs(record["insertions"]):
            for vertex in (u, v):
                if not (vertex < self._capacity and self._present[vertex]):
                    self._create_vertex(vertex)
            if not self._has_edge(u, v):
                self._link(u, v)
        for u, v in _overlay_pairs(record["deletions"]):
            if self._deletable(u, v):
                self._unlink(u, v)
        flips = record["flips"]
        for code in flips.tolist() if hasattr(flips, "tolist") else flips:
            if code >= 0:
                self._selected[code] = True
            else:
                self._selected[~code] = False
        self.stats = UpdateStats(**record["stats"])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # The three hooks below are the bulk counterparts of ``_select`` /
    # ``_unselect`` used by the wave scheduler: a committed sub-wave
    # journals, flips selection flags and scatters tightness for many
    # vertices in one call each instead of one python call per vertex.
    def _journal_extend(self, entries: Iterable[Tuple[str, int]]) -> None:
        self.journal.extend(entries)

    def _store_selected(self, vertices, value: bool) -> None:
        self._selected[vertices] = value

    def _scatter_tight(self, vertices, deltas) -> None:
        _np.add.at(self._tight, vertices, deltas)

    def _saturate(self, candidates: Iterable[int]) -> None:
        """Greedily add any candidate left without a selected neighbour."""

        pool = sorted(
            {
                v
                for v in candidates
                if 0 <= v < self._capacity and self._present[v]
            },
            key=lambda v: (self._degree[v], v),
        )
        for vertex in pool:
            if self._selected[vertex]:
                continue
            if not self._tight[vertex]:
                self._select(vertex)


# ----------------------------------------------------------------------
# State payload encoding helpers
# ----------------------------------------------------------------------
def _flat_overlay_edges(overlay: Dict[int, Set[int]]):
    """One overlay's undirected edges as flat ``u, v`` pairs, ``u < v``, sorted."""

    size = len(overlay)
    sources = _np.fromiter(overlay.keys(), dtype=_np.int64, count=size)
    lengths = _np.fromiter(map(len, overlay.values()), dtype=_np.int64, count=size)
    us = _np.repeat(sources, lengths)
    vs = _np.fromiter(
        chain.from_iterable(overlay.values()), dtype=_np.int64, count=int(lengths.sum())
    )
    forward = us < vs
    us, vs = us[forward], vs[forward]
    order = _np.lexsort((vs, us))
    return _np.column_stack((us[order], vs[order])).ravel()


def _overlay_pairs(flat) -> List[Tuple[int, int]]:
    """Inverse of :func:`_flat_overlay_edges`: flat ``u, v`` values → pairs."""

    values = flat.tolist() if hasattr(flat, "tolist") else list(flat)
    if len(values) % 2:
        raise SolverError("overlay edge arrays must hold an even number of ids")
    return list(zip(values[0::2], values[1::2]))
