"""Kernel-backend interface and the one backend lookup.

A *kernel backend* implements the hot computational passes of the three
semi-external algorithms (Algorithm 1 greedy, Algorithm 2 one-k-swap,
Algorithms 3/4 two-k-swap) against a scan source.  Two backends ship:

* ``python`` — the reference implementation: plain Python loops over any
  :class:`~repro.storage.scan.AdjacencyScanSource`, including true
  file-backed readers.  This is the original, line-for-line algorithm of
  the paper and the ground truth the vectorized backend is tested against.
* ``numpy`` — vectorized state sweeps over a record-major CSR: the
  in-memory CSR arrays of a :class:`~repro.storage.scan.InMemoryAdjacencyScan`
  or the sections of a ``SEXTCSR1`` memmap (the semi-external path).  Text
  inputs spill once to a private ``SEXTCSR1`` memmap; the spill is not
  charged to ``IOStats``.  Every full-graph O(n)/O(E) sweep (bitmap
  initialisation, adjacency labelling, pointer counting, swap commits,
  completion passes) runs as ndarray operations; only the inherently
  sequential per-round swap-conflict logic stays scalar.
  Results — independent sets, per-round telemetry and I/O counters — are
  bit-identical to the python backend.

One lookup, :func:`get_backend`, picks the backend for every call.  A
request of ``None``, ``""`` or ``"auto"`` means the
``REPRO_KERNEL_BACKEND`` environment variable, else ``numpy``; any other
value (the ``backend=`` argument of the solver entry points, the
``--backend`` CLI flag, a service run spec's ``backend``) names the
backend outright, and an unknown name raises
:class:`~repro.errors.SolverError`.  Given the scan source, the lookup
falls back to the streaming ``python`` reference for a source the numpy
backend cannot read: one with neither an in-memory CSR nor record-major
sections (``csr_views``).  Both file formats have such sections — a
``SEXTCSR1`` memmap directly, a text
:class:`~repro.storage.adjacency_file.AdjacencyFileReader` through its
spill — so only custom record-streaming sources fall back.  The lookup
holds no state: there is no registry and no process-wide default.
"""

from __future__ import annotations

import abc
import hashlib
import importlib
import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.result import RoundStats
from repro.errors import GraphError, SolverError
from repro.storage.scan import InMemoryAdjacencyScan

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "WaveTelemetry",
    "available_backends",
    "decode_rounds",
    "encode_rounds",
    "get_backend",
    "normalize_updates",
    "round_fingerprint",
]

#: Environment variable naming the backend of an unset or ``"auto"`` request.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


@dataclass
class WaveTelemetry:
    """How the wave scheduler spent one maintainer's update stream.

    Lives on :class:`~repro.dynamic.maintainer.DynamicMISMaintainer` as
    ``maintainer.wave`` and is written only by the numpy backend's
    dependency-partitioned wave scheduler — the scalar reference leaves
    it at zero.  Deliberately *not* part of
    :class:`~repro.dynamic.maintainer.UpdateStats`: the stats are the
    cross-backend parity bar, while these counters describe *how* one
    backend scheduled the work.  Not checkpointed (window adaptation
    state is not either), so resumed sessions restart the counters.
    """

    #: Candidate windows examined (each may yield several sub-waves).
    chunks: int = 0
    #: Dependency-free sub-waves committed in bulk.
    sub_waves: int = 0
    #: Conflict insertions (both endpoints selected) whose eviction and
    #: re-saturation were resolved inside a batched sub-wave.
    batched_evictions: int = 0
    #: Selection-flag flips (saturation selects, deletion re-covers)
    #: journalled from batched commits rather than scalar ``_select``.
    batched_selects: int = 0
    #: Updates that went through the scalar per-edge methods (hard rows
    #: and dependency-dense bursts).
    scalar_fallbacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)

    def record(self, registry) -> None:
        """Mirror the wave counters into a metrics registry.

        ``registry.advance`` raises each counter to the current total:
        the dataclass is the source, and the ``repro_wave_*`` series are
        a view of it refreshed at every batch boundary.
        """

        for field_name, total in asdict(self).items():
            registry.advance(f"repro_wave_{field_name}_total", total)


def encode_rounds(rounds) -> List[List[int]]:
    """Encode per-round telemetry as plain int lists (JSON-serializable).

    The encoding is part of the round-state snapshots the swap passes hand
    to ``on_round`` callbacks, which the pipeline engine persists into
    checkpoint files; :func:`decode_rounds` is the inverse.
    """

    return [
        [
            r.round_index,
            r.gained,
            r.one_k_swaps,
            r.two_k_swaps,
            r.zero_one_swaps,
            r.is_size_after,
            r.sc_vertices,
        ]
        for r in rounds
    ]


def decode_rounds(payload) -> List[RoundStats]:
    """Rebuild :class:`RoundStats` objects from :func:`encode_rounds` output."""

    return [
        RoundStats(
            round_index=int(row[0]),
            gained=int(row[1]),
            one_k_swaps=int(row[2]),
            two_k_swaps=int(row[3]),
            zero_one_swaps=int(row[4]),
            is_size_after=int(row[5]),
            sc_vertices=int(row[6]),
        )
        for row in payload
    ]


def round_fingerprint(state: np.ndarray, *isn: np.ndarray) -> bytes:
    """The oscillation guard's digest of a round-end ``(state, ISN)``: a
    repeat proves a ``max_rounds=None`` loop would cycle forever.

    BLAKE2b-16 over the uint8 ``state``, then each ISN array (``isn``, or
    ``isn1``/``isn2``; -1 = absent) as little-endian int64 — on both
    backends, so their guard histories and snapshots are equal.
    """

    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(state, dtype=np.uint8))
    for array in isn:
        digest.update(np.ascontiguousarray(array, dtype="<i8"))
    return digest.digest()


def encode_history(history) -> Optional[List[str]]:
    """Oscillation-guard fingerprints as sorted hex strings (``None`` passes through)."""

    if history is None:
        return None
    return sorted(fingerprint.hex() for fingerprint in history)


def decode_history(payload) -> Optional[set]:
    """Inverse of :func:`encode_history`."""

    if payload is None:
        return None
    return {bytes.fromhex(entry) for entry in payload}


def normalize_updates(updates, *, strict: bool) -> List[Tuple[int, int]]:
    """Coerce, validate and dedupe one side of an update batch.

    The scalar reference behind every backend's
    ``normalize_updates_pass``: duplicates of the same undirected edge
    keep only the first occurrence in its original orientation
    (orientation feeds the eviction tie-break).  ``strict`` mirrors the
    per-edge maintainer methods — insertions raise on malformed pairs,
    deletions drop them as no-ops.
    """

    if hasattr(updates, "tolist"):
        updates = updates.tolist()
    seen = set()
    normalized: List[Tuple[int, int]] = []
    for pair in updates:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            if strict:
                raise GraphError("self loops are not allowed")
            continue
        if u < 0 or v < 0:
            if strict:
                raise GraphError("vertex ids must be non-negative")
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        normalized.append((u, v))
    return normalized


class KernelBackend(abc.ABC):
    """Computational passes shared by every kernel backend.

    Each method receives an already-normalised scan source, performs the
    full algorithm body (including the per-sweep ``IOStats`` accounting),
    and returns the outcome; the public solver functions wrap it into
    :class:`~repro.core.result.MISResult` objects.  Sets go in and come
    out as :attr:`~repro.core.result.MISResult.members`, an ascending
    int64 array: the caller range-checks an initial set, and each pass
    builds its output fresh, so the result keeps it without a copy.
    """

    #: Lookup key and CLI name of the backend.
    name: str = "abstract"

    @abc.abstractmethod
    def greedy_pass(self, source) -> np.ndarray:
        """Algorithm 1: one sequential scan, returns the set's members."""

    @abc.abstractmethod
    def one_k_swap_pass(
        self,
        source,
        initial_set: np.ndarray,
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[np.ndarray, Tuple[RoundStats, ...], bool]:
        """Algorithm 2: 1↔k/0↔1 swap rounds until a fixpoint (or ``max_rounds``).

        Returns the members and the per-round telemetry.  The final
        element reports whether the oscillation guard stopped a
        ``max_rounds=None`` run after detecting a repeated
        ``(state, ISN)`` configuration.

        ``resume`` restores a round-state snapshot previously emitted to an
        ``on_round`` callback: the initial labelling scan is skipped and
        the round loop continues exactly where the snapshot was taken
        (``initial_set`` is ignored).  ``on_round`` — when given — is
        called after every completed swap round with a snapshot dict of
        the full loop state (vertex states, ISN entries, per-round
        telemetry, oscillation-guard fingerprints); this is the hook the
        pipeline engine uses for per-round checkpointing.  Snapshot
        values are JSON data or 1-D integer ndarrays (uint8 ``state``,
        int64 ISN entries, -1 = absent).  Both backends hand out equal
        snapshots, fingerprints included (:func:`round_fingerprint`), so
        one resumes — in memory or persisted — on either backend.
        """

    @abc.abstractmethod
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
        """Algorithms 3/4: 2↔k swap rounds; also returns the peak SC size.

        The final element is the oscillation-guard flag, and ``resume`` /
        ``on_round`` behave as in :meth:`one_k_swap_pass`.
        """

    @abc.abstractmethod
    def local_search_pass(
        self,
        graph,
        initial_set: np.ndarray,
        max_iterations: int,
    ) -> Tuple[np.ndarray, int]:
        """In-memory (1,2)-swap local search over the CSR arrays.

        Starting from ``initial_set`` the pass maximalises the set once
        (ascending ``(degree, id)`` order), then performs sweeps over the
        ascending-id snapshot of the independent set: each IS vertex with
        two non-adjacent *loose* neighbours (unselected vertices whose only
        IS neighbour is the vertex itself) is replaced by the
        lexicographically first such pair, followed by a local
        re-maximalisation of the freed neighbourhood.  Sweeps repeat until
        none improves or ``max_iterations`` accepted moves were made.

        Returns the final members and the number of accepted moves.  The
        procedure is fully deterministic, so every backend returns
        bit-identical results.
        """

    @abc.abstractmethod
    def dynamic_update_pass(self, graph) -> Tuple[int, ...]:
        """In-memory DynamicUpdate (minimum-degree greedy) over CSR arrays.

        The classic greedy of Halldórsson & Radhakrishnan with a
        deterministic round rule: each round snapshots every alive vertex
        of the current minimum degree in ascending-id order and processes
        the snapshot sequentially (selecting a vertex removes its closed
        neighbourhood and updates degrees; snapshot members whose degree
        changed are skipped).  Vertices whose degree *drops to* the round's
        degree mid-round wait for a later round.  Returns the selection
        sequence, which is bit-identical across backends.
        """

    def normalize_updates_pass(
        self, updates: Iterable[Tuple[int, int]], *, strict: bool
    ) -> List[Tuple[int, int]]:
        """Coerce, validate and dedupe one side of an update batch.

        Duplicates of the same undirected edge keep only the first
        occurrence in its original orientation (orientation feeds the
        eviction tie-break).  ``strict`` mirrors the per-edge methods:
        insertions raise :class:`~repro.errors.GraphError` on malformed
        pairs, deletions drop them as no-ops.  The default is the scalar
        :func:`normalize_updates`; the numpy backend overrides it with a
        vectorized sort/unique sweep producing the identical list.
        """

        return normalize_updates(updates, strict=strict)

    @abc.abstractmethod
    def dynamic_apply_pass(self, maintainer, insertions, deletions) -> None:
        """Apply one normalised update batch to a dynamic MIS maintainer.

        ``insertions`` and ``deletions`` are lists of ``(u, v)`` int pairs
        already validated and deduplicated by
        :meth:`~repro.dynamic.maintainer.DynamicMISMaintainer.apply_updates`;
        the pass mutates the maintainer in place with exactly the per-edge
        semantics of ``insert_edge`` / ``delete_edge``, every insertion
        first.  The python backend is the scalar reference; the numpy
        backend processes conflict-free sub-batches as vectorized waves
        and falls back to the scalar path at every update that changes a
        selection flag.  The resulting selected set, tightness array,
        selection sequence and drift counters are bit-identical across
        backends.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


#: Every shipped backend, by name, and the module that defines it.  A
#: module is imported on the first lookup of its name, so a run on the
#: numpy backend never imports the python reference.
_BACKEND_MODULES = {
    "numpy": "repro.core.kernels.numpy_backend",
    "python": "repro.core.kernels.python_backend",
}


def available_backends() -> Tuple[str, ...]:
    """Names of every shipped backend, sorted."""

    return tuple(_BACKEND_MODULES)


def get_backend(name: Optional[str] = None, source=None) -> KernelBackend:
    """The one backend lookup: the backend that runs for ``name`` on ``source``.

    ``None``, ``""`` and ``"auto"`` mean the ``REPRO_KERNEL_BACKEND``
    environment variable, else ``numpy``.  An unknown name, from the
    argument or the environment, raises :class:`SolverError`.  When a
    ``source`` is given and it has neither record-major sections
    (``csr_views``) nor an in-memory CSR, the numpy choice falls back to
    the streaming ``python`` reference.
    """

    available = ", ".join(available_backends())
    if not name or name == "auto":
        name = os.environ.get(BACKEND_ENV_VAR, "").strip().lower() or "numpy"
        if name not in _BACKEND_MODULES:
            raise SolverError(
                f"{BACKEND_ENV_VAR}={name!r} does not name a kernel backend; "
                f"available: {available}"
            )
    elif name not in _BACKEND_MODULES:
        raise SolverError(f"unknown kernel backend {name!r}; available: {available}")
    if (
        name == "numpy"
        and source is not None
        and not isinstance(source, InMemoryAdjacencyScan)
        and not hasattr(source, "csr_views")
    ):
        name = "python"
    return importlib.import_module(_BACKEND_MODULES[name]).BACKEND
