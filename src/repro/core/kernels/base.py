"""Kernel-backend interface, registry and default selection.

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

The default backend is ``numpy`` (numpy is a required dependency) and can
be overridden with the ``REPRO_KERNEL_BACKEND`` environment variable,
:func:`set_default_backend`, the ``backend=`` argument of the solver
entry points, or the ``--backend`` CLI flag.

Backends are *selected per call*: each backend reports through
:meth:`KernelBackend.supports` whether it can execute against the given
scan source, and :func:`resolve_backend` falls back to the streaming
``python`` reference when it cannot.  The numpy backend supports
in-memory sources and record-major ones (``csr_views``): a ``SEXTCSR1``
memmap, or a text
:class:`~repro.storage.adjacency_file.AdjacencyFileReader` through its
spill; only custom record-streaming sources still fall back.
"""

from __future__ import annotations

import abc
import importlib
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.result import RoundStats
from repro.errors import SolverError

__all__ = [
    "KernelBackend",
    "WaveTelemetry",
    "available_backends",
    "decode_rounds",
    "default_backend_name",
    "encode_rounds",
    "get_backend",
    "observe_pass",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "set_pass_observer",
]

#: Environment variable that overrides the auto-detected default backend.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

# ---------------------------------------------------------------------------
# observability hooks
#
# Kernels are the bottom of the stack and must not depend on the obs
# layer, so instrumentation is inverted: an observer callable is
# installed process-wide (``repro.obs.kernel_observation``) and each
# pass reports through ``observe_pass``.  With no observer installed
# the cost is a single ``None`` check per *pass* (not per vertex), so
# the hot loops stay allocation-free.
# ---------------------------------------------------------------------------

_PASS_OBSERVER: Optional[Callable[[str, str, Mapping[str, object]], None]] = None


def set_pass_observer(
    observer: Optional[Callable[[str, str, Mapping[str, object]], None]],
) -> Optional[Callable[[str, str, Mapping[str, object]], None]]:
    """Install the kernel-pass observer; returns the previous one."""

    global _PASS_OBSERVER
    previous = _PASS_OBSERVER
    _PASS_OBSERVER = observer
    return previous


def observe_pass(pass_name: str, backend: str, **fields: object) -> None:
    """Report one completed kernel pass to the installed observer."""

    if _PASS_OBSERVER is not None:
        _PASS_OBSERVER(pass_name, backend, fields)


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

        ``registry.advance`` raises each counter to the current total,
        so calling this at every batch boundary keeps the registry the
        canonical surface while the dataclass stays the cheap in-loop
        accumulator.
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


class KernelBackend(abc.ABC):
    """Computational passes shared by every kernel backend.

    Each method receives an already-normalised scan source, performs the
    full algorithm body (including the per-sweep ``IOStats`` accounting),
    and returns plain Python containers; the public solver functions wrap
    the outcome into :class:`~repro.core.result.MISResult` objects.
    """

    #: Registry key and CLI name of the backend.
    name: str = "abstract"

    def supports(self, source) -> bool:
        """Whether this backend can execute against ``source``."""

        return True

    @abc.abstractmethod
    def greedy_pass(self, source) -> FrozenSet[int]:
        """Algorithm 1: one sequential scan, returns the independent set."""

    @abc.abstractmethod
    def one_k_swap_pass(
        self,
        source,
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], bool]:
        """Algorithm 2: 1↔k/0↔1 swap rounds until a fixpoint (or ``max_rounds``).

        The final element reports whether the oscillation guard stopped a
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
        values are JSON data or 1-D integer ndarrays: the numpy backend
        hands out copies of its per-vertex arrays, the python reference
        keeps int lists, and both encode to the same checkpoint bytes
        (:mod:`repro.storage.checkpoint`).  A persisted snapshot resumes
        exactly like the in-memory one.  Snapshots are backend-specific
        (the oscillation fingerprints hash each backend's canonical
        encoding) and must be resumed on the backend that produced them.
        """

    @abc.abstractmethod
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
        """Algorithms 3/4: 2↔k swap rounds; also returns the peak SC size.

        The final element is the oscillation-guard flag, and ``resume`` /
        ``on_round`` behave as in :meth:`one_k_swap_pass`.
        """

    @abc.abstractmethod
    def local_search_pass(
        self,
        graph,
        initial_set: FrozenSet[int],
        max_iterations: int,
    ) -> Tuple[FrozenSet[int], int]:
        """In-memory (1,2)-swap local search over the CSR arrays.

        Starting from ``initial_set`` the pass maximalises the set once
        (ascending ``(degree, id)`` order), then performs sweeps over the
        ascending-id snapshot of the independent set: each IS vertex with
        two non-adjacent *loose* neighbours (unselected vertices whose only
        IS neighbour is the vertex itself) is replaced by the
        lexicographically first such pair, followed by a local
        re-maximalisation of the freed neighbourhood.  Sweeps repeat until
        none improves or ``max_iterations`` accepted moves were made.

        Returns the final independent set and the number of accepted
        moves.  The procedure is fully deterministic, so every backend
        returns bit-identical results.
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
        pairs, deletions drop them as no-ops.  The default is the shared
        scalar helper; the numpy backend overrides it with a vectorized
        sort/unique sweep producing the identical list.
        """

        from repro.core.kernels.python_backend import normalize_updates

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


_REGISTRY: Dict[str, KernelBackend] = {}
_DEFAULT: Optional[str] = None

#: Backends registered by importing their module on the first lookup of
#: their name.  The numpy backend registers when :mod:`repro.core.kernels`
#: is imported; the python reference loads only in runs that resolve to it.
_LAZY_BACKENDS = {"python": "repro.core.kernels.python_backend"}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (last registration wins)."""

    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted (the python reference
    counts as registered before its first use)."""

    return tuple(sorted(set(_REGISTRY) | set(_LAZY_BACKENDS)))


def default_backend_name() -> str:
    """The name of the backend used when no explicit choice is made.

    Resolution order: :func:`set_default_backend` override, the
    ``REPRO_KERNEL_BACKEND`` environment variable, then ``numpy``.
    """

    if _DEFAULT is not None:
        return _DEFAULT
    env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if env:
        if env not in available_backends():
            raise SolverError(
                f"{BACKEND_ENV_VAR}={env!r} does not name a registered kernel "
                f"backend; available: {', '.join(available_backends())}"
            )
        return env
    return "numpy"


def set_default_backend(name: Optional[str]) -> None:
    """Force the process-wide default backend (``None`` restores the default)."""

    global _DEFAULT
    if name is not None and name not in available_backends():
        raise SolverError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    _DEFAULT = name


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Return the backend registered under ``name`` (default backend if ``None``)."""

    if name is None or name == "auto":
        name = default_backend_name()
    if name not in _REGISTRY and name in _LAZY_BACKENDS:
        importlib.import_module(_LAZY_BACKENDS[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None


def resolve_backend(name: Optional[str], source) -> KernelBackend:
    """Pick the backend that will actually run against ``source``.

    When the requested backend cannot execute against ``source`` (per
    :meth:`KernelBackend.supports`), the streaming ``python`` reference is
    used instead.  The numpy backend supports in-memory sources and
    record-major ones (``csr_views``), which covers both file formats:
    text inputs spill once to a private ``SEXTCSR1`` memmap; the spill is
    not charged to ``IOStats``.  Only custom record-streaming sources
    still fall back.
    """

    backend = get_backend(name)
    if not backend.supports(source):
        return get_backend("python")
    return backend
