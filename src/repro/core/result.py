"""Result and telemetry objects returned by every solver.

A solver returns an :class:`MISResult`: the independent set itself plus
the per-round telemetry needed to reproduce Tables 6–8 (round counts, new
IS vertices per round, I/O counters, modeled memory) without re-running
the algorithm.  The set has one form from the kernel pass to the result
writer, ``MISResult.members``: an ascending, duplicate-free int64 array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, Tuple, Union

import numpy as np

from repro.storage.io_stats import IOStats

__all__ = ["RoundStats", "MISResult", "as_members", "initial_members"]


def as_members(vertices: Iterable[int]) -> np.ndarray:
    """``vertices`` as an ascending, duplicate-free, 1-D int64 array.

    A strictly ascending 1-D int64 array is returned as is (no copy, no
    sort); anything else is copied, sorted and deduplicated.  Sort and
    compare rather than ``np.unique``, which imports ``numpy.ma`` (about
    20 ms) in every fresh or forked process that reaches it.
    """

    if not isinstance(vertices, np.ndarray):
        vertices = np.fromiter(vertices, dtype=np.int64)
    elif vertices.dtype == np.int64 and vertices.ndim == 1:
        if (vertices[1:] > vertices[:-1]).all():
            return vertices
        vertices = vertices.copy()
    else:
        vertices = vertices.astype(np.int64).ravel()
    vertices.sort()
    keep = np.ones(vertices.size, dtype=bool)
    np.not_equal(vertices[1:], vertices[:-1], out=keep[1:])
    return vertices[keep]


@dataclass(frozen=True)
class RoundStats:
    """Telemetry of one swap round (one iteration of the outer while loop).

    Attributes
    ----------
    round_index:
        1-based index of the round.
    gained:
        Net increase of the independent-set size during this round.
    one_k_swaps:
        Number of IS vertices removed by 1↔k swaps (each removal is one
        1↔k swap).
    two_k_swaps:
        Number of 2↔k swaps performed (two-k-swap algorithm only).
    zero_one_swaps:
        Number of 0↔1 swaps (vertices added in the post-swap phase
        because all of their neighbours were outside the IS).
    is_size_after:
        Independent-set size at the end of the round.
    sc_vertices:
        Number of vertices held in SC sets at the peak of this round
        (two-k-swap only; 0 otherwise).
    """

    round_index: int
    gained: int
    one_k_swaps: int
    two_k_swaps: int
    zero_one_swaps: int
    is_size_after: int
    sc_vertices: int = 0


@dataclass(frozen=True, eq=False)
class MISResult:
    """Outcome of one solver run.

    Attributes
    ----------
    algorithm:
        Canonical algorithm name (``"greedy"``, ``"one_k_swap"``,
        ``"two_k_swap"``, ``"baseline"``, ``"dynamic_update"``,
        ``"external_mis"``, ``"exact"`` …).
    members:
        The vertices of the computed independent set, normalized by
        :func:`as_members` (a strictly ascending int64 array is kept as
        is).  ``independent_set`` is a cached frozenset view of it.
    rounds:
        Per-round telemetry (empty for single-pass algorithms).
    io:
        Snapshot of the I/O counters accumulated while the solver ran.
    memory_bytes:
        Modeled semi-external memory footprint (see
        :class:`repro.storage.memory.MemoryModel`).
    elapsed_seconds:
        Wall-clock time of the run.
    initial_size:
        Size of the independent set the solver started from.  The greedy
        passes report 0; DynamicUpdate — constructive, with no improvement
        phase — reports the size of the set it built, so improvement-ratio
        comparisons see a zero gain rather than a bogus one.
    extras:
        Free-form additional metrics (e.g. ``max_sc_vertices``).
    """

    algorithm: str
    members: np.ndarray
    rounds: Tuple[RoundStats, ...] = ()
    io: IOStats = field(default_factory=IOStats)
    memory_bytes: int = 0
    elapsed_seconds: float = 0.0
    initial_size: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", as_members(self.members))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.members, other.members) and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.name != "members"
        )

    @cached_property
    def independent_set(self) -> FrozenSet[int]:
        """The members as a frozenset (built on first access, then cached)."""

        return frozenset(self.members.tolist())

    @property
    def size(self) -> int:
        """Number of vertices in the independent set."""

        return self.members.size

    @property
    def num_rounds(self) -> int:
        """Number of swap rounds executed (the Table 7 quantity)."""

        return len(self.rounds)

    @property
    def total_gain(self) -> int:
        """Vertices gained over the initial independent set."""

        return self.size - self.initial_size

    def gain_after_rounds(self, num_rounds: int) -> int:
        """Vertices gained within the first ``num_rounds`` rounds (Table 8)."""

        return sum(r.gained for r in self.rounds[:num_rounds])

    def swap_completion_ratio(self, num_rounds: int) -> float:
        """Fraction of the total swap gain achieved after ``num_rounds`` rounds.

        Returns 1.0 when the algorithm gained nothing at all (there was
        nothing to complete), matching how Table 8 reports the DBLP row.
        """

        total = self.total_gain
        if total <= 0:
            return 1.0
        return self.gain_after_rounds(num_rounds) / total

    def approximation_ratio(self, upper_bound: float) -> float:
        """Size divided by an upper bound on the independence number."""

        if upper_bound <= 0:
            raise ValueError("the upper bound must be positive")
        return self.size / upper_bound

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by the CLI and the benchmark reports."""

        return {
            "algorithm": self.algorithm,
            "size": self.size,
            "rounds": self.num_rounds,
            "initial_size": self.initial_size,
            "memory_bytes": self.memory_bytes,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "sequential_scans": self.io.sequential_scans,
            "random_vertex_lookups": self.io.random_vertex_lookups,
        }

    def with_algorithm(self, name: str) -> "MISResult":
        """Return a copy of the result relabelled with another algorithm name."""

        return replace(self, algorithm=name, extras=dict(self.extras))


def initial_members(
    initial: Union[MISResult, Iterable[int]],
    num_vertices: int,
    unknown_vertex: Callable[[int], Exception],
) -> np.ndarray:
    """A previous result or iterable of ids as members, range-checked.

    The members are ascending, so their two ends decide the bounds
    check; a vertex outside ``0 .. num_vertices - 1`` raises
    ``unknown_vertex(v)``.
    """

    members = initial.members if isinstance(initial, MISResult) else as_members(initial)
    if members.size and not 0 <= members[0] <= members[-1] < num_vertices:
        raise unknown_vertex(int(members[0] if members[0] < 0 else members[-1]))
    return members
