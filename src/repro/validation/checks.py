"""Independence and maximality checks.

These helpers are the ground truth used by the test suite and (optionally)
by the solver facade: a set is *independent* when no edge has both
endpoints inside it, and *maximal* when every outside vertex has at least
one neighbour inside it.  The set may be any iterable of vertex ids; each
check is one boolean mask over the CSR endpoints.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidIndependentSetError, VertexError
from repro.graphs.graph import Graph

__all__ = [
    "find_violating_edge",
    "is_independent_set",
    "assert_independent_set",
    "uncovered_vertices",
    "is_maximal_independent_set",
]


def _ids(vertices: Iterable[int]) -> np.ndarray:
    """The vertex ids as an int64 array (a one-pass iterable is read once)."""

    if isinstance(vertices, np.ndarray):
        return vertices.astype(np.int64, copy=False).ravel()
    return np.fromiter(vertices, dtype=np.int64)


def _selected(graph: Graph, vertices: Iterable[int], strict: bool) -> np.ndarray:
    """Membership mask; an id outside the graph raises if ``strict``."""

    ids = _ids(vertices)
    inside = (ids >= 0) & (ids < graph.num_vertices)
    if strict and not inside.all():
        raise VertexError(int(ids[~inside].min()), graph.num_vertices)
    selected = np.zeros(graph.num_vertices, dtype=bool)
    selected[ids[inside]] = True
    return selected


def find_violating_edge(graph: Graph, vertices: Iterable[int]) -> Optional[Tuple[int, int]]:
    """The smallest edge ``(u, w)``, ``u < w``, inside ``vertices``, or ``None``."""

    selected = _selected(graph, vertices, strict=True)
    offsets, targets = graph.csr_arrays()
    # Slots run in (source, target) order: the first violating slot is the
    # smallest edge, seen from its smaller endpoint.
    violating = np.repeat(selected, graph.degrees_array()) & selected[targets]
    if not violating.any():
        return None
    slot = int(violating.argmax())
    return int(np.searchsorted(offsets, slot, side="right")) - 1, int(targets[slot])


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether ``vertices`` form an independent set of ``graph``."""

    return find_violating_edge(graph, vertices) is None


def assert_independent_set(graph: Graph, vertices: Iterable[int]) -> None:
    """Raise :class:`InvalidIndependentSetError` when the set is not independent."""

    violation = find_violating_edge(graph, vertices)
    if violation is not None:
        raise InvalidIndependentSetError(*violation)


def uncovered_vertices(graph: Graph, vertices: Iterable[int]) -> List[int]:
    """Vertices outside the set with no neighbour inside it, ascending
    (empty iff maximal); ids outside the graph are ignored."""

    selected = _selected(graph, vertices, strict=False)
    _offsets, targets = graph.csr_arrays()
    neighbours = targets[np.repeat(selected, graph.degrees_array())]
    selected[neighbours] = True  # now: in the set or next to it
    return np.flatnonzero(~selected).tolist()


def is_maximal_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether the set is independent *and* maximal."""

    selected = _ids(vertices)
    return is_independent_set(graph, selected) and not uncovered_vertices(graph, selected)
