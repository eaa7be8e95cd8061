"""Output checks shared by the workloads (and tested on their own)."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.validation.checks import find_violating_edge, uncovered_vertices


def set_problem(graph, vertices: Iterable[int]) -> Optional[str]:
    """Why ``vertices`` is not a maximal independent set of ``graph``, or ``None``."""

    selected = set(int(v) for v in vertices)
    outside = [v for v in selected if not 0 <= v < graph.num_vertices]
    if outside:
        return f"vertex {outside[0]} is not in the graph"
    edge = find_violating_edge(graph, selected)
    if edge is not None:
        return f"not independent: edge {edge} has both endpoints in the set"
    missing = uncovered_vertices(graph, selected)
    if missing:
        return f"not maximal: {len(missing)} vertices (e.g. {missing[0]}) could join"
    return None
