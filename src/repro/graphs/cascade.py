"""The cascading-swap worst case of Figure 5.

Section 5.4 shows that, in the worst case, the one-k-swap algorithm needs a
number of swap rounds linear in the number of vertices: a *cascade-swap
graph* is built from a chain of triples ``(a_i, b_i, c_i)`` such that in
round ``r`` only the swap ``a_{k-r} -> {b_{k-r}, c_{k-r}}`` is possible.

The construction used here:

* each triple has the edges ``a_i - b_i`` and ``a_i - c_i``;
* for every triple except the last, ``b_i`` and ``c_i`` are also adjacent
  to ``a_{i+1}``.

When the greedy independent set is ``{a_0, ..., a_{k-1}}`` (which the
helper :func:`cascade_initial_independent_set` returns), only ``b_{k-1}``
and ``c_{k-1}`` have exactly one IS neighbour, so only the last triple can
swap in round one; the swap then frees the previous triple, and so on —
``k`` rounds in total.  This is the ablation fixture used by
``benchmarks/bench_ablation_cascade.py`` and the round-count tests.
"""

from __future__ import annotations

from typing import Set, Tuple

import numpy as _np

from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "cascade_swap_graph",
    "cascade_initial_independent_set",
    "cascade_optimal_size",
]


def _triple_ids(index: int) -> Tuple[int, int, int]:
    """Vertex ids ``(a, b, c)`` of the ``index``-th triple."""

    base = 3 * index
    return base, base + 1, base + 2


def cascade_swap_graph(num_triples: int) -> Graph:
    """Build a cascade-swap graph with ``num_triples`` chained triples."""

    if num_triples < 1:
        raise GraphError("a cascade-swap graph needs at least one triple")
    a = 3 * _np.arange(num_triples, dtype=_np.int64)
    within = _np.concatenate(
        (_np.column_stack((a, a + 1)), _np.column_stack((a, a + 2)))
    )
    chain_a = a[:-1]
    next_a = a[1:]
    links = _np.concatenate(
        (
            _np.column_stack((chain_a + 1, next_a)),
            _np.column_stack((chain_a + 2, next_a)),
        )
    )
    return Graph(3 * num_triples, _np.concatenate((within, links)))


def cascade_initial_independent_set(num_triples: int) -> Set[int]:
    """The adversarial starting independent set ``{a_0, ..., a_{k-1}}``."""

    if num_triples < 1:
        raise GraphError("a cascade-swap graph needs at least one triple")
    return {_triple_ids(index)[0] for index in range(num_triples)}


def cascade_optimal_size(num_triples: int) -> int:
    """Independence number of :func:`cascade_swap_graph`.

    Taking every ``b_i`` and ``c_i`` is independent (the only edges among
    them go to ``a`` vertices), so the independence number is
    ``2 * num_triples``.
    """

    if num_triples < 1:
        raise GraphError("a cascade-swap graph needs at least one triple")
    return 2 * num_triples
