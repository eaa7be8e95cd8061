"""The Aiello–Chung–Lu power-law random graph model :math:`P(\\alpha, \\beta)`.

Section 2.2 of the paper defines the model by its degree distribution:
the number of vertices with degree ``x`` is ``y`` where
``log y = alpha - beta * log x``, i.e. ``y = e^alpha / x^beta`` — and the
random graph is realised with the *configuration model*:

1. form a multiset ``L`` containing ``deg(v)`` copies of each vertex ``v``;
2. choose a random perfect matching of ``L``;
3. connect ``u`` and ``v`` once for every matched pair of their copies.

Self loops and parallel edges created by the matching are discarded so the
result is a simple graph (the expected number of such collisions is a
vanishing fraction of the edges for ``beta > 1``).

The module also provides the closed-form vertex/edge counts of
Equation (2) and a helper that solves for ``alpha`` given a target vertex
count, which the experiments use ("fix the number of vertices to 10
million and vary beta").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as _np

from repro.errors import AnalysisError, GraphError
from repro.graphs.graph import Graph

__all__ = [
    "PLRGParameters",
    "zeta_partial",
    "plrg_max_degree",
    "plrg_expected_vertices",
    "plrg_expected_edges",
    "alpha_for_vertex_count",
    "plrg_degree_sequence",
    "plrg_graph",
    "plrg_graph_with_vertex_count",
]


def zeta_partial(exponent: float, terms: int) -> float:
    """Partial zeta sum ``zeta(x, y) = sum_{i=1..y} 1 / i^x`` used by Equation (2)."""

    if terms < 0:
        raise AnalysisError(f"the number of terms must be non-negative, got {terms}")
    return sum(1.0 / i**exponent for i in range(1, terms + 1))


def plrg_max_degree(alpha: float, beta: float) -> int:
    """Maximum degree ``Delta = floor(e^(alpha / beta))`` of :math:`P(\\alpha, \\beta)`."""

    if beta <= 0:
        raise AnalysisError(f"beta must be positive, got {beta}")
    return int(math.floor(math.exp(alpha / beta)))


def plrg_expected_vertices(alpha: float, beta: float) -> float:
    """Expected vertex count ``|V| = zeta(beta, Delta) * e^alpha`` (Equation 2)."""

    delta = plrg_max_degree(alpha, beta)
    return zeta_partial(beta, delta) * math.exp(alpha)


def plrg_expected_edges(alpha: float, beta: float) -> float:
    """Expected edge count ``|E| = 1/2 * zeta(beta - 1, Delta) * e^alpha`` (Equation 2).

    Equation (2) of the paper counts edge *endpoints* (the sum of degrees);
    we report undirected edges, hence the factor one half.
    """

    delta = plrg_max_degree(alpha, beta)
    return 0.5 * zeta_partial(beta - 1.0, delta) * math.exp(alpha)


def alpha_for_vertex_count(num_vertices: int, beta: float) -> float:
    """Solve ``plrg_expected_vertices(alpha, beta) == num_vertices`` for ``alpha``.

    A simple bisection; the expected vertex count is monotonically
    increasing in ``alpha``.
    """

    if num_vertices < 1:
        raise AnalysisError("num_vertices must be positive")
    low, high = 0.0, 1.0
    while plrg_expected_vertices(high, beta) < num_vertices:
        high *= 2.0
        if high > 1e6:  # pragma: no cover - defensive only
            raise AnalysisError("failed to bracket alpha for the requested vertex count")
    for _ in range(200):
        mid = (low + high) / 2.0
        if plrg_expected_vertices(mid, beta) < num_vertices:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


@dataclass(frozen=True)
class PLRGParameters:
    """Convenience bundle of the :math:`P(\\alpha, \\beta)` model parameters.

    Attributes
    ----------
    alpha:
        Logarithm of the graph size (the intercept of the log-log degree
        distribution).
    beta:
        Log-log decay rate of the degree distribution.
    """

    alpha: float
    beta: float

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Delta`` of the model."""

        return plrg_max_degree(self.alpha, self.beta)

    @property
    def expected_vertices(self) -> float:
        """Expected number of vertices of the model."""

        return plrg_expected_vertices(self.alpha, self.beta)

    @property
    def expected_edges(self) -> float:
        """Expected number of undirected edges of the model."""

        return plrg_expected_edges(self.alpha, self.beta)

    def vertices_with_degree(self, degree: int) -> int:
        """Number of vertices with the given degree, ``floor(e^alpha / degree^beta)``."""

        if degree < 1:
            raise AnalysisError("degrees in the PLRG model start at 1")
        return int(math.floor(math.exp(self.alpha) / degree**self.beta))

    @classmethod
    def from_vertex_count(cls, num_vertices: int, beta: float) -> "PLRGParameters":
        """Build parameters whose expected vertex count is ``num_vertices``."""

        return cls(alpha=alpha_for_vertex_count(num_vertices, beta), beta=beta)


def plrg_degree_sequence(params: PLRGParameters) -> List[int]:
    """Materialise the deterministic degree sequence of :math:`P(\\alpha, \\beta)`.

    Degree ``x`` contributes ``floor(e^alpha / x^beta)`` vertices, for
    ``x = 1 .. Delta``.  The sequence lists the degree of every vertex and
    is returned in ascending order.  The per-degree counts come from
    :meth:`PLRGParameters.vertices_with_degree` — a scalar loop over the
    (small) maximum degree; only the O(|V|) materialisation is vectorized.
    """

    max_degree = params.max_degree
    counts = [params.vertices_with_degree(degree) for degree in range(1, max_degree + 1)]
    return _np.repeat(_np.arange(1, max_degree + 1, dtype=_np.int64), counts).tolist()


def plrg_graph(
    params: PLRGParameters,
    seed: Optional[int] = None,
    sort_by_degree: bool = True,
) -> Graph:
    """Sample a simple graph from :math:`P(\\alpha, \\beta)` via the configuration model.

    Parameters
    ----------
    params:
        Model parameters.
    seed:
        Seed of the pseudo-random matching.
    sort_by_degree:
        When true (the default) vertex ids are assigned so that vertex 0 has
        the smallest degree — i.e. the natural scan order of the resulting
        graph is already the ascending-degree order the paper's
        pre-processing produces.  Set to ``False`` to obtain a random id
        assignment (useful for exercising the external sort).
    """

    degrees = plrg_degree_sequence(params)
    if not degrees:
        raise GraphError("the PLRG parameters produce an empty degree sequence")
    rng = random.Random(seed)
    num_vertices = len(degrees)

    vertex_degrees = list(degrees)
    if not sort_by_degree:
        rng.shuffle(vertex_degrees)

    stubs = _np.repeat(
        _np.arange(num_vertices, dtype=_np.int64),
        _np.asarray(vertex_degrees, dtype=_np.int64),
    ).tolist()
    if len(stubs) % 2 == 1:
        # Drop one stub of the highest-degree vertex so the matching is perfect.
        stubs.pop()
    rng.shuffle(stubs)

    pairs = _np.asarray(stubs, dtype=_np.int64).reshape(-1, 2)
    # Graph() drops the matching's self loops and parallel edges.
    return Graph(num_vertices, pairs)


def plrg_graph_with_vertex_count(
    num_vertices: int,
    beta: float,
    seed: Optional[int] = None,
    sort_by_degree: bool = True,
) -> Graph:
    """Sample a PLRG graph whose expected vertex count is ``num_vertices``."""

    params = PLRGParameters.from_vertex_count(num_vertices, beta)
    return plrg_graph(params, seed=seed, sort_by_degree=sort_by_degree)
