"""Shared helpers for tests that compare or persist ``on_round`` snapshots.

Both kernel backends hand out their per-vertex arrays as 1-D integer
ndarrays, which encode to the checkpoint bytes of the equal int lists.
:func:`plain` turns a snapshot into plain JSON data so the tests can
compare snapshots with ``==`` and ``json.dumps`` them.
:func:`oscillating_graph` is the instance whose unbounded swap loops only
the oscillation guard stops.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from repro.graphs.graph import Graph


def oscillating_graph() -> Graph:
    """A G(24, 236) instance whose one-k and two-k swap loops, started from
    the greedy set in degree order, cycle forever unguarded."""

    pairs = list(itertools.combinations(range(24), 2))
    edges = random.Random(168).sample(pairs, 236)
    return Graph(24, edges)


def plain(value):
    """``value`` with every ndarray replaced by its int list.

    Asserts that each ndarray is 1-D with an integer dtype (the snapshot
    contract); every other value is rebuilt unchanged.
    """

    if isinstance(value, np.ndarray):
        assert value.ndim == 1, f"snapshot array is {value.ndim}-D"
        assert value.dtype.kind in "iu", f"snapshot array dtype is {value.dtype}"
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(item) for item in value)
    return value
