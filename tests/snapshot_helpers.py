"""Shared helper for tests that compare or persist ``on_round`` snapshots.

The numpy kernels hand out their per-vertex arrays as 1-D integer
ndarrays, the python reference as int lists; both encode to the same
checkpoint bytes.  :func:`plain` turns a snapshot into plain JSON data so
the tests can compare snapshots with ``==`` and ``json.dumps`` them.
"""

from __future__ import annotations

import numpy as np


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
