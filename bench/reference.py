"""A fixed CPU task, timed next to the measured operations.

The shared 2-CPU host the benchmark was tuned on switches between speeds
about 1.5x apart, in phases that can outlast a whole run.  CPU time
tracks wall time through them, so they are the host's, not the
program's.  The bounded speed metric ``throughput_per_ref`` therefore
divides each operation's time by the time of this task measured right
next to it: the work an operation does in the time the host needs for
one reference task.  The task is benchmark code and never changes with
the program, so a change to the program moves only the numerator.

Like the program, the task mixes interpreted Python (dict inserts) with
numpy array work (a stable argsort).
"""

from __future__ import annotations

import time

import numpy as np

DICT_ITEMS = 200_000
SORT_ITEMS = 1_000_000


def reference_task() -> int:
    table = {}
    for i in range(DICT_ITEMS):
        table[i ^ 0x5555] = (i * 3) % 7
    values = np.random.default_rng(0).integers(0, 1 << 30, SORT_ITEMS)
    return sum(table.values()) + int(np.argsort(values, kind="stable")[0])


def reference_seconds() -> float:
    """Wall seconds of one reference task, now."""

    started = time.perf_counter()
    reference_task()
    return time.perf_counter() - started


def ratios(timed, references):
    """Each operation's time over the mean of the references around it.

    ``timed`` holds ``(i, seconds)`` pairs: reference ``i`` was timed just
    before the operation and reference ``i + 1`` just after it.
    """

    return [
        seconds / ((references[i] + references[i + 1]) / 2.0)
        for i, seconds in timed
    ]
