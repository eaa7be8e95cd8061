"""The "STXXL" comparator: external maximal independent set.

The paper compares against an external-memory maximal independent set
algorithm implemented on top of the STXXL library, following Zeh's
time-forward-processing technique: vertices are processed in increasing
id order; a vertex joins the set unless a smaller-id neighbour that
already joined has sent it an "excluded" message; when a vertex joins, it
forwards exclusion messages to all of its larger-id neighbours through an
external priority queue keyed by the recipient id.

The I/O complexity is ``O(sort(|V| + |E|))``.  Because STXXL itself is not
available here, the priority queue is simulated: entries are buffered in
memory but every push/pop batch is charged to an
:class:`repro.storage.io_stats.IOStats` object at the block granularity a
disk-resident queue would incur, so the comparison of I/O volumes remains
meaningful.

The algorithm produces *a* maximal independent set with no quality
guarantee — exactly the behaviour Table 5 shows (it is dominated by the
degree-ordered greedy and by the swap algorithms).
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Tuple, Union

from repro.core.result import MISResult
from repro.graphs.graph import Graph
from repro.storage.io_stats import IOStats
from repro.storage.memory import MemoryModel
from repro.storage.scan import AdjacencyScanSource, as_scan_source

__all__ = ["SimulatedExternalPriorityQueue", "external_maximal_is"]

#: Bytes per queue entry: a 4-byte recipient id plus a 4-byte payload.
_ENTRY_BYTES = 8


class SimulatedExternalPriorityQueue:
    """Min-priority queue that charges block I/O like a disk-resident queue.

    Every ``block_entries`` pushed (or popped) entries account for one
    block written (or read).  This mirrors the amortised I/O behaviour of
    an external priority queue without materialising run files.
    """

    def __init__(self, stats: Optional[IOStats] = None, block_size: int = 64 * 1024) -> None:
        self.stats = stats if stats is not None else IOStats()
        self._block_entries = max(1, block_size // _ENTRY_BYTES)
        self._heap: List[Tuple[int, int]] = []
        self._pushed_since_charge = 0
        self._popped_since_charge = 0
        self.max_size = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, key: int, value: int) -> None:
        """Insert ``(key, value)``; keys are popped in ascending order."""

        heapq.heappush(self._heap, (key, value))
        self.max_size = max(self.max_size, len(self._heap))
        self._pushed_since_charge += 1
        if self._pushed_since_charge >= self._block_entries:
            self.stats.record_write(self._pushed_since_charge * _ENTRY_BYTES, 1)
            self._pushed_since_charge = 0

    def pop_until(self, key: int) -> List[int]:
        """Pop and return every value whose key is ``<= key``."""

        values: List[int] = []
        while self._heap and self._heap[0][0] <= key:
            _, value = heapq.heappop(self._heap)
            values.append(value)
            self._popped_since_charge += 1
            if self._popped_since_charge >= self._block_entries:
                self.stats.record_read(self._popped_since_charge * _ENTRY_BYTES, 1, True)
                self._popped_since_charge = 0
        return values

    def flush_accounting(self) -> None:
        """Charge any partially filled block (call once at the end)."""

        if self._pushed_since_charge:
            self.stats.record_write(self._pushed_since_charge * _ENTRY_BYTES, 1)
            self._pushed_since_charge = 0
        if self._popped_since_charge:
            self.stats.record_read(self._popped_since_charge * _ENTRY_BYTES, 1, True)
            self._popped_since_charge = 0


def external_maximal_is(
    graph_or_source: Union[Graph, AdjacencyScanSource],
    memory_model: Optional[MemoryModel] = None,
    block_size: int = 64 * 1024,
) -> MISResult:
    """Compute a maximal independent set by time-forward processing.

    Vertices are processed in ascending id order with one sequential scan;
    exclusion messages travel forward in time through the simulated
    external priority queue.
    """

    source = as_scan_source(graph_or_source, order="id")
    model = memory_model if memory_model is not None else MemoryModel()
    started = time.perf_counter()
    io_before = source.stats.copy()

    queue = SimulatedExternalPriorityQueue(stats=source.stats, block_size=block_size)
    in_set: List[bool] = [False] * source.num_vertices

    for vertex, neighbors in source.scan():
        excluded_by = queue.pop_until(vertex)
        if excluded_by:
            continue
        in_set[vertex] = True
        for neighbor in neighbors:
            if neighbor > vertex:
                queue.push(neighbor, vertex)
    queue.flush_accounting()

    elapsed = time.perf_counter() - started
    return MISResult(
        algorithm="external_mis",
        members=[v for v in range(source.num_vertices) if in_set[v]],
        rounds=(),
        io=source.stats.delta_since(io_before),
        memory_bytes=model.external_mis_bytes(block_size),
        elapsed_seconds=elapsed,
        initial_size=0,
        extras={"max_queue_entries": float(queue.max_size)},
    )
