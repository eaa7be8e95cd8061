"""Semi-external memory accounting.

The problem statement (Section 2.1) restricts the solvers to
``c * |V| <= M << |G|`` bytes of main memory for a small constant ``c``.
This module provides:

* :class:`MemoryModel` — the *analytic* per-vertex memory model used to
  reproduce the memory column of Table 6.  The model mirrors the paper's
  accounting: the greedy algorithm needs only a per-vertex state flag, the
  one-k-swap algorithm a state byte plus one ISN entry per vertex
  (``2 |V|`` words), and the two-k-swap algorithm at most two ISN entries
  plus the SC sets (``<= 4 |V| - e^alpha`` words, Lemma 6).
* :class:`MemoryBudget` — a guard object that solvers use to assert that
  the structures they allocate stay within the configured budget, raising
  :class:`repro.errors.MemoryBudgetError` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import MemoryBudgetError

__all__ = ["MemoryModel", "MemoryBudget"]

#: Size of one vertex id / one machine word in the paper's accounting (4-byte ids).
WORD_BYTES = 4


@dataclass(frozen=True)
class MemoryModel:
    """Analytic semi-external memory model.

    Parameters
    ----------
    word_bytes:
        Bytes per vertex id (the paper uses 4-byte integers).
    """

    word_bytes: int = WORD_BYTES

    # ------------------------------------------------------------------
    # Per-algorithm models
    # ------------------------------------------------------------------
    def greedy_bytes(self, num_vertices: int) -> int:
        """Greedy memory: one state bit per vertex, packed into a bitmap."""

        return math.ceil(num_vertices / 8)

    def one_k_swap_bytes(self, num_vertices: int) -> int:
        """One-k-swap memory: the state array plus one ISN entry per vertex.

        The paper states the cost is ``2 |V|`` (state array + ISN set); in
        bytes that is one state byte plus one word per vertex.
        """

        return num_vertices * (1 + self.word_bytes)

    def two_k_swap_bytes(self, num_vertices: int, max_sc_vertices: int = 0) -> int:
        """Two-k-swap memory: state, up to two ISN entries, plus the SC sets.

        ``max_sc_vertices`` is the peak number of vertices stored in SC
        pairs during the run (Figure 10 reports it as roughly
        ``0.13 |V|``); each SC entry stores one vertex id.
        """

        base = num_vertices * (1 + 2 * self.word_bytes)
        return base + max_sc_vertices * self.word_bytes

    def labelled_start_bytes(self, num_vertices: int, isn_entries: int) -> int:
        """The labelled start a swap pass keeps besides its live arrays.

        Round snapshots store each per-vertex array as the entries that
        differ from the state right after labelling (Algorithm 2/3 lines
        1-3), so the pass holds that start once: a state byte plus
        ``isn_entries`` words per vertex (one for one-k, two for two-k).
        It is not part of the paper's ``2 |V|`` accounting
        (:meth:`one_k_swap_bytes`, :meth:`two_k_swap_bytes`); the passes
        add it to their modeled bytes.
        """

        return num_vertices * (1 + isn_entries * self.word_bytes)

    def dynamic_update_bytes(self, num_vertices: int, num_edges: int) -> int:
        """In-memory DynamicUpdate baseline: the whole graph plus bookkeeping.

        The adjacency structure costs ``2 |E|`` words, the degree array and
        the bucket queue ``2 |V|`` words each.
        """

        return (2 * num_edges + 4 * num_vertices) * self.word_bytes

    def local_search_bytes(self, num_vertices: int, num_edges: int) -> int:
        """In-memory (1,2)-swap local search: whole graph plus swap state.

        The adjacency structure costs ``2 |E|`` words, the tightness array
        and the sweep worklist ``|V|`` words each, and the selection flags
        one byte per vertex.  Like DynamicUpdate this needs the full graph
        resident, which is why the paper reports in-memory heuristics as
        "N/A" on the billion-edge datasets.
        """

        return (2 * num_edges + 2 * num_vertices) * self.word_bytes + num_vertices

    def reduce_bytes(
        self, num_vertices: int, num_edges: int, overlay_edges: int = 0
    ) -> int:
        """Exact reductions (the ``reduce`` stage): the whole graph in memory.

        The materialised graph costs ``|V| + 1 + 2 |E|`` words (CSR).  The
        rule sweep runs over at most ``1.5 |V|`` tokens (every fold adds
        one and removes three vertices), each with a degree word, two
        worklist words (the stack and its membership set) and a liveness
        byte.  Every fold-created edge sits in the overlay at both ends.
        """

        tokens = num_vertices + num_vertices // 2 + 2
        words = (num_vertices + 1 + 2 * num_edges) + 3 * tokens + 2 * overlay_edges
        return words * self.word_bytes + tokens

    def external_mis_bytes(self, block_size: int, fan_in: int = 16) -> int:
        """STXXL-style external maximal IS: a constant number of block buffers."""

        return block_size * fan_in

    def algorithm_bytes(
        self,
        algorithm: str,
        num_vertices: int,
        num_edges: int = 0,
        max_sc_vertices: int = 0,
        block_size: int = 64 * 1024,
    ) -> int:
        """Dispatch on the algorithm name used in the result objects."""

        name = algorithm.lower()
        if name in {"greedy", "baseline"}:
            return self.greedy_bytes(num_vertices)
        if name in {"one_k_swap", "one-k-swap"}:
            return self.one_k_swap_bytes(num_vertices)
        if name in {"two_k_swap", "two-k-swap"}:
            return self.two_k_swap_bytes(num_vertices, max_sc_vertices)
        if name in {"dynamic_update", "dynamicupdate"}:
            return self.dynamic_update_bytes(num_vertices, num_edges)
        if name in {"local_search", "local-search"}:
            return self.local_search_bytes(num_vertices, num_edges)
        if name in {"external_mis", "stxxl"}:
            return self.external_mis_bytes(block_size)
        raise ValueError(f"unknown algorithm {algorithm!r} for the memory model")

    def report(self, num_vertices: int, num_edges: int, max_sc_vertices: int = 0) -> Dict[str, int]:
        """Bytes for every algorithm at once (one Table 6 row)."""

        return {
            "dynamic_update": self.dynamic_update_bytes(num_vertices, num_edges),
            "external_mis": self.external_mis_bytes(64 * 1024),
            "greedy": self.greedy_bytes(num_vertices),
            "local_search": self.local_search_bytes(num_vertices, num_edges),
            "one_k_swap": self.one_k_swap_bytes(num_vertices),
            "two_k_swap": self.two_k_swap_bytes(num_vertices, max_sc_vertices),
        }


class MemoryBudget:
    """Tracks allocations against the semi-external budget ``M``.

    The solvers charge their per-vertex structures here; exceeding the
    budget raises :class:`MemoryBudgetError`, which is how the tests assert
    that the semi-external algorithms really do fit in ``c |V|`` words
    while the in-memory baseline does not.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise MemoryBudgetError(required=1, budget=budget_bytes, what="creating a budget")
        self.budget_bytes = int(budget_bytes)
        self._charges: Dict[str, int] = {}

    @classmethod
    def semi_external(cls, num_vertices: int, words_per_vertex: int = 8) -> "MemoryBudget":
        """Budget of ``c |V|`` words — the problem statement's constraint."""

        return cls(max(1, num_vertices) * words_per_vertex * WORD_BYTES)

    @property
    def used_bytes(self) -> int:
        """Total bytes charged so far."""

        return sum(self._charges.values())

    @property
    def remaining_bytes(self) -> int:
        """Bytes still available under the budget."""

        return self.budget_bytes - self.used_bytes

    def charge(self, label: str, num_bytes: int) -> None:
        """Charge ``num_bytes`` under ``label`` (replacing a previous charge of the label)."""

        if num_bytes < 0:
            raise MemoryBudgetError(required=num_bytes, budget=self.budget_bytes, what=label)
        previous = self._charges.get(label, 0)
        new_total = self.used_bytes - previous + num_bytes
        if new_total > self.budget_bytes:
            raise MemoryBudgetError(required=new_total, budget=self.budget_bytes, what=label)
        self._charges[label] = num_bytes

    def release(self, label: str) -> None:
        """Remove a charge (e.g. when an SC set is freed)."""

        self._charges.pop(label, None)

    def charges(self) -> Dict[str, int]:
        """Snapshot of every live charge."""

        return dict(self._charges)
