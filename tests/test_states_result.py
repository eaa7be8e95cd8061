"""Unit tests for the vertex state machine and the result objects."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.result import MISResult, RoundStats
from repro.core.states import VertexState
from repro.storage.io_stats import IOStats


class TestVertexState:
    def test_letters_match_paper_notation(self):
        assert VertexState.IS.letter == "I"
        assert VertexState.NON_IS.letter == "N"
        assert VertexState.ADJACENT.letter == "A"
        assert VertexState.PROTECTED.letter == "P"
        assert VertexState.CONFLICT.letter == "C"
        assert VertexState.RETROGRADE.letter == "R"

    def test_from_letter_roundtrip(self):
        for state in VertexState:
            if state is VertexState.INITIAL:
                continue
            assert VertexState.from_letter(state.letter) is state

    def test_from_letter_is_case_insensitive(self):
        assert VertexState.from_letter("p") is VertexState.PROTECTED

    def test_from_letter_rejects_unknown(self):
        with pytest.raises(ValueError):
            VertexState.from_letter("X")

    def test_membership_helpers(self):
        assert VertexState.IS.in_independent_set
        assert not VertexState.PROTECTED.in_independent_set
        assert VertexState.ADJACENT.is_swap_candidate
        assert not VertexState.CONFLICT.is_swap_candidate


def _result_with_rounds() -> MISResult:
    rounds = (
        RoundStats(round_index=1, gained=10, one_k_swaps=8, two_k_swaps=0,
                   zero_one_swaps=2, is_size_after=110),
        RoundStats(round_index=2, gained=3, one_k_swaps=3, two_k_swaps=0,
                   zero_one_swaps=0, is_size_after=113),
        RoundStats(round_index=3, gained=1, one_k_swaps=1, two_k_swaps=0,
                   zero_one_swaps=0, is_size_after=114),
    )
    return MISResult(
        algorithm="one_k_swap",
        members=frozenset(range(114)),
        rounds=rounds,
        io=IOStats(sequential_scans=7),
        memory_bytes=512,
        elapsed_seconds=0.5,
        initial_size=100,
    )


class TestMISResult:
    def test_size_and_rounds(self):
        result = _result_with_rounds()
        assert result.size == 114
        assert result.num_rounds == 3
        assert result.total_gain == 14

    def test_gain_after_rounds(self):
        result = _result_with_rounds()
        assert result.gain_after_rounds(1) == 10
        assert result.gain_after_rounds(2) == 13
        assert result.gain_after_rounds(10) == 14

    def test_swap_completion_ratio(self):
        result = _result_with_rounds()
        assert result.swap_completion_ratio(1) == pytest.approx(10 / 14)
        assert result.swap_completion_ratio(3) == pytest.approx(1.0)

    def test_swap_completion_ratio_with_no_gain(self):
        result = MISResult(
            algorithm="one_k_swap", members=frozenset({1, 2}), initial_size=2
        )
        assert result.swap_completion_ratio(1) == 1.0

    def test_approximation_ratio(self):
        result = _result_with_rounds()
        assert result.approximation_ratio(120) == pytest.approx(114 / 120)
        with pytest.raises(ValueError):
            result.approximation_ratio(0)

    def test_summary_contains_key_metrics(self):
        summary = _result_with_rounds().summary()
        assert summary["algorithm"] == "one_k_swap"
        assert summary["size"] == 114
        assert summary["sequential_scans"] == 7

    def test_with_algorithm_relabels_only_the_name(self):
        result = _result_with_rounds()
        renamed = result.with_algorithm("baseline")
        assert renamed.algorithm == "baseline"
        assert renamed.independent_set == result.independent_set
        assert renamed.rounds == result.rounds
        assert renamed.extras is not result.extras


class TestMembers:
    """``members`` is the one form of the set: ascending, unique, int64."""

    @staticmethod
    def _check(result, expected):
        assert isinstance(result.members, np.ndarray)
        assert result.members.dtype == np.int64
        assert result.members.ndim == 1
        assert result.members.tolist() == expected

    def test_frozenset_is_sorted(self):
        result = MISResult(algorithm="greedy", members=frozenset({9, 2, 40, 7}))
        self._check(result, [2, 7, 9, 40])

    def test_unsorted_list_with_duplicates_is_deduplicated_and_sorted(self):
        result = MISResult(algorithm="greedy", members=[5, 1, 5, 3, 1, 0])
        self._check(result, [0, 1, 3, 5])

    def test_empty_inputs(self):
        self._check(MISResult(algorithm="reduce", members=()), [])
        self._check(MISResult(algorithm="reduce", members=np.empty(0, np.int64)), [])

    def test_ascending_int64_array_is_taken_without_a_copy(self):
        members = np.array([1, 4, 6, 11], dtype=np.int64)
        result = MISResult(algorithm="greedy", members=members)
        assert result.members is members

    def test_other_arrays_are_normalised(self):
        unsorted = np.array([6, 1, 6, 4], dtype=np.int64)
        result = MISResult(algorithm="greedy", members=unsorted)
        self._check(result, [1, 4, 6])
        assert unsorted.tolist() == [6, 1, 6, 4]
        self._check(
            MISResult(algorithm="greedy", members=np.array([3, 8], dtype=np.int32)),
            [3, 8],
        )

    def test_independent_set_is_a_cached_frozenset_view(self):
        result = MISResult(algorithm="greedy", members=[8, 2, 5])
        assert result.independent_set == frozenset({2, 5, 8})
        assert all(type(v) is int for v in result.independent_set)
        assert result.independent_set is result.independent_set
        assert result.size == 3
        assert type(result.size) is int

    def test_equality_compares_members_and_every_other_field(self):
        first = _result_with_rounds()
        second = _result_with_rounds()
        assert first == second
        assert not first != second
        assert first != dataclasses.replace(second, members=range(113))
        assert first != dataclasses.replace(second, elapsed_seconds=0.25)
        assert first != dataclasses.replace(second, extras={"x": 1.0})
        assert first != "one_k_swap"

    def test_dataclasses_replace_keeps_the_members_array(self):
        result = _result_with_rounds()
        relabelled = dataclasses.replace(result, algorithm="baseline")
        assert relabelled.members is result.members
        assert relabelled.algorithm == "baseline"
        assert relabelled.rounds == result.rounds
        replaced = dataclasses.replace(result, members=[3, 1])
        assert replaced.members.tolist() == [1, 3]
        assert replaced.independent_set == frozenset({1, 3})

    def test_result_is_frozen(self):
        result = _result_with_rounds()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.members = np.empty(0, np.int64)
