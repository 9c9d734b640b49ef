"""Tests for PEPS and Fagin's TA, including the paper's equivalence claim."""

from __future__ import annotations

import pytest

from repro.algorithms.base import PreferenceQueryRunner, make_preferences
from repro.algorithms.fagin import (
    GradeList,
    NaiveTopK,
    ThresholdAlgorithm,
    build_grade_lists,
    ta_top_k,
)
from repro.algorithms.peps import PEPSAlgorithm, peps_top_k
from repro.index import IncrementalPairIndex
from repro.core.intensity import combine_and
from repro.core.metrics import overlap, similarity
from repro.exceptions import EmptyPreferenceListError, TopKError


@pytest.fixture(scope="module")
def topk_workload(tiny_db):
    """Mixed venue/author preference list plus a runner, shared by the tests."""
    venues = [row["venue"] for row in
              tiny_db.query("SELECT venue, COUNT(*) AS n FROM dblp GROUP BY venue"
                            " ORDER BY n DESC LIMIT 2")]
    authors = [row["aid"] for row in
               tiny_db.query("SELECT aid, COUNT(*) AS n FROM dblp_author GROUP BY aid"
                             " ORDER BY n DESC LIMIT 3")]
    preferences = make_preferences([
        (f"dblp.venue = '{venues[0]}'", 0.8),
        (f"dblp.venue = '{venues[1]}'", 0.55),
        (f"dblp_author.aid = {authors[0]}", 0.6),
        (f"dblp_author.aid = {authors[1]}", 0.4),
        (f"dblp_author.aid = {authors[2]}", 0.25),
    ])
    return PreferenceQueryRunner(tiny_db), preferences


def brute_force_scores(runner, preferences):
    """Exact combined intensity of every covered tuple (reference oracle)."""
    scores = {}
    for preference in preferences:
        for pid in runner.ids(preference.predicate):
            scores.setdefault(pid, []).append(preference.intensity)
    return {pid: combine_and(values) for pid, values in scores.items()}


class TestGradeLists:
    def test_build_grade_lists_groups_by_attribute(self, topk_workload):
        runner, preferences = topk_workload
        lists = build_grade_lists(runner, preferences)
        assert len(lists) == 2  # venue family + author family
        assert all(len(grade_list) > 0 for grade_list in lists)

    def test_grades_fold_inflationary(self):
        grade_list = GradeList("author")
        grade_list.add(1, 0.5)
        grade_list.add(1, 0.5)
        assert grade_list.grade(1) == pytest.approx(0.75)
        assert grade_list.grade(99) == 0.0

    def test_sorted_entries_descending(self):
        grade_list = GradeList("venue")
        for pid, grade in ((1, 0.2), (2, 0.9), (3, 0.5)):
            grade_list.add(pid, grade)
        entries = grade_list.sorted_entries()
        assert [pid for pid, _ in entries] == [2, 3, 1]

    def test_negative_preferences_ignored(self, topk_workload):
        runner, preferences = topk_workload
        negatives = make_preferences([("dblp.year >= 1990", -0.5)], positive_only=False)
        assert build_grade_lists(runner, negatives) == []


class TestThresholdAlgorithm:
    def test_matches_naive_ranking(self, topk_workload):
        runner, preferences = topk_workload
        lists = build_grade_lists(runner, preferences)
        ta = ThresholdAlgorithm(lists).top_k(25)
        naive = NaiveTopK(lists).top_k(25)
        assert ta.ids() == naive.ids()
        for (_, ta_score), (_, naive_score) in zip(ta.ranking, naive.ranking):
            assert ta_score == pytest.approx(naive_score)

    def test_matches_brute_force_oracle(self, topk_workload):
        runner, preferences = topk_workload
        oracle = brute_force_scores(runner, preferences)
        expected = sorted(oracle.items(), key=lambda item: (-item[1], item[0]))[:10]
        result = ta_top_k(runner, preferences, 10)
        assert result.ids() == [pid for pid, _ in expected]

    def test_access_counters_populated(self, topk_workload):
        runner, preferences = topk_workload
        result = ta_top_k(runner, preferences, 5)
        assert result.sorted_accesses > 0
        assert result.random_accesses > 0

    def test_k_validation(self, topk_workload):
        runner, preferences = topk_workload
        lists = build_grade_lists(runner, preferences)
        with pytest.raises(TopKError):
            ThresholdAlgorithm(lists).top_k(0)
        with pytest.raises(TopKError):
            NaiveTopK(lists).top_k(-1)

    def test_requires_grade_lists(self):
        with pytest.raises(TopKError):
            ThresholdAlgorithm([])
        with pytest.raises(TopKError):
            NaiveTopK([])

    def test_all_scores_covers_union(self, topk_workload):
        runner, preferences = topk_workload
        lists = build_grade_lists(runner, preferences)
        scores = ThresholdAlgorithm(lists).all_scores()
        oracle = brute_force_scores(runner, preferences)
        assert set(scores) == set(oracle)
        for pid, value in scores.items():
            assert value == pytest.approx(oracle[pid])


class TestPairwiseIndex:
    def test_index_contains_all_pairs(self, topk_workload):
        runner, preferences = topk_workload
        index = IncrementalPairIndex(runner, preferences)
        n = len(preferences)
        assert len(index) == n * (n - 1) // 2

    def test_incompatible_pairs_marked_inapplicable(self, topk_workload):
        runner, preferences = topk_workload
        index = IncrementalPairIndex(runner, preferences)
        # Two different venue equalities can never be satisfied together.
        venue_indices = [i for i, pref in enumerate(preferences)
                         if "dblp.venue" in pref.sql]
        first, second = venue_indices[0], venue_indices[1]
        assert not index.is_applicable(first, second)
        assert index.pair(first, second).tuple_count == 0

    def test_pair_lookup_is_symmetric(self, topk_workload):
        runner, preferences = topk_workload
        index = IncrementalPairIndex(runner, preferences)
        assert index.pair(2, 0) == index.pair(0, 2)
        assert index.is_applicable(3, 3)

    def test_applicable_pairs_sorted_by_intensity(self, topk_workload):
        runner, preferences = topk_workload
        index = IncrementalPairIndex(runner, preferences)
        pairs = index.applicable_pairs_from(0)
        intensities = [pair.intensity for pair in pairs]
        assert intensities == sorted(intensities, reverse=True)


class TestPEPS:
    def test_order_combinations_sorted(self, topk_workload):
        runner, preferences = topk_workload
        peps = PEPSAlgorithm(runner, preferences)
        records = peps.order_combinations()
        intensities = [record.intensity for record in records]
        assert intensities == sorted(intensities, reverse=True)
        assert any(record.size == 1 for record in records)
        assert any(record.size >= 2 for record in records)

    def test_complete_emits_at_least_as_many_as_approximate(self, topk_workload):
        runner, preferences = topk_workload
        complete = PEPSAlgorithm(runner, preferences, approximate=False)
        approximate = PEPSAlgorithm(runner, preferences, approximate=True,
                                    pair_index=complete.pair_index)
        assert len(complete.order_combinations()) >= len(approximate.order_combinations())

    def test_top_k_matches_brute_force(self, topk_workload):
        runner, preferences = topk_workload
        oracle = brute_force_scores(runner, preferences)
        expected = sorted(oracle.items(), key=lambda item: (-item[1], item[0]))[:15]
        result = peps_top_k(runner, preferences, 15)
        assert [pid for pid, _ in result] == [pid for pid, _ in expected]
        for (_, got), (_, want) in zip(result, expected):
            assert got == pytest.approx(want)

    def test_peps_equals_ta_on_quantitative_only(self, topk_workload):
        """The paper's Section 7.6.3 claim: 100% similarity and overlap."""
        runner, preferences = topk_workload
        k = 30
        ta_ids = ta_top_k(runner, preferences, k).ids()
        peps_ids = [pid for pid, _ in peps_top_k(runner, preferences, k)]
        assert similarity(peps_ids, ta_ids) == 1.0
        assert overlap(peps_ids, ta_ids) == 1.0

    def test_min_intensity_threshold(self, topk_workload):
        runner, preferences = topk_workload
        peps = PEPSAlgorithm(runner, preferences)
        above = peps.retrieved_above(0.5)
        assert all(score >= 0.5 for _, score in above)
        oracle = brute_force_scores(runner, preferences)
        expected = {pid for pid, score in oracle.items() if score >= 0.5}
        assert {pid for pid, _ in above} == expected

    def test_k_must_be_positive(self, topk_workload):
        runner, preferences = topk_workload
        with pytest.raises(TopKError):
            PEPSAlgorithm(runner, preferences).top_k(0)

    def test_empty_preferences_rejected(self, topk_workload):
        runner, _ = topk_workload
        with pytest.raises(EmptyPreferenceListError):
            PEPSAlgorithm(runner, [])

    def test_reused_pair_index(self, topk_workload):
        runner, preferences = topk_workload
        index = IncrementalPairIndex(runner, preferences)
        first = PEPSAlgorithm(runner, preferences, pair_index=index).top_k(5)
        second = PEPSAlgorithm(runner, preferences, approximate=True,
                               pair_index=index).top_k(5)
        assert [pid for pid, _ in first] == [pid for pid, _ in second]
