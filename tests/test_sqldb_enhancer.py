"""Tests for preference-aware query enhancement (Section 4.6)."""

from __future__ import annotations

import pytest

from repro.core.intensity import f_and, f_or
from repro.exceptions import EmptyPreferenceListError
from repro.sqldb import (
    conjunctive_clause,
    covered_paper_ids,
    disjunctive_clause,
    enhance_query,
    group_by_attribute,
    matching_paper_ids,
    mixed_clause,
    rank_tuples,
)

#: The user profile of Table 7 (uid=2): two venue and two author preferences.
TABLE7_PREFERENCES = [
    ("dblp.venue = 'INFOCOM'", 0.23),
    ("dblp.venue = 'PODS'", 0.14),
    ("dblp_author.aid = 128", 0.19),
    ("dblp_author.aid = 116", 0.14),
]


class TestClauseConstruction:
    def test_group_by_attribute(self):
        groups = group_by_attribute(TABLE7_PREFERENCES)
        assert len(groups) == 2
        sizes = sorted(len(members) for members in groups.values())
        assert sizes == [2, 2]

    def test_mixed_clause_matches_paper_rewrite(self):
        """Section 4.6: same attribute OR-ed, different attributes AND-ed."""
        predicate, intensity = mixed_clause(TABLE7_PREFERENCES)
        sql = predicate.to_sql()
        assert "dblp.venue = 'INFOCOM' OR dblp.venue = 'PODS'" in sql
        assert "dblp_author.aid = 128 OR dblp_author.aid = 116" in sql
        assert " AND " in sql
        expected = f_and(f_or(0.23, 0.14), f_or(0.19, 0.14))
        assert intensity == pytest.approx(expected)

    def test_conjunctive_clause(self):
        predicate, intensity = conjunctive_clause(TABLE7_PREFERENCES[:2])
        assert predicate.to_sql() == "dblp.venue = 'INFOCOM' AND dblp.venue = 'PODS'"
        assert intensity == pytest.approx(f_and(0.23, 0.14))

    def test_disjunctive_clause_orders_by_intensity(self):
        predicate, intensity = disjunctive_clause(TABLE7_PREFERENCES[:2])
        assert predicate.to_sql() == "dblp.venue = 'INFOCOM' OR dblp.venue = 'PODS'"
        assert intensity == pytest.approx(f_or(0.23, 0.14))

    def test_empty_preferences_rejected(self):
        with pytest.raises(EmptyPreferenceListError):
            mixed_clause([])

    def test_single_preference_mixed_clause(self):
        predicate, intensity = mixed_clause([("dblp.venue = 'PODS'", 0.4)])
        assert predicate.to_sql() == "dblp.venue = 'PODS'"
        assert intensity == pytest.approx(0.4)


class TestEnhanceQuery:
    def test_enhanced_sql_contains_clause(self):
        enhanced = enhance_query(TABLE7_PREFERENCES)
        assert enhanced.sql.startswith("SELECT *")
        assert "WHERE" in enhanced.sql
        assert enhanced.preference_count == 4
        assert 0.0 < enhanced.combined_intensity <= 1.0

    def test_semantics_selection(self):
        and_query = enhance_query(TABLE7_PREFERENCES[:2], semantics="and")
        or_query = enhance_query(TABLE7_PREFERENCES[:2], semantics="or")
        assert "AND" in and_query.sql
        assert "OR" in or_query.sql
        assert and_query.combined_intensity > or_query.combined_intensity

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError):
            enhance_query(TABLE7_PREFERENCES, semantics="xor")

    def test_limit_appended(self):
        enhanced = enhance_query(TABLE7_PREFERENCES, limit=3)
        assert enhanced.sql.endswith("LIMIT 3")

    def test_enhanced_query_runs_on_database(self, tiny_db):
        venues = [row["venue"] for row in
                  tiny_db.query("SELECT DISTINCT venue FROM dblp LIMIT 2")]
        preferences = [(f"dblp.venue = '{venues[0]}'", 0.8),
                       (f"dblp.venue = '{venues[1]}'", 0.4)]
        enhanced = enhance_query(preferences, columns=["DISTINCT dblp.pid"])
        assert enhanced.parameters == (venues[0], venues[1])
        rows = tiny_db.query(enhanced.sql, enhanced.parameters)
        assert len(rows) > 0


class TestRanking:
    def test_rank_orders_by_combined_intensity(self, tiny_db):
        venues = [row["venue"] for row in
                  tiny_db.query("SELECT DISTINCT venue FROM dblp LIMIT 2")]
        preferences = [(f"dblp.venue = '{venues[0]}'", 0.8),
                       ("dblp.year >= 2005", 0.5)]
        ranked = rank_tuples(tiny_db, preferences)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        # Tuples matching both preferences take the inflationary combination.
        both = set(matching_paper_ids(tiny_db, preferences[0][0])) & set(
            matching_paper_ids(tiny_db, preferences[1][0]))
        if both:
            best_pid = ranked[0][0]
            assert best_pid in both
            assert ranked[0][1] == pytest.approx(f_and(0.8, 0.5))

    def test_rank_top_k_truncates(self, tiny_db):
        ranked = rank_tuples(tiny_db, [("dblp.year >= 2000", 0.5)], top_k=5)
        assert len(ranked) == 5

    def test_negative_preferences_excluded_by_default(self, tiny_db):
        venue = tiny_db.scalar("SELECT venue FROM dblp LIMIT 1")
        ranked = rank_tuples(tiny_db, [(f"dblp.venue = '{venue}'", -0.5)])
        assert ranked == []
        ranked_with = rank_tuples(tiny_db, [(f"dblp.venue = '{venue}'", -0.5)],
                                  include_negative=True)
        assert ranked_with

    def test_covered_paper_ids_union(self, tiny_db):
        venues = [row["venue"] for row in
                  tiny_db.query("SELECT DISTINCT venue FROM dblp LIMIT 2")]
        preferences = [(f"dblp.venue = '{venues[0]}'", 0.8),
                       (f"dblp.venue = '{venues[1]}'", 0.4)]
        covered = covered_paper_ids(tiny_db, preferences)
        first = set(matching_paper_ids(tiny_db, preferences[0][0]))
        second = set(matching_paper_ids(tiny_db, preferences[1][0]))
        assert set(covered) == first | second
