"""End-to-end tests replaying the paper's worked examples.

* Example 6 / Tables 8–9: the car-dealership ranking with combined
  intensities 0.92 / 0.9 / 0.6.
* Section 2.5 / Table 5: the Preference SQL comparison — the HYPRE ranking
  returns t1, t2, t3 (Preference SQL returns t1, t3, t2).
* Section 3.3: the DBLP example graph with preferences P1..P8.
* Section 4.6 / Table 7: the rewritten query for uid=2.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import make_preferences
from repro.core.hypre import build_hypre_graph
from repro.core.intensity import combine_and, f_and
from repro.core.predicate import parse_predicate
from repro.core.hypre import CYCLE, DISCARD, PREFERS
from repro.sqldb.enhancer import mixed_clause


def rank_rows(rows, preferences):
    """Rank in-memory rows by the combined intensity of matched preferences."""
    ranked = []
    for row in rows:
        matched = [pref.intensity for pref in preferences
                   if pref.predicate.evaluate(row)]
        score = combine_and(matched) if matched else 0.0
        ranked.append((row["id"], score))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


class TestDealershipExample:
    def test_table9_combined_intensities(self, dealership_rows, dealership_preferences):
        ranked = dict(rank_rows(dealership_rows, dealership_preferences))
        assert ranked["t1"] == pytest.approx(0.92)
        assert ranked["t2"] == pytest.approx(0.9)
        assert ranked["t3"] == pytest.approx(0.6)

    def test_expected_order_t1_t2_t3(self, dealership_rows, dealership_preferences):
        """Section 2.5: HYPRE ranks t2 above t3, unlike Preference SQL."""
        order = [row_id for row_id, _ in
                 rank_rows(dealership_rows, dealership_preferences)]
        assert order == ["t1", "t2", "t3"]

    def test_intensity_composition_steps(self):
        """The two-step composition spelled out in Example 6."""
        assert f_and(0.8, 0.5) == pytest.approx(0.9)
        assert f_and(f_and(0.8, 0.5), 0.2) == pytest.approx(0.92)
        assert f_and(0.5, 0.2) == pytest.approx(0.6)

    def test_tuple_matching_matches_table8(self, dealership_rows, dealership_preferences):
        price, mileage, make = dealership_preferences
        t1, t2, t3 = dealership_rows
        assert price.predicate.evaluate(t1) and mileage.predicate.evaluate(t1)
        assert make.predicate.evaluate(t1)
        assert price.predicate.evaluate(t2) and mileage.predicate.evaluate(t2)
        assert not make.predicate.evaluate(t2)
        assert not price.predicate.evaluate(t3)
        assert mileage.predicate.evaluate(t3) and make.predicate.evaluate(t3)


class TestSection33Graph:
    """The incremental DBLP example graph of Figures 4–8."""

    def test_final_graph_contents(self, dblp_profile):
        hypre, report = build_hypre_graph(dblp_profile)
        # Nodes P1..P8 of Figure 8: 5 quantitative + 3 created by qualitative
        # preferences (the two VLDB-year predicates and the bare VLDB node).
        assert len(hypre.user_node_ids(1)) == 8
        assert report.cycle_edges == 0
        assert report.discarded_edges == 0
        assert len(hypre.qualitative_edges(1, (PREFERS,))) == 3

    def test_negative_preference_stored(self, dblp_profile):
        hypre, _ = build_hypre_graph(dblp_profile)
        node = hypre.find_node_id(1, "venue = 'INFOCOM'")
        assert hypre.intensity_of(node) == -1.0

    def test_reused_node_for_p3(self, dblp_profile):
        """The 'year >= 2009' node is shared between P3 and the set preference."""
        hypre, _ = build_hypre_graph(dblp_profile)
        node = hypre.find_node_id(1, "year >= 2009")
        assert node is not None
        assert hypre.intensity_of(node) == pytest.approx(0.8)
        # It is the right endpoint of exactly one PREFERS edge.
        incoming = [edge for edge in hypre.qualitative_edges(1, (PREFERS,))
                    if edge.target == node]
        assert len(incoming) == 1

    def test_vldb_node_beats_both_rivals(self, dblp_profile):
        hypre, _ = build_hypre_graph(dblp_profile)
        vldb = hypre.intensity_of(hypre.find_node_id(1, "venue = 'VLDB'"))
        sigmod = hypre.intensity_of(hypre.find_node_id(1, "venue = 'SIGMOD'"))
        recent = hypre.intensity_of(hypre.find_node_id(1, "year >= 2009"))
        assert vldb >= sigmod
        assert vldb >= recent

    def test_edge_intensities_preserved(self, dblp_profile):
        hypre, _ = build_hypre_graph(dblp_profile)
        strengths = sorted(edge.get("intensity")
                           for edge in hypre.qualitative_edges(1, (PREFERS,)))
        assert strengths == pytest.approx([0.2, 0.3, 0.8])


class TestTable7QueryRewrite:
    def test_mixed_clause_shape(self):
        preferences = [
            ("dblp.venue = 'INFOCOM'", 0.23),
            ("dblp.venue = 'PODS'", 0.14),
            ("dblp_author.aid = 128", 0.19),
            ("dblp_author.aid = 116", 0.14),
        ]
        predicate, _ = mixed_clause(preferences)
        sql = predicate.to_sql()
        # Section 4.6: venues OR-ed, authors OR-ed, the two groups AND-ed.
        assert sql.count(" AND ") == 1
        assert sql.count(" OR ") == 2

    def test_clause_evaluates_like_the_paper(self):
        preferences = [
            ("dblp.venue = 'INFOCOM'", 0.23),
            ("dblp.venue = 'PODS'", 0.14),
            ("dblp_author.aid = 128", 0.19),
            ("dblp_author.aid = 116", 0.14),
        ]
        predicate, _ = mixed_clause(preferences)
        assert predicate.evaluate({"dblp.venue": "PODS", "dblp_author.aid": 128})
        assert not predicate.evaluate({"dblp.venue": "PODS", "dblp_author.aid": 999})
        assert not predicate.evaluate({"dblp.venue": "VLDB", "dblp_author.aid": 128})


class TestConflictExamples:
    def test_cycle_example_from_section_623(self):
        """A preferred over B and B preferred over A -> second edge is a CYCLE."""
        from repro.core.preference import UserProfile

        profile = UserProfile(uid=4)
        profile.add_qualitative("a = 'A'", "a = 'B'", 0.5)
        profile.add_qualitative("a = 'B'", "a = 'A'", 0.5)
        hypre, report = build_hypre_graph(profile)
        assert report.cycle_edges == 1
        assert len(hypre.qualitative_edges(4, (CYCLE,))) == 1

    def test_incompatible_intensities_example(self):
        """Connected nodes with contradictory user scores -> DISCARD edge."""
        from repro.core.preference import UserProfile

        profile = UserProfile(uid=5)
        profile.add_quantitative("a = 'A'", 0.1)
        profile.add_quantitative("a = 'B'", 0.9)
        profile.add_qualitative("a = 'A'", "a = 'C'", 0.1)
        profile.add_qualitative("a = 'D'", "a = 'B'", 0.1)
        profile.add_qualitative("a = 'A'", "a = 'B'", 0.5)
        hypre, report = build_hypre_graph(profile)
        assert report.discarded_edges == 1
        assert len(hypre.qualitative_edges(5, (DISCARD,))) == 1


class TestMovieRelationExample:
    """Tables 3/4 — the movie relation and its intensity column."""

    MOVIES = [
        {"movie_id": "m1", "genre": "drama", "year": 1942, "director": "M. Curtiz"},
        {"movie_id": "m2", "genre": "horror", "year": 1960, "director": "A. Hitchock"},
        {"movie_id": "m3", "genre": "drama", "year": 1993, "director": "S. Spielberg"},
        {"movie_id": "m4", "genre": "comedy", "year": 1954, "director": "M. Curtiz"},
        {"movie_id": "m5", "genre": "comedy", "year": 2011, "director": "S. Spielberg"},
        {"movie_id": "m6", "genre": "thriller", "year": 2013, "director": "L. Brand"},
    ]
    SCORES = {"m1": 0.3, "m2": 0.9, "m3": 0.0, "m4": 0.3, "m5": 0.6}

    def test_example1_total_order(self):
        """m2 preferred over m5, which is preferred over m1 and m4."""
        ranked = sorted(self.SCORES, key=lambda movie: -self.SCORES[movie])
        assert ranked[0] == "m2"
        assert ranked[1] == "m5"
        assert set(ranked[2:4]) == {"m1", "m4"}

    def test_example2_equally_preferred(self):
        assert self.SCORES["m1"] == self.SCORES["m4"]

    def test_example3_indifference(self):
        assert self.SCORES["m3"] == 0.0

    def test_comedy_over_drama_preference(self):
        """'I like comedies more than dramas' selects {m4, m5} over {m1, m3}."""
        comedies = parse_predicate("genre = 'comedy'")
        dramas = parse_predicate("genre = 'drama'")
        comedy_ids = {movie["movie_id"] for movie in self.MOVIES
                      if comedies.evaluate(movie)}
        drama_ids = {movie["movie_id"] for movie in self.MOVIES if dramas.evaluate(movie)}
        assert comedy_ids == {"m4", "m5"}
        assert drama_ids == {"m1", "m3"}
