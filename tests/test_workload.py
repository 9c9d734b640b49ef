"""Tests for the synthetic DBLP generator, loading and preference extraction."""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.preference import ProfileRegistry
from repro.exceptions import ExtractionError, WorkloadError
from repro.sqldb.database import Database
from repro.sqldb.events import TUPLES_DELETED, TUPLES_UPDATED
from repro.workload.dblp import (DEFAULT_VENUES, DblpConfig, DblpDataset, Paper,
                                 generate_dblp, small_dataset)
from repro.workload.extraction import (
    ExtractionConfig,
    PreferenceExtractor,
    author_predicate,
    richest_users,
    venue_predicate,
)
from repro.workload.loader import (
    build_workload_database,
    delete_papers,
    load_dataset,
    load_profiles,
    read_profiles,
    update_papers,
)


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        config = DblpConfig(n_papers=150, n_authors=50, n_venues=6, seed=3)
        first = generate_dblp(config)
        second = generate_dblp(config)
        assert [paper.title for paper in first.papers] == [
            paper.title for paper in second.papers]
        assert first.citations == second.citations

    def test_different_seed_changes_output(self):
        base = DblpConfig(n_papers=150, n_authors=50, n_venues=6, seed=3)
        other = DblpConfig(n_papers=150, n_authors=50, n_venues=6, seed=4)
        assert generate_dblp(base).citations != generate_dblp(other).citations

    def test_sizes_match_config(self, tiny_dataset):
        assert len(tiny_dataset.papers) == 300
        assert len(tiny_dataset.authors) == 120
        assert len(tiny_dataset.venues()) <= 10

    def test_years_in_range(self, tiny_dataset):
        years = [paper.year for paper in tiny_dataset.papers]
        assert min(years) >= 1995
        assert max(years) <= 2013

    def test_citations_point_backwards(self, tiny_dataset):
        for pid, cid in tiny_dataset.citations:
            assert cid < pid

    def test_every_paper_has_authors(self, tiny_dataset):
        papers_with_authors = {pid for pid, _ in tiny_dataset.paper_authors}
        assert papers_with_authors == {paper.pid for paper in tiny_dataset.papers}

    def test_venue_distribution_is_skewed(self, tiny_dataset):
        counts = Counter(paper.venue for paper in tiny_dataset.papers)
        ordered = [count for _, count in counts.most_common()]
        assert ordered[0] >= ordered[-1] * 2

    def test_statistics_summary(self, tiny_dataset):
        stats = tiny_dataset.statistics()
        assert stats["papers"] == 300
        assert stats["dblp_author_entries"] == len(tiny_dataset.paper_authors)
        assert stats["distinct_cited_papers"] <= stats["citation_entries"]

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            generate_dblp(DblpConfig(n_papers=0))
        with pytest.raises(WorkloadError):
            generate_dblp(DblpConfig(n_venues=len(DEFAULT_VENUES) + 1))
        with pytest.raises(WorkloadError):
            generate_dblp(DblpConfig(min_year=2015, max_year=2010))
        with pytest.raises(WorkloadError):
            generate_dblp(DblpConfig(max_authors_per_paper=0))

    def test_small_dataset_helper(self):
        dataset = small_dataset()
        assert len(dataset.papers) == 300

    def test_convenience_views_consistent(self, tiny_dataset):
        authors_of = tiny_dataset.authors_of()
        papers_of = tiny_dataset.papers_of()
        for pid, aids in authors_of.items():
            for aid in aids:
                assert pid in papers_of[aid]


class TestLoader:
    def test_build_workload_database(self):
        db, dataset = build_workload_database(DblpConfig(n_papers=100, n_authors=40,
                                                         n_venues=6, seed=1))
        try:
            assert db.total_papers() == len(dataset.papers) == 100
        finally:
            db.close()

    def test_update_checks_existence_under_the_write_lock(self, monkeypatch):
        """A direct delete racing an update cannot land between the
        update's existence check and its write: it waits for the update,
        which notifies the row it really changed, and then deletes it."""
        dataset = generate_dblp(DblpConfig(n_papers=30, n_authors=12,
                                           n_venues=4, seed=2))
        with Database(":memory:") as db:
            load_dataset(db, dataset)
            target = dataset.papers[0]
            events = []
            db.subscribe(events.append)
            racer = threading.Thread(target=delete_papers,
                                     args=(db, [target.pid]), daemon=True)
            query = db.query

            def query_then_race(sql, parameters=()):
                rows = query(sql, parameters)
                if sql.startswith("SELECT pid FROM dblp") and not racer.ident:
                    racer.start()
                    racer.join(0.2)
                return rows

            monkeypatch.setattr(db, "query", query_then_race)
            moved = Paper(pid=target.pid, title=target.title, venue="RACED",
                          year=target.year)
            assert update_papers(db, [moved]) == {"dblp": 1}
            racer.join(5)
            assert not racer.is_alive()
            (updated,) = [e for e in events if e.kind == TUPLES_UPDATED]
            assert updated.rows
            assert {(row["pid"], row["venue"]) for row in updated.rows} == {
                (target.pid, "RACED")}
            (deleted,) = [e for e in events if e.kind == TUPLES_DELETED]
            assert {row["venue"] for row in deleted.old_rows} == {"RACED"}
            assert target.pid not in db.paper_ids()

    def test_profiles_roundtrip(self, tiny_dataset):
        extractor = PreferenceExtractor(tiny_dataset)
        registry = extractor.extract_all(uids=[1, 2, 3])
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            counts = load_profiles(db, registry)
            assert counts["quantitative_pref"] == sum(
                len(profile.quantitative) for profile in registry)
            restored = read_profiles(db)
            assert set(restored.user_ids()) == set(registry.user_ids())
            for uid in registry.user_ids():
                assert len(restored.get(uid)) == len(registry.get(uid))

    def test_read_profiles_filtered_by_uid(self, tiny_dataset):
        extractor = PreferenceExtractor(tiny_dataset)
        registry = extractor.extract_all(uids=[1, 2, 3])
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            load_profiles(db, registry)
            only_one = read_profiles(db, uids=[1])
            assert only_one.user_ids() == [1]


class TestExtraction:
    @pytest.fixture(scope="class")
    def extractor(self, tiny_dataset):
        return PreferenceExtractor(tiny_dataset)

    def test_predicate_helpers(self):
        assert venue_predicate("VLDB") == "dblp.venue = 'VLDB'"
        assert venue_predicate("O'Reilly") == "dblp.venue = 'O''Reilly'"
        assert author_predicate(7) == "dblp_author.aid = 7"

    def test_venue_intensities_normalised(self, extractor, tiny_dataset):
        prolific = richest_users(extractor.extract_all(uids=range(1, 30)), 1)[0]
        intensities = extractor.venue_intensities(prolific)
        assert intensities
        assert sum(intensities.values()) == pytest.approx(1.0)
        assert len(intensities) <= 5

    def test_author_intensities_exclude_self(self, extractor):
        for uid in range(1, 20):
            scores = extractor.author_intensities(uid)
            assert uid not in scores
            assert all(score > 0 for score in scores.values())

    def test_negative_preferences_are_negative(self, extractor):
        for uid in range(1, 15):
            authors = extractor.author_intensities(uid)
            negatives = extractor.negative_venue_intensities(uid, authors)
            assert all(value < 0 for value in negatives.values())
            own = set(extractor.venue_intensities(uid))
            assert not own & set(negatives)

    def test_profile_structure(self, extractor):
        profile = extractor.extract_profile(1)
        assert profile.uid == 1
        # Author preferences below the threshold must not be quantitative.
        for pref in profile.quantitative:
            if "dblp_author.aid" in pref.predicate_sql and pref.intensity > 0:
                assert pref.intensity >= 0.1
        # Qualitative preferences have non-negative strengths.
        assert all(pref.intensity >= 0.0 for pref in profile.qualitative)

    def test_unknown_user_rejected(self, extractor):
        with pytest.raises(ExtractionError):
            extractor.extract_profile(10_000)

    def test_mining_reads_the_author_list_once(self, tiny_dataset):
        """The extractor reads ``dataset.authors`` at construction only: a
        per-profile read made mining quadratic in the number of authors."""

        class SealedAuthors(DblpDataset):
            sealed = False

            def __getattribute__(self, name):
                if name == "authors" and \
                        object.__getattribute__(self, "sealed"):
                    raise AssertionError("dataset.authors read after __init__")
                return super().__getattribute__(name)

        sealed = SealedAuthors(
            papers=tiny_dataset.papers, authors=tiny_dataset.authors,
            paper_authors=tiny_dataset.paper_authors,
            citations=tiny_dataset.citations)
        extractor = PreferenceExtractor(sealed)
        sealed.sealed = True
        mined = extractor.extract_all()
        with pytest.raises(ExtractionError):
            extractor.extract_profile(10_000)
        expected = PreferenceExtractor(tiny_dataset).extract_all()
        assert [(profile.uid, profile.predicates()) for profile in mined] == \
            [(profile.uid, profile.predicates()) for profile in expected]

    def test_extract_all_skips_empty(self, extractor, tiny_dataset):
        registry = extractor.extract_all()
        assert len(registry) <= len(tiny_dataset.authors)
        assert all(len(profile) > 0 for profile in registry)

    def test_qualitative_pairs_follow_ordering(self, extractor):
        config = ExtractionConfig(include_negative=False)
        focused = PreferenceExtractor(extractor.dataset, config)
        profile = focused.extract_profile(1)
        author_scores = focused.author_intensities(1)
        ordered = sorted(author_scores.items(), key=lambda item: (-item[1], item[0]))
        author_pairs = [(pref.left_sql, pref.right_sql) for pref in profile.qualitative
                        if "dblp_author" in pref.left_sql]
        expected = [(author_predicate(a), author_predicate(b))
                    for (a, _), (b, _) in zip(ordered, ordered[1:])]
        assert author_pairs[: len(expected)] == expected

    def test_preference_distribution_histogram(self, extractor):
        histogram = extractor.preference_count_distribution()
        assert sum(histogram.values()) == len(extractor.extract_all())
        assert all(count >= 1 for count in histogram.values())

    def test_richest_users_ordering(self, extractor):
        registry = extractor.extract_all()
        top_two = richest_users(registry, 2)
        sizes = [len(registry.get(uid)) for uid in top_two]
        assert sizes == sorted(sizes, reverse=True)

    def test_config_toggles(self, tiny_dataset):
        bare = PreferenceExtractor(
            tiny_dataset,
            ExtractionConfig(include_negative=False, include_qualitative=False))
        profile = bare.extract_profile(1)
        assert not profile.qualitative
        assert all(pref.intensity >= 0 for pref in profile.quantitative)
