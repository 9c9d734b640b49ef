"""Tests for the pairwise-combination index and its invalidation.

The contract under test (see ``docs/ARCHITECTURE.md``):

* the index is a table over one *fixed* preference list; a changed profile
  gets a new index (persist, drop, rebuild), and because every count flows
  through the shared :class:`CountCache` that rebuild issues counts only for
  the pairs the cache has not seen — the pairs a new predicate joins;
* a merged duplicate or a recomputed intensity re-issues no count (counts
  depend only on predicates and data);
* the index stores no count: a pair count lives once, in the shared cache,
  keyed by the pair's conjuncts whatever order a user ranks them in;
* a data mutation marks the index stale exactly when one of its rows may
  match two of the preferences; reads serve the last refreshed snapshot until
  ``refresh`` re-reads the counts — only the ones the cache's sweep dropped
  reach the backend — and the refreshed table equals a freshly built one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import (
    PreferenceQueryRunner,
    make_preferences,
    preferences_from_graph,
)
from repro.algorithms.peps import PEPSAlgorithm
from repro.core.hypre import HypreGraphBuilder
from repro.core.predicate import conjunction
from repro.core.preference import QuantitativePreference, QualitativePreference
from repro.index import CountCache, IncrementalPairIndex, RowMatch
from repro.sqldb.database import Database
from repro.workload.dblp import Paper
from repro.workload.loader import append_papers, load_dataset

UID = 1

#: A pool of predicates over the tiny workload: a mix of venue equalities
#: (pairwise incompatible among themselves) and year ranges.
POOL = [
    ("dblp.venue = 'VLDB'", 0.9),
    ("dblp.venue = 'SIGMOD'", 0.8),
    ("dblp.year >= 2005", 0.7),
    ("dblp.year >= 2000 AND dblp.year <= 2010", 0.6),
    ("dblp.venue = 'CIKM'", 0.5),
    ("dblp.year < 2005", 0.4),
    ("dblp.venue = 'ICDE'", 0.35),
    ("dblp.year >= 2010", 0.3),
]


def build_graph(entries):
    """A HYPRE graph holding ``entries`` as user 1's quantitative profile."""
    builder = HypreGraphBuilder()
    for sql, intensity in entries:
        builder.add_quantitative(QuantitativePreference(UID, sql, intensity))
    return builder


def index_over(db, builder, cache=None):
    """An index over the builder's current preference list for user 1,
    counting through ``cache`` (a cold one by default)."""
    cache = cache if cache is not None else CountCache(db)
    return cache, IncrementalPairIndex(
        cache, preferences_from_graph(builder.hypre, UID))


def pair_table(index):
    """The index content as a comparable predicate-keyed mapping."""
    index.refresh()
    table = {}
    for i in range(len(index.preferences)):
        for j in range(i + 1, len(index.preferences)):
            record = index.pair(i, j)
            key = frozenset((index.preferences[i].sql, index.preferences[j].sql))
            table[key] = (record.tuple_count, round(record.intensity, 12))
    return table


@pytest.fixture()
def own_db(tiny_dataset):
    """A private tiny world the test may mutate."""
    with Database(":memory:") as db:
        load_dataset(db, tiny_dataset)
        yield db


def append_vldb_2011(db) -> RowMatch:
    """Insert one VLDB paper of 2011 and return the sweep's row match."""
    append_papers(db, [Paper(pid=99001, title="new paper", venue="VLDB",
                             year=2011)], [(99001, 1)])
    return RowMatch(db.joined_rows([99001]))


class TestIncrementalRefresh:
    """A changed profile gets a new index over the *same* count cache."""

    def test_insert_issues_strictly_fewer_counts_than_rebuild(self, tiny_db):
        builder = build_graph(POOL[:6])
        cache, _ = index_over(tiny_db, builder)
        builder.add_quantitative(
            QuantitativePreference(UID, POOL[6][0], POOL[6][1]))
        misses_before = cache.misses
        index_over(tiny_db, builder, cache)
        warm_counts = cache.misses - misses_before
        cold_cache, _ = index_over(tiny_db, builder)

        # The warm cache was asked only for pairs involving the new
        # predicate; the cold one for every compatible pair.
        assert warm_counts < cold_cache.misses
        assert warm_counts <= len(POOL[:6])

    def test_incremental_equals_full_rebuild_after_insert(self, tiny_db):
        builder = build_graph(POOL[:5])
        cache, _ = index_over(tiny_db, builder)
        builder.add_quantitative(
            QuantitativePreference(UID, POOL[5][0], POOL[5][1]))
        _, warm = index_over(tiny_db, builder, cache)
        _, cold = index_over(tiny_db, builder)
        assert pair_table(warm) == pair_table(cold)

    def test_merge_refresh_issues_no_counts(self, tiny_db):
        builder = build_graph(POOL[:5])
        cache, _ = index_over(tiny_db, builder)
        misses_before = cache.misses
        # (0.9 + 0.7) / 2 keeps VLDB on top; the order would not matter
        # anyway — the cache keys a pair by its members, in no order.
        builder.add_quantitative(QuantitativePreference(UID, POOL[0][0], 0.7))
        _, warm = index_over(tiny_db, builder, cache)
        assert cache.misses == misses_before
        # The merged intensity is reflected in the rows.
        _, cold = index_over(tiny_db, builder)
        assert pair_table(warm) == pair_table(cold)

    def test_intensity_recompute_issues_no_counts(self, tiny_db):
        builder = build_graph(POOL[:5])
        cache, _ = index_over(tiny_db, builder)
        misses_before = cache.misses
        # A qualitative preference between two existing nodes whose current
        # intensities contradict the edge direction forces a recompute: VLDB
        # drops from 0.9 to ~0.77, below SIGMOD.  The cache keys a pair by
        # its members, so a changed order re-issues no count.
        report = builder.add_qualitative(
            QualitativePreference(UID, POOL[1][0], POOL[0][0], 0.05))
        assert report.intensities_recomputed == 1
        _, warm = index_over(tiny_db, builder, cache)
        assert cache.misses == misses_before
        _, cold = index_over(tiny_db, builder)
        assert pair_table(warm) == pair_table(cold)

    def test_qualitative_insert_with_new_nodes_counts_only_new_pairs(self, tiny_db):
        builder = build_graph(POOL[:4])
        cache, _ = index_over(tiny_db, builder)
        misses_before = cache.misses
        # Both endpoints are new nodes: two predicates join the profile.
        builder.add_qualitative(
            QualitativePreference(UID, POOL[6][0], POOL[7][0], 0.3))
        _, warm = index_over(tiny_db, builder, cache)
        cold_cache, cold = index_over(tiny_db, builder)
        assert pair_table(warm) == pair_table(cold)
        assert cache.misses - misses_before < cold_cache.misses

    def test_reads_serve_stable_snapshot_until_refresh(self, own_db):
        cache, index = index_over(own_db, build_graph([POOL[0], POOL[2]]))
        before = index.pair(0, 1)            # VLDB x year>=2005
        match = append_vldb_2011(own_db)
        cache.invalidate_matching(match)
        assert index.invalidate_matching(match) == 1
        assert index.stale
        # Reads keep serving the pre-mutation snapshot: a consumer holding
        # the table positionally must not have it change mid-run.
        assert index.pair(0, 1) is before
        # Only an explicit refresh folds the mutation in.
        index.refresh()
        assert not index.stale
        assert index.pair(0, 1).tuple_count == before.tuple_count + 1


class TestOneStore:
    """Every pair count lives once, in the shared cache."""

    def test_swapped_intensities_share_one_count(self, tiny_db):
        """Two users ranking the same two predicates in opposite order cost
        one backend count and one entry (two of each when the key was the
        conjunction's text in list order)."""
        cache = CountCache(tiny_db)
        vldb, recent = POOL[0][0], POOL[2][0]
        first = IncrementalPairIndex(
            cache, make_preferences([(vldb, 0.9), (recent, 0.7)]))
        second = IncrementalPairIndex(
            cache, make_preferences([(vldb, 0.7), (recent, 0.9)]))
        assert [pref.sql for pref in first.preferences] == [
            pref.sql for pref in reversed(second.preferences)]
        assert (cache.misses, len(cache)) == (1, 1)
        assert first.pair(0, 1).tuple_count == second.pair(0, 1).tuple_count > 0

    def test_refresh_recounts_exactly_what_the_sweep_dropped(self, own_db):
        cache, index = index_over(own_db, build_graph(POOL))
        pair_keys = {CountCache.key(conjunction([first.predicate,
                                                 second.predicate]))
                     for first in index.preferences
                     for second in index.preferences if first is not second}
        held = set(cache._counts)
        assert held <= pair_keys  # the index asked for nothing else
        match = append_vldb_2011(own_db)
        dropped = cache.invalidate_matching(match)
        assert 0 < dropped == len(held - set(cache._counts)) < len(held)
        assert index.invalidate_matching(match) > 0 and index.stale
        misses_before = cache.misses
        index.refresh()
        assert cache.misses - misses_before == dropped
        assert pair_table(index) == pair_table(index_over(own_db,
                                                          build_graph(POOL))[1])


class TestRelationUpdateInvalidation:
    def test_cleared_cache_recounts_everything(self, tiny_db):
        """Forgetting everything — a change to the relation that arrived
        without a mutation to judge it by — is ``CountCache.clear()`` and new
        indexes."""
        cache, index = index_over(tiny_db, build_graph(POOL[:4]))
        counted = cache.misses
        assert counted == index.pairs_counted > 0
        cache.clear()
        _, again = index_over(tiny_db, build_graph(POOL[:4]), cache)
        # Every compatible pair was re-counted from scratch.
        assert cache.misses == counted
        assert pair_table(again) == pair_table(index)

    def test_relation_update_reflected_after_invalidation(self, tiny_dataset):
        """End to end: new rows land in dblp -> invalidate -> counts change."""
        from repro.sqldb.database import Database
        from repro.workload.loader import load_dataset

        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            # VLDB x year>=2005
            cache, index = index_over(db, build_graph([POOL[0], POOL[2]]))
            stale_count = index.pair(0, 1).tuple_count
            db.execute("INSERT INTO dblp (pid, title, venue, year) "
                       "VALUES (99001, 'new paper', 'VLDB', 2011)")
            db.execute("INSERT INTO dblp_author (pid, aid) VALUES (99001, 1)")
            db.commit()
            assert not index.stale  # nobody told it: the snapshot stands
            assert index.pair(0, 1).tuple_count == stale_count
            cache.clear()
            _, index = index_over(db, build_graph([POOL[0], POOL[2]]), cache)
            assert index.pair(0, 1).tuple_count == stale_count + 1


class TestPepsIntegration:
    def test_mutation_mid_run_does_not_desync_live_peps(self, own_db):
        """A data mutation landing while a PEPS instance is live: once the
        runner's id lists are patched the live instance serves the
        post-mutation answer — its Top-K reads no pair table, and the one
        its ``ORDER`` list builds on demand is over the same fixed list."""
        runner = PreferenceQueryRunner(own_db)
        preferences = make_preferences(POOL[:5])
        peps = PEPSAlgorithm(runner, preferences)
        before = dict(peps.top_k(1000))
        inserted = append_vldb_2011(own_db).rows
        impact = runner.invalidate_matching(RowMatch(inserted, len(inserted)))
        assert impact["index_entries_patched"] > 0
        oracle = PEPSAlgorithm(PreferenceQueryRunner(own_db), preferences)
        after = peps.top_k(1000)
        assert after == oracle.top_k(1000)
        assert 99001 in dict(after) and 99001 not in before
        assert peps.pair_index.preferences == peps.preferences

    def test_incremental_index_reused_across_instances(self, tiny_db):
        runner = PreferenceQueryRunner(tiny_db)
        preferences = make_preferences(POOL[:5])
        peps = PEPSAlgorithm(runner, preferences)
        counted = peps.pair_index.pairs_counted
        again = PEPSAlgorithm(runner, preferences, approximate=True,
                              pair_index=peps.pair_index)
        assert again.pair_index is peps.pair_index
        assert peps.pair_index.pairs_counted == counted
        assert peps.pair_index.refreshes == 1


class TestSelectivity:
    def test_prefilter_never_changes_results(self, tiny_db):
        """A pair recorded empty without a query (syntactically
        incompatible) is one the database counts as empty too."""
        index = IncrementalPairIndex(CountCache(tiny_db), make_preferences(POOL))
        prefs = index.preferences
        assert 0 < index.pairs_prefiltered < len(index)
        assert index.pairs_prefiltered + index.pairs_counted == len(index)
        for i in range(len(prefs)):
            for j in range(i + 1, len(prefs)):
                assert index.pair(i, j).tuple_count == tiny_db.count_matching(
                    conjunction([prefs[i].predicate, prefs[j].predicate]))


# -- property: invalidate_matching + refresh == a freshly built index ---------

#: Papers the property inserts: venue x year combinations that hit different
#: subsets of ``POOL`` (and one venue no predicate mentions).
NEW_PAPERS = [("VLDB", 2011), ("SIGMOD", 2003), ("CIKM", 2007),
              ("ICDE", 1999), ("NOWHERE", 2012)]


@st.composite
def mutation_sequences(draw):
    """A profile size plus a sequence of data mutations over ``NEW_PAPERS``."""
    size = draw(st.integers(min_value=2, max_value=len(POOL)))
    papers = draw(st.lists(
        st.integers(min_value=0, max_value=len(NEW_PAPERS) - 1),
        min_size=1, max_size=4))
    return size, papers


class TestEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(mutation_sequences())
    def test_incremental_equals_rebuild(self, tiny_dataset, sequence):
        size, papers = sequence
        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            cache, index = index_over(db, build_graph(POOL[:size]))
            for offset, choice in enumerate(papers):
                venue, year = NEW_PAPERS[choice]
                pid = 99001 + offset
                append_papers(db, [Paper(pid=pid, title="t", venue=venue,
                                         year=year)], [(pid, 1)])
                match = RowMatch(db.joined_rows([pid]))
                cache.invalidate_matching(match)
                index.invalidate_matching(match)
            counted_before = index.pairs_counted
            index.refresh()
            _, rebuilt = index_over(db, build_graph(POOL[:size]))
            assert pair_table(index) == pair_table(rebuilt)
            # Incremental: never more recounts than a rebuild counts.
            assert index.pairs_counted - counted_before <= rebuilt.pairs_counted
