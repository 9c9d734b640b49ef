"""Tests for the incremental pairwise-combination index and its invalidation.

The invalidation contract under test (see ``docs/ARCHITECTURE.md``):

* inserting a preference node dirties exactly the pairs joining the new
  predicate with every existing preference — nothing more, nothing less;
* merging duplicate quantitative preferences or recomputing an intensity
  never re-issues a count (counts depend only on predicates and data);
* a qualitative edge insertion by itself dirties nothing;
* after any mutation sequence, a refresh produces exactly the pair table a
  full rebuild would produce, while issuing strictly fewer count queries
  after a single node insertion.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hypre import HypreGraphBuilder
from repro.core.hypre.events import (
    EDGE_INSERTED,
    INTENSITY_CHANGED,
    NODE_INSERTED,
    NODES_MERGED,
    GraphMutation,
)
from repro.core.preference import QuantitativePreference, QualitativePreference
from repro.index import (
    CountCache,
    IncrementalPairIndex,
    PairwiseCombinationIndex,
)
from repro.algorithms.base import make_preferences, preferences_from_graph
from repro.algorithms.peps import PEPSAlgorithm
from repro.core.predicate import parse_predicate

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


def attached_index(db, builder):
    """An incremental index attached to the builder's graph for user 1."""
    cache = CountCache(db)
    index = IncrementalPairIndex(cache)
    index.attach(builder.hypre, UID)
    return cache, index


def pair_table(index):
    """The index content as a comparable predicate-keyed mapping."""
    if getattr(index, "stale", False):
        index.refresh()
    table = {}
    for i in range(len(index.preferences)):
        for j in range(i + 1, len(index.preferences)):
            record = index.pair(i, j)
            key = frozenset((index.preferences[i].sql, index.preferences[j].sql))
            table[key] = (record.tuple_count, round(record.intensity, 12))
    return table


class TestDirtyTracking:
    def test_initial_attach_builds_clean_index(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        assert not index.stale
        assert index.dirty_predicates() == frozenset()
        assert len(index) == 6  # C(4, 2)

    def test_node_insert_dirties_exactly_new_pairs(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        new_sql, new_intensity = POOL[4]
        builder.add_quantitative(QuantitativePreference(UID, new_sql, new_intensity))
        assert index.stale
        new_key = parse_predicate(new_sql).to_sql()
        assert index.dirty_predicates() == frozenset({new_key})
        expected = {frozenset((new_key, parse_predicate(sql).to_sql()))
                    for sql, _ in POOL[:4]}
        assert index.dirty_pairs() == expected

    def test_merge_dirties_only_merged_predicate(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        sql, _ = POOL[0]
        builder.add_quantitative(QuantitativePreference(UID, sql, 0.5))
        key = parse_predicate(sql).to_sql()
        assert index.dirty_predicates() == frozenset({key})

    def test_plain_edge_insert_dirties_nothing(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        hypre = builder.hypre
        # Endpoint intensities (0.9 > 0.8) already satisfy the edge
        # direction, so no intensity is recomputed: the edge itself must not
        # dirty any pair.
        left = hypre.find_node_id(UID, POOL[0][0])
        right = hypre.find_node_id(UID, POOL[1][0])
        hypre.add_prefers_edge(left, right, 0.1)
        assert index.dirty_predicates() == frozenset()
        assert not index.stale

    def test_other_users_mutations_are_ignored(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        builder.add_quantitative(QuantitativePreference(99, POOL[5][0], 0.4))
        assert not index.stale
        assert index.dirty_predicates() == frozenset()

    def test_detach_stops_tracking(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        index.detach()
        builder.add_quantitative(QuantitativePreference(UID, POOL[4][0], 0.5))
        assert not index.stale

    def test_cycle_and_discard_edges_emit_events_but_dirty_nothing(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        hypre = builder.hypre
        received = []
        hypre.subscribe(received.append)
        left = hypre.find_node_id(UID, POOL[0][0])
        right = hypre.find_node_id(UID, POOL[1][0])
        hypre.add_cycle_edge(left, right, 0.2)
        hypre.add_discard_edge(left, right, 0.2)
        kinds = [(event.kind, event.edge_type) for event in received]
        assert (EDGE_INSERTED, "CYCLE") in kinds
        assert (EDGE_INSERTED, "DISCARD") in kinds
        assert index.dirty_predicates() == frozenset()


class TestIncrementalRefresh:
    def test_insert_issues_strictly_fewer_counts_than_rebuild(self, tiny_db):
        builder = build_graph(POOL[:6])
        _, index = attached_index(tiny_db, builder)
        builder.add_quantitative(
            QuantitativePreference(UID, POOL[6][0], POOL[6][1]))
        index.refresh()
        incremental_counts = index.last_refresh_pair_counts

        rebuild_cache = CountCache(tiny_db)
        rebuild = PairwiseCombinationIndex(
            rebuild_cache, preferences_from_graph(builder.hypre, UID))
        full_counts = rebuild.pairs_counted

        # The incremental path counted at most the pairs involving the new
        # predicate; the rebuild counted every compatible pair.
        assert incremental_counts < full_counts
        assert incremental_counts <= len(POOL[:6])

    def test_incremental_equals_full_rebuild_after_insert(self, tiny_db):
        builder = build_graph(POOL[:5])
        _, index = attached_index(tiny_db, builder)
        builder.add_quantitative(
            QuantitativePreference(UID, POOL[5][0], POOL[5][1]))
        rebuild = PairwiseCombinationIndex(
            CountCache(tiny_db), preferences_from_graph(builder.hypre, UID))
        assert pair_table(index) == pair_table(rebuild)

    def test_merge_refresh_issues_no_counts(self, tiny_db):
        builder = build_graph(POOL[:5])
        cache, index = attached_index(tiny_db, builder)
        misses_before = cache.misses
        builder.add_quantitative(QuantitativePreference(UID, POOL[0][0], 0.3))
        index.refresh()
        assert cache.misses == misses_before
        assert index.last_refresh_pair_counts == 0
        # The merged intensity ((0.9 + 0.3) / 2) is reflected in the rows.
        rebuild = PairwiseCombinationIndex(
            CountCache(tiny_db), preferences_from_graph(builder.hypre, UID))
        assert pair_table(index) == pair_table(rebuild)

    def test_intensity_recompute_issues_no_counts(self, tiny_db):
        builder = build_graph(POOL[:5])
        cache, index = attached_index(tiny_db, builder)
        misses_before = cache.misses
        # A qualitative preference between two existing nodes whose current
        # intensities contradict the edge direction forces a recompute.
        builder.add_qualitative(
            QualitativePreference(UID, POOL[4][0], POOL[0][0], 0.2))
        index.refresh()
        assert cache.misses == misses_before
        rebuild = PairwiseCombinationIndex(
            CountCache(tiny_db), preferences_from_graph(builder.hypre, UID))
        assert pair_table(index) == pair_table(rebuild)

    def test_qualitative_insert_with_new_nodes_counts_only_new_pairs(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        # Both endpoints are new nodes: two predicates join the profile.
        builder.add_qualitative(
            QualitativePreference(UID, POOL[6][0], POOL[7][0], 0.3))
        index.refresh()
        rebuild = PairwiseCombinationIndex(
            CountCache(tiny_db), preferences_from_graph(builder.hypre, UID))
        assert pair_table(index) == pair_table(rebuild)
        assert index.last_refresh_pair_counts < rebuild.pairs_counted

    def test_reads_serve_stable_snapshot_until_refresh(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        builder.add_quantitative(
            QuantitativePreference(UID, POOL[4][0], POOL[4][1]))
        assert index.stale
        # Reads keep serving the pre-mutation snapshot: a consumer holding
        # the old positional preference list must not have the index shift
        # underneath it mid-run.
        assert len(index) == 6  # still C(4, 2)
        assert len(index.preferences) == 4
        # Only an explicit refresh folds the mutation in.
        index.refresh()
        assert not index.stale
        assert len(index) == 10  # C(5, 2)


class TestRelationUpdateInvalidation:
    def test_invalidate_counts_forces_full_recount(self, tiny_db):
        builder = build_graph(POOL[:4])
        _, index = attached_index(tiny_db, builder)
        counted = index.pairs_counted
        index.invalidate_counts()
        assert index.stale
        index.refresh()
        # Every compatible pair was re-counted from scratch.
        assert index.pairs_counted == 2 * counted

    def test_relation_update_reflected_after_invalidation(self, tiny_dataset):
        """End to end: new rows land in dblp -> invalidate -> counts change."""
        from repro.sqldb.database import Database
        from repro.workload.loader import load_dataset

        with Database(":memory:") as db:
            load_dataset(db, tiny_dataset)
            builder = build_graph([POOL[0], POOL[2]])  # VLDB x year>=2005
            cache, index = attached_index(db, builder)
            stale_count = index.pair(0, 1).tuple_count
            db.execute("INSERT INTO dblp (pid, title, venue, year) "
                       "VALUES (99001, 'new paper', 'VLDB', 2011)")
            db.execute("INSERT INTO dblp_author (pid, aid) VALUES (99001, 1)")
            db.commit()
            cache.clear()
            index.invalidate_counts()
            index.refresh()
            assert index.pair(0, 1).tuple_count == stale_count + 1


class TestPepsIntegration:
    def test_for_graph_user_tracks_mutations(self, tiny_db):
        builder = build_graph(POOL[:5])
        from repro.algorithms.base import PreferenceQueryRunner

        runner = PreferenceQueryRunner(tiny_db)
        peps = PEPSAlgorithm.for_graph_user(runner, builder.hypre, UID)
        before = peps.top_k(5)

        builder.add_quantitative(
            QuantitativePreference(UID, POOL[5][0], POOL[5][1]))
        updated = PEPSAlgorithm.for_graph_user(
            runner, builder.hypre, UID, pair_index=peps.pair_index)

        fresh_runner = PreferenceQueryRunner(tiny_db)
        oracle = PEPSAlgorithm(fresh_runner,
                               preferences_from_graph(builder.hypre, UID))
        assert updated.top_k(5) == oracle.top_k(5)
        assert before  # the pre-mutation ranking remains a valid list

    def test_mutation_mid_run_does_not_desync_live_peps(self, tiny_db):
        """Regression: a mutation landing while a PEPS instance is live must
        not shift the index's positional view under that instance."""
        builder = build_graph(POOL[:5])
        from repro.algorithms.base import PreferenceQueryRunner

        runner = PreferenceQueryRunner(tiny_db)
        peps = PEPSAlgorithm.for_graph_user(runner, builder.hypre, UID)
        snapshot = peps.top_k(5)
        builder.add_quantitative(
            QuantitativePreference(UID, POOL[5][0], POOL[5][1]))
        # The live instance keeps answering from its captured snapshot
        # (previously this raised IndexError / returned wrong pairs).
        assert peps.top_k(5) == snapshot
        assert len(peps.pair_index.preferences) == len(peps.preferences)

    def test_incremental_index_reused_across_instances(self, tiny_db):
        builder = build_graph(POOL[:5])
        from repro.algorithms.base import PreferenceQueryRunner

        runner = PreferenceQueryRunner(tiny_db)
        peps = PEPSAlgorithm.for_graph_user(runner, builder.hypre, UID)
        counted = peps.pair_index.pairs_counted
        again = PEPSAlgorithm.for_graph_user(runner, builder.hypre, UID,
                                             pair_index=peps.pair_index)
        assert again.pair_index is peps.pair_index
        assert peps.pair_index.pairs_counted == counted


class TestSelectivity:
    def test_counter_as_cache_enables_cached_zero_prefilter(self, tiny_db):
        """Regression: a bare CountCache counter must back the pre-filter."""
        cache = CountCache(tiny_db)
        cache.count(parse_predicate("dblp.venue = 'NO_SUCH_VENUE'"))  # 0
        preferences = make_preferences([
            ("dblp.venue = 'NO_SUCH_VENUE'", 0.9),
            ("dblp.year >= 2005", 0.7),
        ])
        index = PairwiseCombinationIndex(cache, preferences)
        assert index.pairs_prefiltered == 1
        assert index.pairs_counted == 0

    def test_prefilter_never_changes_results(self, tiny_db):
        preferences = make_preferences(POOL)
        cache = CountCache(tiny_db)
        filtered = PairwiseCombinationIndex(cache, preferences)
        # A fresh cache holds no zero counts: no cached-zero sharpening.
        unfiltered = PairwiseCombinationIndex(CountCache(tiny_db), preferences)
        assert pair_table(filtered) == pair_table(unfiltered)
        assert filtered.pairs_prefiltered > 0


# -- property: incremental maintenance == full rebuild -----------------------

@st.composite
def insertion_sequences(draw):
    """An initial profile plus a mutation sequence over the predicate pool."""
    initial = draw(st.integers(min_value=1, max_value=4))
    mutations = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(POOL) - 1),
                  st.floats(min_value=0.05, max_value=1.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=6))
    return initial, mutations


class TestEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(insertion_sequences())
    def test_incremental_equals_rebuild(self, tiny_db, sequence):
        initial, mutations = sequence
        builder = build_graph(POOL[:initial])
        _, index = attached_index(tiny_db, builder)
        for pool_position, intensity in mutations:
            sql = POOL[pool_position][0]
            builder.add_quantitative(
                QuantitativePreference(UID, sql, intensity))
        index.refresh()
        rebuild = PairwiseCombinationIndex(
            CountCache(tiny_db), preferences_from_graph(builder.hypre, UID))
        assert pair_table(index) == pair_table(rebuild)
