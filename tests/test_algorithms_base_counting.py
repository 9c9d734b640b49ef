"""Tests for the algorithm building blocks and the combination-count bounds."""

from __future__ import annotations

import pytest

from repro.algorithms.base import (
    CombinationRecord,
    PreferenceQueryRunner,
    ScoredPreference,
    and_combine,
    make_preferences,
    mixed_combine,
    or_combine,
    ordered_by_intensity,
    pairwise_compatible,
    preferences_from_graph,
)
from repro.algorithms.counting import (
    and_only_upper_bound,
    and_or_upper_bound,
    count_and_combinations,
    count_and_or_combinations,
    enumerate_and_combinations,
    enumerate_and_or_combinations,
    growth_table,
)
from repro.backend import BACKEND_NAMES, create_backend
from repro.core.hypre import build_hypre_graph
from repro.core.intensity import f_and, f_or
from repro.core.predicate import equals, parse_predicate
from repro.core.preference import UserProfile
from repro.exceptions import EmptyPreferenceListError
from repro.index import CountCache, RowMatch
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import (append_papers, delete_papers,
                                   load_dataset, update_papers)


class TestScoredPreferenceHelpers:
    def test_make_preferences_orders_and_filters(self):
        prefs = make_preferences([
            ("venue = 'A'", 0.2),
            ("venue = 'B'", 0.9),
            ("venue = 'C'", -0.5),
            ("venue = 'D'", 0.0),
        ])
        assert [pref.intensity for pref in prefs] == [0.9, 0.2]

    def test_make_preferences_keep_everything(self):
        prefs = make_preferences([("venue = 'A'", -0.5)], positive_only=False)
        assert len(prefs) == 1

    def test_scored_preference_attributes(self):
        pref = ScoredPreference(parse_predicate("dblp.venue = 'A' AND year > 2000"), 0.5)
        assert pref.attributes == frozenset({"dblp.venue", "year"})
        assert "dblp.venue" in pref.sql

    def test_ordered_by_intensity_stable(self):
        prefs = make_preferences([("a = 1", 0.5), ("a = 2", 0.5), ("a = 3", 0.7)])
        ordered = ordered_by_intensity(prefs)
        assert ordered[0].intensity == 0.7
        assert [pref.sql for pref in ordered[1:]] == ["a = 1", "a = 2"]

    def test_and_or_combine(self):
        prefs = make_preferences([("venue = 'A'", 0.8), ("aid = 2", 0.5)])
        predicate, intensity = and_combine(prefs)
        assert intensity == pytest.approx(f_and(0.8, 0.5))
        assert " AND " in predicate.to_sql()
        predicate, intensity = or_combine(prefs)
        assert intensity == pytest.approx(f_or(0.8, 0.5))
        assert " OR " in predicate.to_sql()

    def test_combine_empty_rejected(self):
        with pytest.raises(EmptyPreferenceListError):
            and_combine([])
        with pytest.raises(EmptyPreferenceListError):
            or_combine([])
        with pytest.raises(EmptyPreferenceListError):
            mixed_combine([])

    def test_mixed_combine_groups_by_attribute(self):
        prefs = make_preferences([
            ("dblp.venue = 'A'", 0.8),
            ("dblp.venue = 'B'", 0.4),
            ("dblp_author.aid = 7", 0.5),
        ])
        predicate, intensity = mixed_combine(prefs)
        sql = predicate.to_sql()
        assert "dblp.venue = 'A' OR dblp.venue = 'B'" in sql
        assert "dblp_author.aid = 7" in sql
        assert intensity == pytest.approx(f_and(f_or(0.8, 0.4), 0.5))

    def test_pairwise_compatible(self):
        venue_a = ScoredPreference(parse_predicate("venue = 'A'"), 0.5)
        venue_b = ScoredPreference(parse_predicate("venue = 'B'"), 0.5)
        author = ScoredPreference(parse_predicate("aid = 1"), 0.5)
        assert not pairwise_compatible(venue_a, venue_b)
        assert pairwise_compatible(venue_a, author)

    def test_combination_record_metrics(self):
        record = CombinationRecord(size=2, tuple_count=50, intensity=0.5,
                                   predicate=parse_predicate("a = 1"))
        assert record.is_applicable
        assert record.as_tuple() == (2, 50, 0.5)
        assert record.utility() == pytest.approx(25 / 2 * 0.5)
        empty = CombinationRecord(size=2, tuple_count=0, intensity=0.9,
                                  predicate=parse_predicate("a = 1"))
        assert not empty.is_applicable

    def test_preferences_from_graph(self, dblp_profile):
        hypre, _ = build_hypre_graph(dblp_profile)
        prefs = preferences_from_graph(hypre, 1)
        assert prefs
        assert all(pref.intensity > 0 for pref in prefs)
        intensities = [pref.intensity for pref in prefs]
        assert intensities == sorted(intensities, reverse=True)


class TestQueryRunner:
    def test_count_and_ids_cached(self, tiny_db):
        runner = PreferenceQueryRunner(tiny_db)
        predicate = parse_predicate("dblp.year >= 2005")
        first = runner.count(predicate)
        executed = runner.queries_executed
        second = runner.count(predicate)
        assert first == second
        assert runner.queries_executed == executed
        ids = runner.ids(predicate)
        assert len(ids) == first
        assert runner.is_applicable(predicate)

    def test_clear_resets_cache(self, tiny_db):
        runner = PreferenceQueryRunner(tiny_db)
        runner.count(parse_predicate("dblp.year >= 2005"))
        runner.clear()
        assert runner.queries_executed == 0


#: The lists a patch test memoises: single venues and years, an author, a
#: range and conjunctions across attributes.
MEMO_TEXTS = ("dblp.venue = 'VLDB'", "dblp.venue = 'SIGMOD'",
              "dblp.year = 2011", "dblp.year >= 2010",
              "dblp_author.aid = 1",
              "dblp.venue = 'VLDB' AND dblp.year >= 2010",
              "dblp.venue = 'SIGMOD' AND dblp_author.aid = 1")


@pytest.fixture(params=BACKEND_NAMES)
def memo_world(request, tiny_dataset):
    """A private tiny world on each engine, a runner holding every
    ``MEMO_TEXTS`` list, and the data mutations the world announces."""
    db = create_backend(request.param)
    load_dataset(db, tiny_dataset)
    runner = PreferenceQueryRunner(db)
    for text in MEMO_TEXTS:
        runner.ids(parse_predicate(text))
    mutations = []
    db.subscribe(mutations.append)
    yield db, runner, mutations
    db.close()


def sweep(runner, mutations, strip=None):
    """Hand the runner the one announced mutation as a server sweep does
    (``strip``: an attribute taken off every row first); returns the stale,
    patched and dropped list counts."""
    (mutation,) = mutations
    mutations.clear()
    rows = [{name: value for name, value in row.items() if name != strip}
            for row in mutation.invalidation_rows()]
    patched, dropped = runner.id_lists_patched, runner.id_lists_dropped
    impact = runner.invalidate_matching(RowMatch(rows, len(mutation.rows)))
    patched = runner.id_lists_patched - patched
    dropped = runner.id_lists_dropped - dropped
    assert impact == {"index_entries_patched": patched,
                      "index_entries_dropped": dropped}
    return patched + dropped, patched, dropped


def memo(runner):
    return {text: runner._ids_cache.get(CountCache.key(text))
            for text in MEMO_TEXTS}


def assert_patched_equals_a_fetch(db, runner):
    """Every list still held equals a fresh fetch, pid order included, and
    reading them all issues no statement."""
    executed = runner.queries_executed
    held = {text: ids for text, ids in memo(runner).items() if ids is not None}
    assert held == {text: tuple(db.matching_paper_ids(parse_predicate(text)))
                    for text in held}
    for text in held:
        runner.ids(parse_predicate(text))
    assert runner.queries_executed == executed


def pid_in(db, venue, year=None):
    """The least pid of ``venue`` (and ``year``) with an author link."""
    return next(row["pid"] for row in sorted(db.joined_rows(),
                                             key=lambda row: row["pid"])
                if row["venue"] == venue and year in (None, row["year"]))


class TestMemoPatch:
    """A sweep patches each stale id list from the mutation's rows; the
    patched list equals a fresh fetch for every producer shape."""

    def test_insert(self, memo_world):
        db, runner, mutations = memo_world
        append_papers(db, [Paper(99001, "New", "VLDB", 2011)],
                      [(99001, 1), (99001, 2)])
        assert sweep(runner, mutations) == (5, 5, 0)
        lists = memo(runner)
        assert all(99001 in lists[text] for text in MEMO_TEXTS
                   if "SIGMOD" not in text)
        assert_patched_equals_a_fetch(db, runner)

    def test_insert_or_replace_of_an_existing_pid(self, memo_world):
        db, runner, mutations = memo_world
        pid = pid_in(db, "VLDB")
        assert pid in memo(runner)["dblp.venue = 'VLDB'"]
        append_papers(db, [Paper(pid, "Replaced", "SIGMOD", 2011)])
        stale, patched, dropped = sweep(runner, mutations)
        assert stale == patched > 0 and dropped == 0
        lists = memo(runner)
        assert pid not in lists["dblp.venue = 'VLDB'"]
        assert pid in lists["dblp.venue = 'SIGMOD'"]
        assert_patched_equals_a_fetch(db, runner)

    def test_link_only_append(self, memo_world):
        db, runner, mutations = memo_world
        pid = min(pid for pid in db.matching_paper_ids(
            parse_predicate("dblp.venue = 'SIGMOD'"))
            if pid not in memo(runner)["dblp_author.aid = 1"])
        append_papers(db, [], [(pid, 1)])
        stale, patched, dropped = sweep(runner, mutations)
        assert stale == patched > 0 and dropped == 0
        lists = memo(runner)
        assert pid in lists["dblp_author.aid = 1"]
        assert pid in lists["dblp.venue = 'SIGMOD' AND dblp_author.aid = 1"]
        assert_patched_equals_a_fetch(db, runner)

    def test_delete(self, memo_world):
        db, runner, mutations = memo_world
        pids = [pid_in(db, "VLDB"), pid_in(db, "SIGMOD")]
        delete_papers(db, pids)
        stale, patched, dropped = sweep(runner, mutations)
        assert stale == patched > 0 and dropped == 0
        assert not any(set(pids) & set(ids) for ids in memo(runner).values())
        assert_patched_equals_a_fetch(db, runner)

    def test_in_place_update_moves_a_pid_between_lists(self, memo_world):
        db, runner, mutations = memo_world
        pid = next(pid for pid in memo(runner)["dblp.venue = 'SIGMOD'"]
                   if pid not in memo(runner)["dblp.year = 2011"])
        update_papers(db, [Paper(pid, "Moved", "VLDB", 2011)])
        stale, patched, dropped = sweep(runner, mutations)
        assert stale == patched > 0 and dropped == 0
        lists = memo(runner)
        assert pid not in lists["dblp.venue = 'SIGMOD'"]
        assert pid in lists["dblp.venue = 'VLDB'"]
        assert pid in lists["dblp.year = 2011"]
        assert_patched_equals_a_fetch(db, runner)

    def test_links_landing_before_their_paper(self, memo_world):
        """Author links may precede their paper; the paper's insert joins
        them, so its post-image carries them even when this call adds only
        other links — ``aid = 1`` goes stale through another pid's row and
        the new pid must enter it."""
        db, runner, mutations = memo_world
        other = min(pid for pid in db.paper_ids()
                    if pid not in memo(runner)["dblp_author.aid = 1"])
        append_papers(db, [], [(99004, 1)])
        assert sweep(runner, mutations) == (0, 0, 0)
        append_papers(db, [Paper(99004, "Late", "VLDB", 2011)],
                      [(99004, 2), (other, 1)])
        stale, patched, dropped = sweep(runner, mutations)
        assert stale == patched > 0 and dropped == 0
        assert {99004, other} <= set(memo(runner)["dblp_author.aid = 1"])
        assert_patched_equals_a_fetch(db, runner)

    @pytest.mark.parametrize("engine", BACKEND_NAMES)
    def test_a_null_literal_list_stays_empty(self, engine):
        """``Condition(attr, "=", None)`` renders ``attr = NULL``, which
        parses back as the SQL null literal — not the text ``'NULL'`` — so
        a paper whose venue is the text ``NULL`` enters no list of it, as
        SQLite's ``= NULL`` matches nothing (a 60-paper world)."""
        db = create_backend(engine)
        load_dataset(db, generate_dblp(DblpConfig(
            n_papers=60, n_authors=30, n_venues=5, seed=3)))
        runner = PreferenceQueryRunner(db)
        null = equals("dblp.venue", None)
        assert runner.ids(null) == ()
        mutations = []
        db.subscribe(mutations.append)
        append_papers(db, [Paper(9001, "Null", "NULL", 2011)], [(9001, 1)])
        sweep(runner, mutations)
        assert runner._ids_cache[CountCache.key(null)] \
            == tuple(db.matching_paper_ids(null)) == ()
        db.close()

    def test_an_undecidable_row_drops_the_list(self, memo_world):
        """A post row lacking ``year``: a list it may match through a year
        conjunct is dropped (the verdict is ``None``) and refetched by the
        next read; the lists it decides are patched."""
        db, runner, mutations = memo_world
        append_papers(db, [Paper(99002, "New", "VLDB", 2011)], [(99002, 1)])
        stale, patched, dropped = sweep(runner, mutations, strip="year")
        assert (stale, patched, dropped) == (5, 2, 3)
        lists = memo(runner)
        assert {text for text, ids in lists.items() if ids is None} == {
            "dblp.year = 2011", "dblp.year >= 2010",
            "dblp.venue = 'VLDB' AND dblp.year >= 2010"}
        assert_patched_equals_a_fetch(db, runner)
        executed = runner.queries_executed
        assert 99002 in runner.ids(parse_predicate("dblp.year = 2011"))
        assert runner.queries_executed == executed + 1


class TestCountingBounds:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (3, 7), (5, 31), (10, 1023)])
    def test_proposition3_formula(self, n, expected):
        assert and_only_upper_bound(n) == expected

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 4), (3, 13), (5, 121)])
    def test_proposition4_formula(self, n, expected):
        assert and_or_upper_bound(n) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_matches_proposition3(self, n):
        assert count_and_combinations(list(range(n))) == and_only_upper_bound(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumeration_matches_proposition4(self, n):
        assert count_and_or_combinations(list(range(n))) == and_or_upper_bound(n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            and_only_upper_bound(-1)
        with pytest.raises(ValueError):
            and_or_upper_bound(-1)

    def test_enumerate_and_yields_subsets_in_size_order(self):
        combos = list(enumerate_and_combinations(["a", "b", "c"]))
        sizes = [len(combo) for combo in combos]
        assert sizes == sorted(sizes)
        assert ("a",) in combos and ("a", "b", "c") in combos

    def test_enumerate_and_or_operator_arity(self):
        for subset, operators in enumerate_and_or_combinations(["a", "b", "c"]):
            assert len(operators) == len(subset) - 1
            assert all(op in ("AND", "OR") for op in operators)

    def test_growth_table(self):
        table = growth_table(4)
        assert table[0] == (1, 1, 1)
        assert table[-1] == (4, 15, 40)
        with pytest.raises(ValueError):
            growth_table(0)
