"""The linear cold path: differentials, work gates and a golden ranking digest.

PEPS answers a Top-K with one inverted fold over the preferences' id lists
and nothing else; the paper's ``ORDER`` list is ordered from positional views
of the pair table, and the incremental index keys its refresh once per
preference.  This module holds that path to three things:

* **bit-identity** — ``top_k`` / ``top_k_buffer`` / ``retrieved_above`` equal
  (``==`` on the floats) a brute-force reference that scans every positive id
  list per tuple, ``order_combinations`` equals a scan of the pair table, and
  the positional views equal the table, on both backends;
* **work, not wall-clock** — the counters PEPS publishes and monkeypatched
  call counts bound the work per read, so a scan that creeps back in fails
  here instead of in a stopwatch;
* **a golden digest** of the rankings served to 20 users of the tiny scale,
  captured before the path was rewritten.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.index.pair_index as pair_index_module
from repro import PreferenceExtractor, TopKServer, create_backend, generate_dblp
from repro.algorithms.base import (
    PreferenceQueryRunner,
    ScoredPreference,
    make_preferences,
    preferences_from_graph,
)
from repro.algorithms.peps import PEPSAlgorithm
from repro.exceptions import TopKError
from repro.core.hypre import HypreGraphBuilder
from repro.core.intensity import combine_and, min_preferences_to_beat
from repro.core.predicate import conjunction
from repro.core.preference import QuantitativePreference
from repro.experiments.context import SCALES
from repro.index import CountCache, IncrementalPairIndex
from repro.index.selectivity import RowMatch
from repro.workload import load_dataset, load_profiles
from repro.workload.dblp import Paper

BACKENDS = ("sqlite", "memory")
UID = 1

#: Predicates over the tiny world: equalities that exclude each other, an IN
#: and a disjunction overlapping them, year ranges that overlap heavily (so
#: one tuple is matched by many preferences) and a few author links.
POOL = (
    "dblp.venue = 'VLDB'",
    "dblp.venue = 'SIGMOD'",
    "dblp.venue = 'ICDE'",
    "dblp.venue = 'CIKM'",
    "dblp.venue IN ('VLDB', 'SIGMOD', 'PODS')",
    "dblp.venue = 'VLDB' OR dblp.venue = 'EDBT'",
    "dblp.year >= 2005",
    "dblp.year >= 2000 AND dblp.year <= 2010",
    "dblp.year < 2005",
    "dblp.year >= 2010",
    "dblp.year != 2003",
    "dblp.year >= 1995",
    "dblp_author.aid = 1",
    "dblp_author.aid = 2",
    "dblp_author.aid IN (1, 2, 3, 4, 5, 6)",
)


def fresh_db(dataset, backend):
    db = create_backend(backend, path=":memory:")
    load_dataset(db, dataset)
    return db


@pytest.fixture(scope="module", params=BACKENDS)
def runner(request, tiny_dataset):
    """A read-only world per backend, shared by the property tests."""
    db = fresh_db(tiny_dataset, request.param)
    yield PreferenceQueryRunner(db)
    db.close()


# -- the brute-force reference -------------------------------------------------


def reference_order(peps):
    """``order_combinations`` re-derived by scanning the whole pair table."""
    table = peps.pair_index._pairs
    preferences = peps.preferences

    def applicable(i, j):
        return table[(min(i, j), max(i, j))].is_applicable

    emitted, combos = set(), []
    for start in range(len(preferences)):
        if len(combos) >= peps.max_combinations:
            break
        pairs = sorted((pair for (first, _), pair in table.items()
                        if first == start and pair.is_applicable),
                       key=lambda pair: -pair.intensity)
        top = preferences[0].intensity
        for pair in pairs:
            if start > 0 and pair.intensity <= top and (
                    peps.approximate
                    or min_preferences_to_beat(top, preferences[pair.second].intensity)
                    > len(preferences) - 1):
                continue
            stack = [frozenset({pair.first, pair.second})]
            while stack and len(combos) < peps.max_combinations:
                current = stack.pop()
                if current in emitted:
                    continue
                emitted.add(current)
                combos.append(current)
                if len(current) >= peps.max_combination_size:
                    continue
                for nxt in range(max(current) + 1, len(preferences)):
                    if all(applicable(member, nxt) for member in current):
                        if current | {nxt} not in emitted:
                            stack.append(current | {nxt})
    combos.extend(frozenset({index}) for index in range(len(preferences))
                  if frozenset({index}) not in emitted)
    records = []
    for combo in combos:
        members = [preferences[index] for index in sorted(combo)]
        predicate = conjunction([member.predicate for member in members])
        count = (table[tuple(sorted(combo))].tuple_count if len(combo) == 2 else -1)
        records.append((len(combo), count,
                        combine_and([member.intensity for member in members]),
                        predicate, predicate.to_sql()))
    records.sort(key=lambda record: (-record[2], record[0], record[4]))
    return records


def reference_ranking(peps, k=None, min_intensity=None):
    """The scoring pass as a per-tuple scan of every id list: each covered
    tuple's score is ``combine_and`` over the intensities of the preferences
    whose list holds it, ranked best first, pid ascending on ties."""
    ids = peps.runner.ids
    membership = [(pref.intensity, ids(pref.predicate))
                  for pref in peps.preferences]
    covered = {pid for _, pids in membership for pid in pids}
    ranked = sorted(((pid, combine_and([intensity for intensity, pids
                                        in membership if pid in pids]))
                     for pid in covered),
                    key=lambda item: (-item[1], item[0]))
    if min_intensity is not None:
        return [entry for entry in ranked if entry[1] >= min_intensity]
    return ranked[:k]


# -- hypothesis: PEPS against the reference --------------------------------------

intensities = st.one_of(
    st.sampled_from([0.5, 1.0, 5e-324]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
preference_lists = st.lists(
    st.tuples(st.sampled_from(POOL), intensities),
    min_size=1, max_size=9, unique_by=lambda entry: entry[0])
caps = st.sampled_from([
    {},
    {"max_combinations": 1},
    {"max_combination_size": 2},
    {"max_combinations": 7, "max_combination_size": 3},
])
property_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@property_settings
@given(entries=preference_lists, approximate=st.booleans(), caps=caps,
       k=st.sampled_from([1, 3, 10, 500]), delta=st.sampled_from([0, 4]),
       threshold=st.sampled_from([0.0, 0.3, 0.8, 1.0]))
def test_peps_equals_brute_force(runner, entries, approximate, caps, k, delta,
                                 threshold):
    """Over positive lists: the answer is the brute-force ranking whatever
    the variant or the ``ORDER`` list's caps, and reading it reads each id
    list once and builds no pair table."""
    preferences = make_preferences(entries)
    peps = PEPSAlgorithm(runner, preferences, approximate=approximate, **caps)

    expected = reference_ranking(peps, k=k)
    assert peps.top_k(k) == expected
    assert peps._pair_index is None  # scoring never asked for the table
    covered = set()
    for pref in peps.preferences:
        covered.update(runner.ids(pref.predicate))
    assert peps.memberships_folded == sum(
        len(runner.ids(pref.predicate)) for pref in peps.preferences)
    assert peps.tuples_scored == len(covered)

    buffer, complete = peps.top_k_buffer(k, delta)
    assert buffer == reference_ranking(peps, k=k + delta)
    assert complete == (len(buffer) < k + delta)

    above = reference_ranking(peps, min_intensity=threshold)
    assert peps.retrieved_above(threshold) == above
    assert peps.top_k(k, min_intensity=threshold) == above

    ordered = peps.order_combinations()
    assert [(r.size, r.tuple_count, r.intensity, r.predicate, r.label)
            for r in ordered] == reference_order(peps)


@pytest.mark.parametrize("intensity", [0.0, -0.5, -1.0])
def test_non_positive_preferences_are_refused(tiny_db, intensity):
    """The fold scores what positive preferences match; a list holding a
    zero or negative one is refused before anything is read."""
    runner = PreferenceQueryRunner(tiny_db)
    preferences = make_preferences(PROFILE[:3] + [(POOL[5], intensity)],
                                   positive_only=False)
    with pytest.raises(TopKError, match="positive preferences only"):
        PEPSAlgorithm(runner, preferences)
    assert runner.queries_executed == 0


@property_settings
@given(entries=preference_lists)
def test_scores_are_the_fold_over_matching_preferences(runner, entries):
    """Depth beyond the covered set returns every covered tuple, each with
    exactly ``combine_and`` of the positive intensities matching it."""
    preferences = make_preferences(entries)
    if not preferences:
        return
    peps = PEPSAlgorithm(runner, preferences)
    expected = {}
    for pref in peps.preferences:
        for pid in runner.ids(pref.predicate):
            expected.setdefault(pid, []).append(pref.intensity)
    ranking = peps.top_k(len(expected) + 50)
    assert dict(ranking) == {pid: combine_and(matched)
                             for pid, matched in expected.items()}
    assert ranking == sorted(ranking, key=lambda entry: (-entry[1], entry[0]))


# -- the positional views against a scan of the pair table -----------------------


def assert_views_match_table(index):
    table = index._pairs
    size = len(index.preferences)
    assert len(index) == size * (size - 1) // 2
    by_intensity = lambda pair: -pair.intensity  # noqa: E731
    for i in range(size):
        assert index.applicable_pairs_from(i) == sorted(
            (pair for (first, _), pair in table.items()
             if first == i and pair.is_applicable), key=by_intensity)
        for j in range(size):
            expected = i == j or table[(min(i, j), max(i, j))].is_applicable
            assert index.is_applicable(i, j) is expected
            assert bool(index.applicable_partners(i) >> j & 1) == (expected and i != j)
    assert index.applicable_pairs_from(size) == []
    assert index.all_applicable() == sorted(
        (pair for pair in table.values() if pair.is_applicable), key=by_intensity)


def graph_of(entries):
    builder = HypreGraphBuilder()
    for sql, intensity in entries:
        builder.add_quantitative(QuantitativePreference(UID, sql, intensity))
    return builder


PROFILE = list(zip(POOL, (0.9, 0.8, 0.8, 0.5, 0.7, 0.6, 0.7, 0.6, 0.4, 0.3,
                          0.2, 0.1, 0.85, 0.75, 0.65)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_views_follow_the_table_through_refreshes(tiny_dataset, backend):
    db = fresh_db(tiny_dataset, backend)
    try:
        query_runner = PreferenceQueryRunner(db)
        builder = graph_of(PROFILE[:9])
        index = IncrementalPairIndex(
            query_runner, preferences_from_graph(builder.hypre, UID))
        assert_views_match_table(index)

        # Profile change: new nodes, a merged duplicate, a changed order —
        # a new index over the same runner, as a rebuilt session gets.
        for sql, intensity in PROFILE[9:]:
            builder.add_quantitative(QuantitativePreference(UID, sql, intensity))
        builder.add_quantitative(QuantitativePreference(UID, PROFILE[8][0], 0.95))
        index = IncrementalPairIndex(
            query_runner, preferences_from_graph(builder.hypre, UID))
        assert len(index.preferences) == len(PROFILE)
        assert_views_match_table(index)

        # Data mutation: the new tuple makes VLDB-in-2012 pairs non-empty.
        paper = Paper(pid=9001, title="t", venue="VLDB", year=2012)
        db.append_papers([paper], [(9001, 1)])
        match = RowMatch(db.joined_rows([9001]))
        query_runner.count_cache.invalidate_matching(match)
        assert index.invalidate_matching(match) > 0
        index.refresh()
        assert_views_match_table(index)

        rebuilt = IncrementalPairIndex(
            PreferenceQueryRunner(db), index.preferences)
        assert_views_match_table(rebuilt)
        assert rebuilt._pairs == index._pairs
    finally:
        db.close()


# -- work gates -------------------------------------------------------------------


class ScanCountingTable(dict):
    """A pair table that counts every whole-table iteration."""

    scans = 0

    def _scan(self, view):
        self.scans += 1
        return view

    def items(self):
        return self._scan(super().items())

    def values(self):
        return self._scan(super().values())

    def keys(self):
        return self._scan(super().keys())

    def __iter__(self):
        return self._scan(super().__iter__())


def test_ordering_never_scans_the_pair_table(tiny_runner):
    preferences = make_preferences(PROFILE)
    index = IncrementalPairIndex(tiny_runner, preferences)
    index._pairs = ScanCountingTable(index._pairs)
    peps = PEPSAlgorithm(tiny_runner, preferences, pair_index=index)
    assert len(peps.order_combinations()) > len(preferences)
    peps.top_k(5)
    assert index._pairs.scans == 0


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a pass-through recording each call's args."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_refresh_keys_each_preference_once(monkeypatch, tiny_dataset):
    """Per refresh over n preferences: at most n key renders (none once the
    preferences have rendered theirs), one compatibility verdict per pair,
    no cache peek and one ``count_many`` — first refresh (the cache has seen
    no pair) and after a data mutation (it lost some) alike."""
    renders = count_calls(monkeypatch, ScoredPreference.__dict__["sql"], "func")
    peeks = count_calls(monkeypatch, CountCache, "peek")
    verdicts = count_calls(monkeypatch, pair_index_module, "are_and_compatible")
    batches = count_calls(monkeypatch, CountCache, "count_many")
    tallies = (renders, peeks, verdicts, batches)

    def spent():
        totals = tuple(len(tally) for tally in tallies)
        for tally in tallies:
            tally.clear()
        return totals

    db = fresh_db(tiny_dataset, "sqlite")
    try:
        runner = PreferenceQueryRunner(db)
        index = IncrementalPairIndex(runner, make_preferences(PROFILE[:10]))
        assert spent() == (10, 0, 45, 1)
        assert index.pairs_counted + index.pairs_prefiltered == 45

        db.append_papers([Paper(pid=9001, title="t", venue="VLDB", year=2012)],
                         [(9001, 1)])
        match = RowMatch(db.joined_rows([9001]))
        dropped = runner.count_cache.invalidate_matching(match)
        assert 0 < index.invalidate_matching(match) < 45
        misses_before = runner.count_cache.misses
        index.refresh()
        assert 0 < runner.count_cache.misses - misses_before <= dropped
        assert spent() == (0, 0, 45, 1)

        index.refresh()                     # not stale: no work at all
        assert spent() == (0, 0, 0, 0)
    finally:
        db.close()


def test_counters_are_annotated_on_the_request_span(tiny_db):
    """The span carries the fold's two counters, and a read costs one id
    list per preference and no count."""
    from repro.telemetry import Telemetry

    runner = PreferenceQueryRunner(tiny_db)
    telemetry = Telemetry()
    peps = PEPSAlgorithm(runner, make_preferences(PROFILE))
    with telemetry.trace("peps.top_k"):
        peps.top_k(5)
    notes = dict(telemetry.traces.snapshot()[-1].annotations)
    assert notes == {"tuples_scored": peps.tuples_scored,
                     "memberships_folded": peps.memberships_folded}
    assert peps.tuples_scored > 0 and peps.memberships_folded > 0
    assert runner.queries_executed == len(PROFILE)
    assert runner.count_cache.misses == runner.count_cache.hits == 0


# -- golden rankings ---------------------------------------------------------------

#: sha256 over the k=10 rankings of 20 users spread over the tiny scale's
#: mined population, captured on the commit before the cold path was made
#: linear.  It moves only when a served float or tie-break moves.
GOLDEN_RANKINGS = "f2b5af7263ad7eb2042adeb25e2d36dbfda493468d5a4fcd5dc7da1ca1d93e8d"


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_rankings_match_the_golden_digest(backend):
    dataset = generate_dblp(SCALES["tiny"])
    registry = PreferenceExtractor(dataset).extract_all()
    db = fresh_db(dataset, backend)
    load_profiles(db, registry)
    server = TopKServer(db)
    try:
        uids = sorted(profile.uid for profile in registry)
        digest = hashlib.sha256()
        for uid in uids[::len(uids) // 20][:20]:
            ranking = server.top_k(uid, 10).ranking
            digest.update(f"{uid}:{list(ranking)!r}\n".encode())
        assert digest.hexdigest() == GOLDEN_RANKINGS
    finally:
        server.close()
        db.close()
