"""The repair differential: a repaired answer equals a recomputation.

Both repairs of a cached answer — ``CachedResult.apply_delta`` for a data
mutation, ``apply_profile`` for a profile update — end in one merge
(``CachedResult._merge``).  The oracle is the user's whole ``(−score, pid)``
order recomputed under ``f_and`` over a drawn universe: papers whose venue,
year and authors come from a pool of shared values (``tests/strategies.py``),
shared predicates over that pool, intensities, ``k``, depth, and a complete
or truncated buffer that is an exact prefix of the order.

* ``apply_delta`` on a drawn insert, delete or in-place update keeps the
  exact prefix of the new order (all of it when ``complete``, else what
  ranks at or above the old floor, up to the depth), and underflows only
  when fewer than ``k`` tuples rank there.  Hand-written inputs of the same
  check pin the edges (``TestApplyDelta``).
* ``apply_profile`` on a drawn diff — added, removed, restated, swapped
  preferences, a removed one's id list forgotten — keeps the exact prefix
  for the k read, and falls back only for a reason the recomputation
  confirms.

Beside them: what a drawn complete row cannot reach (an unscorable row,
scoring from the sweep's verdicts alone), the repair-vs-epoch race, and
end to end through a server against ``fresh_top_k``: a forced underflow
and every profile-repair fallback and edge of the diff.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import event, given, settings, strategies as st
from strategies import intensities, pools, predicates, values

import repro.index.selectivity as selectivity
from repro import TopKServer, UserProfile, fresh_top_k
from repro.algorithms.base import PreferenceQueryRunner, ScoredPreference
from repro.backend import create_backend
from repro.core.intensity import combine_and
from repro.core.predicate import parse_predicate
from repro.index import CountCache, RowMatch
from repro.serving.results import (
    FALLBACK_EMPTY,
    FALLBACK_REORDERED,
    FALLBACK_UNDERFLOW,
    FALLBACK_UNMEMOISED,
    FALLBACK_UNSCORABLE,
    REPAIR_MARGIN,
    REPAIRED,
    CachedResult,
    ResultCache,
)
from repro.sqldb.events import (TUPLES_DELETED, TUPLES_INSERTED,
                                TUPLES_UPDATED, DataMutation)
from repro.workload import DblpConfig, generate_dblp, load_dataset

pytestmark = pytest.mark.differential


def rows(pid, paper):
    """A paper's joined rows: one per author (aid 0 when it has none)."""
    venue, year, aids = paper
    return [{"pid": pid, "title": "T", "venue": venue, "year": year,
             "abstract": "", "aid": aid} for aid in sorted(aids) or (0,)]


def matches(text, paper):
    """Whether some joined row of ``paper`` matches the preference."""
    predicate = parse_predicate(text)
    return any(predicate.evaluate(row) for row in rows(0, paper))


def order(papers, preferences):
    """The whole ``(−score, pid)`` order under ``preferences``, recomputed:
    every paper matching one, scored by ``f_and`` in preference order."""
    keys = []
    for pid, paper in papers.items():
        scores = [intensity for text, intensity in preferences
                  if matches(text, paper)]
        if scores:
            keys.append((-combine_and(scores), pid))
    return sorted(keys)


def ranking(keys):
    return tuple((pid, -negated) for negated, pid in keys)


class Universe:
    """A backend stand-in: each key's id list, from the drawn papers."""

    def __init__(self, papers):
        self.papers = papers

    def matching_paper_ids(self, predicate):
        text = predicate.to_sql()
        return sorted(pid for pid, paper in self.papers.items()
                      if matches(text, paper))


def answer(papers, preferences, k, depth=None):
    """The cached answer to ``preferences`` over ``papers``: the exact
    prefix of the order, complete without ``depth``, else truncated there."""
    keys = order(papers, preferences)
    buffer = ranking(keys if depth is None else keys[:depth])
    return CachedResult(
        uid=1, k=k, ranking=buffer[:k],
        conjuncts=tuple(CountCache.key(text) for text, _ in preferences),
        intensities=tuple(intensity for _, intensity in preferences),
        buffer=buffer, complete=depth is None, depth=len(buffer))


def universe_papers(pool):
    """A paper over ``pool``'s values, with up to three of four authors."""
    held = st.sampled_from(pool)
    return st.tuples(held, held, st.frozensets(st.integers(1, 4), max_size=3))


def preference_texts(pool):
    """A preference's text: a shared predicate over the pool and aids."""
    return predicates(st.sampled_from(pool + [1, 2, 3])).map(
        lambda expr: expr.to_sql())


@st.composite
def answers(draw):
    """A pool, a universe over it, a preference list and a cached answer
    to it: an exact prefix of the order, complete or truncated at a drawn
    depth."""
    pool = draw(pools(values, min_size=2), label="pool")
    papers = dict(enumerate(draw(st.lists(universe_papers(pool), min_size=3,
                                          max_size=14)), start=1))
    texts = draw(st.lists(preference_texts(pool), min_size=1, max_size=4,
                          unique_by=CountCache.key))
    preferences = [(text, draw(intensities(0.01))) for text in texts]
    k = draw(st.integers(min_value=1, max_value=4))
    depth = None
    if not draw(st.booleans()):
        # Mostly at least k deep, as a fold leaves it; now and then shorter.
        found = len(order(papers, preferences))
        low = min(k, found) if draw(st.integers(0, 4)) else 0
        depth = draw(st.integers(low, found))
    return pool, papers, preferences, answer(papers, preferences, k, depth)


@st.composite
def deltas(draw):
    """An answer and a mutation of its universe: an insert of a new pid, or
    a delete or in-place update (which may keep the paper's rows) of any
    paper or of the buffer's floor pid."""
    pool, papers, preferences, entry = draw(answers())
    kind = draw(st.sampled_from((TUPLES_INSERTED, TUPLES_DELETED,
                                 TUPLES_UPDATED)))
    if kind == TUPLES_INSERTED:
        return papers, preferences, entry, kind, len(papers) + 1, draw(
            universe_papers(pool))
    pid = draw(st.sampled_from(sorted(papers) + [
        pid for pid, _ in entry.buffer[-1:]]))
    paper = None if kind == TUPLES_DELETED else draw(
        st.one_of(st.just(papers[pid]), universe_papers(pool)))
    return papers, preferences, entry, kind, pid, paper


def at_or_above_floor(entry, keys):
    """The keys of ``keys`` a truncated ``entry``'s buffer certifies: those
    ranking at or above its floor before the change (none without one)."""
    if not entry.buffer:
        return []
    pid, score = entry.buffer[-1]
    return [key for key in keys if key <= (-score, pid)]


def assert_exact_prefix(entry, buffer, complete, keys, k, cap):
    """``buffer`` is what the merge must keep of the new order ``keys``."""
    if entry.complete:
        expected = keys if cap is None else keys[:cap]
        assert complete == (cap is None or len(keys) < cap)
    else:
        expected = at_or_above_floor(entry, keys)[:cap]
        assert not complete and len(expected) >= k
    assert buffer == ranking(expected)


#: Two preferences so matched subsets score distinctly: venue-only 0.9,
#: year-only 0.4, both ``combine_and`` → 0.94.
_PREDS = ("dblp.venue = 'VLDB'", "dblp.year >= 2010")
_INTENS = (0.9, 0.4)
_PREFERENCES = list(zip(_PREDS, _INTENS))
BOTH, VENUE_ONLY = ("VLDB", 2012, {1}), ("VLDB", 1999, {1})
#: ``{1: both, 2: venue only, 3: venue only, 4: venue only}``: a ``k = 2``
#: answer truncated three deep has its floor at pid 3.
_FOUR = {1: BOTH, 2: VENUE_ONLY, 3: VENUE_ONLY, 4: VENUE_ONLY}


def _delta(papers, k, depth, kind, pid, paper=None):
    """The drawn property's input for a hand-written case over the two
    preferences."""
    check_delta(papers, _PREFERENCES, answer(papers, _PREFERENCES, k, depth),
                kind, pid, paper)


@settings(deadline=None)
@given(deltas())
def test_apply_delta_equals_the_recomputed_prefix(delta):
    _, _, entry, kind, pid, _ = delta
    reason = check_delta(*delta)
    event(f"delta: {'complete' if entry.complete else 'truncated'} {kind} "
          f"-> {reason}")
    if entry.buffer and not entry.complete and entry.buffer[-1][0] == pid:
        event("delta: the truncated buffer's floor pid touched")


def check_delta(papers, preferences, entry, kind, pid, paper=None):
    """``entry.apply_delta`` on the mutation of ``pid`` (to ``paper``)
    equals the recomputed prefix, or underflows as the recomputation
    confirms; returns its reason."""
    after = dict(papers)
    pre = [] if kind == TUPLES_INSERTED else rows(pid, papers[pid])
    if kind == TUPLES_DELETED:
        del after[pid]
        post = []
    else:
        after[pid] = paper
        post = rows(pid, paper)
    match = RowMatch.of(DataMutation(kind, "dblp", rows=post, old_rows=pre,
                                     pids=[pid]))
    keys = order(after, preferences)

    repaired, reason = entry.apply_delta(match)
    if repaired is None:
        # Confirmed: fewer than k tuples of the new order are certified.
        assert reason == FALLBACK_UNDERFLOW and not entry.complete
        assert len(at_or_above_floor(entry, keys)) < entry.k
        return reason
    assert reason == REPAIRED
    assert_exact_prefix(entry, repaired.buffer, repaired.complete, keys,
                        entry.k, None if entry.complete
                        else max(entry.depth, entry.k))
    assert repaired.ranking == repaired.buffer[:entry.k]
    assert (repaired is entry) == (repaired.buffer == entry.buffer)
    return reason


@settings(deadline=None)
@given(answers(), st.data())
def test_apply_profile_equals_the_recomputed_prefix(drawn, data):
    pool, papers, preferences, basis = drawn
    # The diff: each old preference kept, dropped or restated, new ones
    # inserted anywhere; now and then two kept ones swap places.
    new = []
    for text, intensity in preferences:
        fate = data.draw(st.sampled_from(("keep", "keep", "drop", "restate")))
        if fate != "drop":
            new.append((text, intensity if fate == "keep"
                        else data.draw(intensities(0.01))))
    stated = {CountCache.key(text) for text, _ in preferences}
    for text in data.draw(st.lists(preference_texts(pool).filter(
            lambda text: CountCache.key(text) not in stated),
            unique_by=CountCache.key, max_size=2)):
        new.insert(data.draw(st.integers(0, len(new))),
                   (text, data.draw(intensities(0.01))))
    if len(new) >= 2 and data.draw(st.integers(0, 5)) == 0:
        first = data.draw(st.integers(0, len(new) - 2))
        new[first], new[first + 1] = new[first + 1], new[first]
    if not new:
        return  # no positive preference left: the read serves ()
    k = data.draw(st.integers(min_value=1, max_value=6))
    # The shared memo holds the old list's id lists, now and then less a
    # removed key's.
    runner = PreferenceQueryRunner(Universe(papers))
    removed = {text for text, _ in preferences} - {text for text, _ in new}
    forgotten = data.draw(st.sets(st.sampled_from(sorted(removed)))) \
        if removed else set()
    for text, _ in preferences:
        if text not in forgotten:
            runner.ids(parse_predicate(text))
    keys = order(papers, new)

    rebased, reason = basis.apply_profile(
        runner, [ScoredPreference(parse_predicate(text), intensity)
                 for text, intensity in new],
        [CountCache.key(text) for text, _ in new], k)
    event(f"profile: {'complete' if basis.complete else 'truncated'} "
          f"-> {reason}")
    changed = set(preferences).symmetric_difference(new)
    changed_texts = {text for text, _ in changed}
    if reason == FALLBACK_REORDERED:
        assert [pair for pair in preferences if pair[0] not in changed_texts] \
            != [pair for pair in new if pair[0] not in changed_texts]
    elif reason == FALLBACK_EMPTY:
        assert not basis.complete and not basis.buffer
    elif reason == FALLBACK_UNMEMOISED:
        assert forgotten & changed_texts
    elif reason == FALLBACK_UNDERFLOW:
        assert not basis.complete
        assert len(at_or_above_floor(basis, keys)) < k
    else:
        assert reason == REPAIRED and not forgotten & changed_texts
        assert_exact_prefix(basis, rebased.buffer, rebased.complete, keys, k,
                            max(k + REPAIR_MARGIN * k, basis.depth))


# -- apply_delta's edges ----------------------------------------------------------


def _row(pid, venue="VLDB", year=2012, **overrides):
    row = {"pid": pid, "title": "T", "venue": venue, "year": year,
           "abstract": "", "aid": 1}
    row.update(overrides)
    return row


def _insert(*rows):
    """The match a sweep builds for inserting ``rows``."""
    return RowMatch.of(DataMutation(
        TUPLES_INSERTED, "dblp", rows=list(rows), old_rows=[],
        pids=sorted({r["pid"] for r in rows})))


def _update(old, new):
    return RowMatch.of(DataMutation(TUPLES_UPDATED, "dblp", rows=[new],
                                    old_rows=[old], pids=[new["pid"]]))


SCORE_BOTH = combine_and([0.9, 0.4])  # bit-exact: repairs fold in index order
VENUE_ONLY_SCORE = 0.9
_CONJUNCTS = tuple(CountCache.key(text) for text in _PREDS)
_COMPLETE = answer({1: BOTH, 2: VENUE_ONLY}, _PREFERENCES, 2)


class TestApplyDelta:
    """Hand-written inputs of the drawn property, at the edges of the
    merge, and the fallbacks and verdicts a drawn complete row cannot
    reach."""

    def test_insert_above_floor_enters_truncated_buffer(self):
        # Ties pid 1; pid order breaks the tie; the depth trim holds.
        _delta(_FOUR, 2, 3, TUPLES_INSERTED, 10, BOTH)

    def test_insert_below_floor_of_truncated_buffer_is_a_noop(self):
        # Ties the floor's score below its pid: provably irrelevant.
        _delta({1: BOTH, 2: BOTH, 3: VENUE_ONLY, 4: VENUE_ONLY}, 2, 3,
               TUPLES_INSERTED, 10, VENUE_ONLY)

    def test_complete_buffer_grows_without_floor_or_trim(self):
        _delta({1: BOTH, 2: ("ICDE", 1999, {1})}, 2, None, TUPLES_INSERTED,
               10, VENUE_ONLY)

    def test_delete_from_complete_buffer_may_shrink_below_k(self):
        _delta({1: BOTH, 2: VENUE_ONLY}, 2, None, TUPLES_DELETED, 2)

    def test_update_rescores_in_place(self):
        _delta({1: BOTH, 2: VENUE_ONLY}, 2, None, TUPLES_UPDATED, 2,
               ("VLDB", 2014, {1}))

    def test_tie_orders_by_pid_ascending(self):
        _delta({2: VENUE_ONLY, 3: VENUE_ONLY}, 2, None, TUPLES_INSERTED, 1,
               VENUE_ONLY)

    def test_an_updated_floor_pid_at_or_above_the_old_floor_stays(self):
        """The floor is the buffer's as it was before the change: a floor
        pid rescored to its own score, or above it, still belongs."""
        _delta(_FOUR, 2, 3, TUPLES_UPDATED, 3, ("VLDB", 1998, {1}))
        _delta(_FOUR, 2, 3, TUPLES_UPDATED, 3, ("VLDB", 2014, {1}))

    def test_a_floor_pid_rescored_below_the_old_floor_or_deleted_leaves(
            self):
        """Below the old floor an unseen tuple may outrank it, so it leaves
        the truncated buffer, as a deleted floor pid does."""
        _delta(_FOUR, 2, 3, TUPLES_UPDATED, 3, ("ICDE", 2014, {1}))
        _delta(_FOUR, 2, 3, TUPLES_DELETED, 3)

    def test_truncated_underflow_forces_fallback(self):
        _delta({1: BOTH, 2: VENUE_ONLY, 3: VENUE_ONLY}, 2, 2, TUPLES_DELETED,
               1)

    def test_unscorable_row_forces_fallback(self):
        partial = {"pid": 9, "venue": "VLDB"}  # no year: verdict undecidable
        repaired, reason = _COMPLETE.apply_delta(_insert(partial))
        assert repaired is None and reason == FALLBACK_UNSCORABLE

    def test_undecidable_row_is_outvoted_by_a_surely_matching_one(self):
        """A predicate one of the tuple's rows surely matches counts, even
        when another of its rows cannot decide it."""
        partial = {"pid": 9, "venue": "VLDB", "aid": 1}  # no year
        repaired, reason = _COMPLETE.apply_delta(
            _insert(partial, _row(9, aid=2)))
        assert reason == REPAIRED
        assert repaired.buffer == ((1, SCORE_BOTH), (9, SCORE_BOTH),
                                   (2, VENUE_ONLY_SCORE))

    def test_scores_from_the_sweeps_verdicts(self, monkeypatch):
        """Repairs judge nothing themselves: with the sweep's ``RowMatch``
        handed in, every ``exact_match_row`` call is one of the match's
        tests, however many entries repair — the generic year range's, once
        per row; the venue equality's verdicts are its bucket lookup's."""
        calls = []
        judge = selectivity.exact_match_row
        monkeypatch.setattr(selectivity, "exact_match_row",
                            lambda p, row: calls.append(p) or judge(p, row))
        match = _update(_row(2, year=1999), _row(2, year=2014))
        cache = ResultCache()
        for uid in range(3):
            cache.put(uid, 2, [(1, SCORE_BOTH), (2, VENUE_ONLY_SCORE)], True,
                      _CONJUNCTS, _INTENS)
        assert cache.on_data_mutation(match)["results_invalidated"] == 0
        assert (cache.repairs, cache.data_invalidations) == (3, 0)
        for uid in range(3):
            assert cache.peek(uid, 2).buffer == ((1, SCORE_BOTH), (2, SCORE_BOTH))
        assert len(calls) == match.predicate_row_tests == 2 * 1

    def test_sweep_affects_iff_a_row_may_match_a_predicate(self):
        rows = [_row(5), _row(6, venue="ICDE", year=1999), _row(7, year=2011)]

        def visited(*rows):
            cache = ResultCache()
            cache.put(1, 1, [(1, SCORE_BOTH)], False, _CONJUNCTS, _INTENS)
            cache.on_data_mutation(_insert(*rows))
            return cache.repairs + cache.data_invalidations

        assert visited(*rows) == 1
        assert visited(rows[1]) == 0


# -- the repair-vs-epoch race -------------------------------------------------

class TestRepairEpochGuard:
    def _cache_with_entry(self):
        cache = ResultCache()
        cache.put(1, 1, ((7, SCORE_BOTH),), True, _CONJUNCTS, _INTENS)
        return cache, _CONJUNCTS

    def test_repair_sweep_bumps_epoch_and_rejects_stale_put(self):
        cache, conjuncts = self._cache_with_entry()
        snapshot = cache.epoch
        impact = cache.on_data_mutation(
            _update(_row(7, year=1999), _row(7, year=2014)))
        assert impact["results_invalidated"] == 0  # repaired, not dropped
        assert impact["results_repaired"] == cache.repairs == 1
        # An answer computed from pre-mutation data must still lose the race.
        assert cache.put(1, 1, ((7, SCORE_BOTH),), True, conjuncts, _INTENS,
                         epoch=snapshot) is None
        assert cache.stale_puts_rejected == 1

    def test_sweep_never_resurrects_a_dropped_entry(self):
        cache, _ = self._cache_with_entry()
        assert cache.invalidate_user(1) == 1
        cache.on_data_mutation(_insert(_row(7)))
        assert cache.peek(1, 1) is None
        assert cache.repairs == 0

    def test_concurrent_invalidation_and_repair_sweeps(self):
        """Hammer puts/invalidations against repair sweeps: the cache must
        never crash, and once the final invalidation lands the entry stays
        gone — a sweep only transforms entries that are still present."""
        cache, conjuncts = self._cache_with_entry()
        mutation = _update(_row(7, year=1999), _row(7, year=2014))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                cache.put(1, 1, ((7, SCORE_BOTH),), True, conjuncts, _INTENS)
                cache.invalidate_user(1)

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            for _ in range(300):
                cache.on_data_mutation(mutation)
        finally:
            stop.set()
            worker.join()
        cache.invalidate_user(1)
        assert cache.peek(1, 1) is None
        cache.on_data_mutation(mutation)
        assert cache.peek(1, 1) is None


BACKENDS = ("sqlite", "memory")
VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")
DBLP = DblpConfig(n_papers=60, n_authors=24, n_venues=6, seed=11)
USERS = (1, 2, 3)
K = 4


def _build_server(backend):
    db = create_backend(backend, path=":memory:")
    load_dataset(db, generate_dblp(DBLP))
    server = TopKServer(db)
    for uid in USERS:
        profile = UserProfile(uid=uid)
        profile.add_quantitative(f"dblp.venue = '{VENUES[uid]}'", 0.9)
        profile.add_quantitative("dblp.year >= 2005", 0.4)
        server.update_profile(uid, profile)
        server.top_k(uid, K)
    return db, server


# -- forced fallbacks end to end ----------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_forced_underflow_falls_back_to_invalidation(backend):
    """The buffer is ``3k`` deep; deleting all but ``k - 1`` of its tuples
    at once spends more margin than it holds, so the repair must refuse and
    the entry must be dropped — then recompute exactly."""
    db, server = _build_server(backend)
    try:
        entry = server.results.peek(1, K)
        assert not entry.complete and len(entry.buffer) == 3 * K
        victims = [pid for pid, _ in entry.buffer[K - 1:]]
        before = server.results.repair_underflows
        report = server.delete_tuples(victims)
        assert server.results.repair_underflows == before + 1
        assert report.results_invalidated >= 1
        assert server.results.peek(1, K) is None
        assert list(server.top_k(1, K).ranking) == fresh_top_k(db, 1, K)
    finally:
        server.close()
        db.close()


# -- profile repairs ----------------------------------------------------------

@pytest.fixture(params=BACKENDS)
def world(request):
    db, server = _build_server(request.param)
    yield db, server
    server.close()
    db.close()


def _state(server, uid, *preferences):
    """One profile update of ``uid`` stating ``(predicate, intensity)``
    pairs; a restated predicate's intensities average."""
    profile = UserProfile(uid=uid)
    for predicate, intensity in preferences:
        profile.add_quantitative(predicate, intensity)
    server.update_profile(uid, profile)


def _read_exactly(server, db, uid):
    """A cold read of ``uid``, bit for bit: the ranking is ``fresh_top_k``'s
    and the buffer cached for the next read is a prefix of a fresh fold to
    the full ``3k`` depth — the whole fold when it is complete."""
    result = server.top_k(uid, K)
    assert not result.cache_hit
    assert list(result.ranking) == fresh_top_k(db, uid, K)
    entry = server.results.peek(uid, K)
    fold = fresh_top_k(db, uid, 3 * K)
    assert list(entry.buffer) == fold[:len(entry.buffer)]
    assert not entry.complete or len(entry.buffer) == len(fold) < 3 * K
    return result, entry


def _repairs(server):
    """Profile repairs so far, and the fallbacks by reason."""
    results = server.results
    return results.profile_repairs, {
        reason: count for reason, count
        in results.profile_repair_fallbacks.items() if count}


def _size(db, predicate):
    return len(db.matching_paper_ids(parse_predicate(predicate)))


SIGMOD = f"dblp.venue = '{VENUES[1]}'"  # user 1's venue


class TestProfileRepair:
    def test_an_added_preference_rescores_only_its_tuples(self, world):
        """The read after the update extends the answer's build outline
        (no profile read), runs the one statement a full fold would — the
        new predicate's id list — and folds only the new list's tuples."""
        db, server = world
        _state(server, 1, ("dblp.year = 2008", 0.7))
        result, _ = _read_exactly(server, db, 1)
        assert _repairs(server) == (1, {})
        assert result.sql_statements == 1
        assert server.sessions.profile_extensions == 1
        assert server.results.profile_tuples_rescored == \
            _size(db, "dblp.year = 2008")

    # One case per fallback reason.

    def test_a_removed_preference_without_a_memoised_list_falls_back(
            self, world):
        db, server = world
        _state(server, 1, (SIGMOD, -0.9))  # averages to 0: no longer scored
        server.sessions.runner.clear()
        _read_exactly(server, db, 1)
        assert _repairs(server) == (0, {FALLBACK_UNMEMOISED: 1})

    def test_a_truncated_buffer_that_underflows_falls_back(self, world):
        """Every tuple matches the removed preference, so every tuple is
        rescored below the old floor and none is left above it."""
        db, server = world
        _state(server, 4, ("dblp.year >= 1990", 0.9),
               ("dblp.venue = 'ICDE'", 0.5))
        _, basis = _read_exactly(server, db, 4)
        assert not basis.complete
        _state(server, 4, ("dblp.year >= 1990", -0.9))
        _read_exactly(server, db, 4)
        assert _repairs(server) == (0, {FALLBACK_UNDERFLOW: 1})

    def test_an_empty_truncated_buffer_falls_back(self, world):
        """A truncated basis with no tuple has no floor to cut at."""
        db, server = world
        entry = server.results.peek(1, K)
        server.results.put(1, K, [], False, entry.conjuncts,
                           entry.intensities)
        _state(server, 1, ("dblp.year = 2008", 0.7))
        _read_exactly(server, db, 1)
        assert _repairs(server) == (0, {FALLBACK_EMPTY: 1})

    def test_reordered_unchanged_preferences_fall_back(self):
        """Two unchanged preferences that swapped places fold their factors
        in another order, so no score of the basis is known to hold; the
        check runs before any id list is read (no runner is needed)."""
        first, second = "dblp.venue = 'VLDB'", "dblp.year >= 2010"
        basis = answer({1: BOTH}, _PREFERENCES, 1)
        preferences = [ScoredPreference(parse_predicate(second), 0.4),
                       ScoredPreference(parse_predicate(first), 0.9)]
        rebased, reason = basis.apply_profile(
            None, preferences, [CountCache.key(second), CountCache.key(first)],
            3)
        assert rebased is None and reason == FALLBACK_REORDERED

    # The edges of the diff.

    def test_a_complete_buffer_outgrows_its_depth(self, world):
        db, server = world
        _state(server, 5, ("dblp.venue = 'ICDE'", 0.9))
        _, basis = _read_exactly(server, db, 5)
        assert basis.complete and len(basis.buffer) < 3 * K
        _state(server, 5, ("dblp.year >= 1990", 0.3))
        _, entry = _read_exactly(server, db, 5)
        assert _repairs(server) == (1, {})
        assert not entry.complete and len(entry.buffer) == 3 * K

    def test_an_update_that_leaves_no_positive_preference(self, world):
        db, server = world
        _state(server, 6, ("dblp.venue = 'ICDE'", 0.9))
        _read_exactly(server, db, 6)
        _state(server, 6, ("dblp.venue = 'ICDE'", -0.9))
        result, _ = _read_exactly(server, db, 6)
        assert result.ranking == ()
        assert _repairs(server) == (0, {})
        assert 6 not in server.results._bases

    def test_a_restated_intensity_changes_its_key(self, world):
        db, server = world
        _state(server, 1, (SIGMOD, 0.5))  # 0.9 and 0.5 average to 0.7
        _read_exactly(server, db, 1)
        assert _repairs(server) == (1, {})
        assert server.results.profile_tuples_rescored == _size(db, SIGMOD)

    def test_two_updates_make_one_diff(self, world):
        db, server = world
        _state(server, 1, ("dblp.year = 2008", 0.7))
        _state(server, 1, ("dblp.year = 2001", 0.6))
        _read_exactly(server, db, 1)
        assert _repairs(server) == (1, {})
        assert server.results.profile_tuples_rescored == \
            _size(db, "dblp.year = 2008") + _size(db, "dblp.year = 2001")

    def test_an_empty_diff_keeps_the_basis_buffer(self, world):
        """A negative preference is not scored, so the list is unchanged."""
        db, server = world
        basis = server.results.peek(1, K)
        _state(server, 1, ("dblp.year = 1999", -0.5))
        _, entry = _read_exactly(server, db, 1)
        assert _repairs(server) == (1, {})
        assert server.results.profile_tuples_rescored == 0
        assert entry.buffer == basis.buffer

    def test_a_sweep_maintains_a_basis_and_counts_it_apart(self, world):
        """An insert between the update and the read reaches the basis;
        the sweep's report and entry counters describe served answers
        only."""
        db, server = world
        _state(server, 1, ("dblp.year = 2008", 0.7))
        repairs = server.results.repairs
        report = server.insert_tuples(
            [{"pid": 900, "venue": VENUES[1], "year": 2008, "aids": [1]}])
        assert server.results.basis_repairs == 1
        assert report.results_repaired == server.results.repairs - repairs
        _read_exactly(server, db, 1)
        assert _repairs(server) == (1, {})
        assert 900 in dict(server.results.peek(1, K).ranking)
