"""Differential property tests for the repair path ("repair, don't recompute").

The repair machinery maintains cached Top-K answers in place under data
mutations; its oracle is a from-scratch recomputation, and random mutation
sequences against a live server are the state machine's
(``test_server_machine.py``: after every step every answer equals
``fresh_top_k`` and every repair ran zero SQL).  This module holds the
unit-level rules:

* **Unit-level ``apply_delta`` coverage**: floor handling on truncated
  buffers, complete-buffer growth, tie ordering, scoring from the sweep's
  ``RowMatch`` verdicts, and each mandatory fallback (unscorable rows,
  buffer underflow).
* **Forced fallbacks end to end**: deleting more ranked tuples than the
  ``2k`` over-fetch margin holds underflows the buffer, which must
  invalidate, never guess.
* **The repair-vs-epoch race**: a repair sweep is an epoch-bumping sweep,
  so stale puts still lose, and no sweep ever resurrects an entry that an
  invalidation dropped.
* **Profile repairs**: the read after a profile update rescores the basis
  the update left (``CachedResult.apply_profile``), checked bit for bit
  against ``fresh_top_k`` — one case per fallback reason, and the edges of
  the diff: a complete buffer that outgrows its depth, no positive
  preference left, a restated intensity, two updates in one diff, an empty
  diff, and a basis a sweep maintained.
"""

from __future__ import annotations

import threading

import pytest

import repro.index.selectivity as selectivity
from repro import TopKServer, UserProfile, fresh_top_k
from repro.algorithms.base import ScoredPreference
from repro.core.intensity import combine_and
from repro.core.predicate import parse_predicate
from repro.backend import create_backend
from repro.index import CountCache, RowMatch
from repro.serving.results import (
    FALLBACK_EMPTY,
    FALLBACK_REORDERED,
    FALLBACK_UNDERFLOW,
    FALLBACK_UNMEMOISED,
    FALLBACK_UNSCORABLE,
    REPAIRED,
    CachedResult,
    ResultCache,
)
from repro.sqldb.events import (
    TUPLES_DELETED,
    TUPLES_INSERTED,
    TUPLES_UPDATED,
    DataMutation,
)
from repro.workload import DblpConfig, generate_dblp, load_dataset

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


# -- apply_delta unit coverage ------------------------------------------------

#: Two predicates so matched subsets score distinctly: venue-only 0.9,
#: year-only 0.4, both combine_and -> 0.94.
_PREDS = ("dblp.venue = 'VLDB'", "dblp.year >= 2010")
_INTENS = (0.9, 0.4)


def _row(pid, venue="VLDB", year=2012, **overrides):
    row = {"pid": pid, "title": "T", "venue": venue, "year": year,
           "abstract": "", "aid": 1}
    row.update(overrides)
    return row


_CONJUNCTS = tuple(CountCache.key(sql) for sql in _PREDS)


def _entry(buffer, k=2, complete=False):
    return CachedResult(uid=1, k=k, ranking=tuple(buffer[:k]),
                        conjuncts=_CONJUNCTS, intensities=_INTENS,
                        buffer=tuple(buffer), complete=complete,
                        depth=len(buffer))


def _insert(*rows):
    """The match a sweep builds for inserting ``rows``."""
    return RowMatch.of(DataMutation(
        TUPLES_INSERTED, "dblp", rows=list(rows), old_rows=[],
        pids=sorted({r["pid"] for r in rows})))


def _delete(*rows):
    return RowMatch.of(DataMutation(
        TUPLES_DELETED, "dblp", rows=[], old_rows=list(rows),
        pids=sorted({r["pid"] for r in rows})))


def _update(old, new):
    return RowMatch.of(DataMutation(TUPLES_UPDATED, "dblp", rows=[new],
                                    old_rows=[old], pids=[new["pid"]]))


BOTH = combine_and([0.9, 0.4])  # bit-exact: repairs fold in index order
VENUE_ONLY = 0.9


class TestApplyDelta:
    def test_insert_above_floor_enters_truncated_buffer(self):
        entry = _entry([(1, BOTH), (2, VENUE_ONLY), (3, VENUE_ONLY)])
        repaired, reason = entry.apply_delta(_insert(_row(10)))
        assert reason == REPAIRED
        # Score ties pid 1; pid order breaks the tie; depth trim holds.
        assert repaired.buffer == ((1, BOTH), (10, BOTH), (2, VENUE_ONLY))
        assert repaired.ranking == ((1, BOTH), (10, BOTH))
        assert repaired.depth == 3 and not repaired.complete

    def test_insert_below_floor_of_truncated_buffer_is_a_noop(self):
        entry = _entry([(1, BOTH), (2, BOTH), (3, VENUE_ONLY)])
        repaired, reason = entry.apply_delta(
            _insert(_row(10, year=1999)))  # venue-only: ties the floor
        assert reason == REPAIRED
        assert repaired is entry  # provably irrelevant: below the floor

    def test_complete_buffer_grows_without_floor_or_trim(self):
        entry = _entry([(1, BOTH)], complete=True)
        repaired, reason = entry.apply_delta(
            _insert(_row(10, year=1999)))  # would be below any floor
        assert reason == REPAIRED
        assert repaired.buffer == ((1, BOTH), (10, VENUE_ONLY))
        assert repaired.complete

    def test_delete_from_complete_buffer_may_shrink_below_k(self):
        entry = _entry([(1, BOTH), (2, VENUE_ONLY)], complete=True)
        repaired, reason = entry.apply_delta(_delete(_row(2)))
        assert reason == REPAIRED
        assert repaired.buffer == ((1, BOTH),)
        assert repaired.ranking == ((1, BOTH),)

    def test_update_rescores_in_place(self):
        entry = _entry([(1, BOTH), (2, VENUE_ONLY)], complete=True)
        repaired, reason = entry.apply_delta(
            _update(_row(2, year=1999), _row(2, year=2014)))
        assert reason == REPAIRED
        assert repaired.buffer == ((1, BOTH), (2, BOTH))

    def test_tie_orders_by_pid_ascending(self):
        entry = _entry([(2, VENUE_ONLY), (3, VENUE_ONLY)], complete=True)
        repaired, _ = entry.apply_delta(_insert(_row(1, year=1999)))
        assert repaired.buffer == (
            (1, VENUE_ONLY), (2, VENUE_ONLY), (3, VENUE_ONLY))

    def test_an_updated_floor_pid_at_or_above_the_old_floor_stays(self):
        """The floor is the buffer's as it was before the change: a floor
        pid rescored to its own score, or above it, still belongs."""
        entry = _entry([(1, BOTH), (2, VENUE_ONLY), (3, VENUE_ONLY)])
        repaired, reason = entry.apply_delta(
            _update(_row(3, year=1999), _row(3, year=1998)))
        assert reason == REPAIRED and repaired is entry
        repaired, reason = entry.apply_delta(
            _update(_row(3, year=1999), _row(3, year=2014)))
        assert reason == REPAIRED
        assert repaired.buffer == ((1, BOTH), (3, BOTH), (2, VENUE_ONLY))

    def test_a_floor_pid_rescored_below_the_old_floor_or_deleted_leaves(
            self):
        """Below the old floor an unseen tuple may outrank it, so it leaves
        the truncated buffer, as a deleted floor pid does."""
        entry = _entry([(1, BOTH), (2, VENUE_ONLY), (3, VENUE_ONLY)])
        left = ((1, BOTH), (2, VENUE_ONLY))
        repaired, reason = entry.apply_delta(
            _update(_row(3, year=1999), _row(3, venue="ICDE", year=2014)))
        assert reason == REPAIRED and repaired.buffer == left
        repaired, reason = entry.apply_delta(_delete(_row(3, year=1999)))
        assert reason == REPAIRED and repaired.buffer == left
        assert repaired.ranking == left and not repaired.complete

    def test_truncated_underflow_forces_fallback(self):
        entry = _entry([(1, BOTH), (2, VENUE_ONLY)])
        repaired, reason = entry.apply_delta(_delete(_row(1)))
        assert repaired is None and reason == FALLBACK_UNDERFLOW

    def test_unscorable_row_forces_fallback(self):
        entry = _entry([(1, BOTH), (2, VENUE_ONLY)], complete=True)
        partial = {"pid": 9, "venue": "VLDB"}  # no year: verdict undecidable
        repaired, reason = entry.apply_delta(_insert(partial))
        assert repaired is None and reason == FALLBACK_UNSCORABLE

    def test_undecidable_row_is_outvoted_by_a_surely_matching_one(self):
        """A predicate one of the tuple's rows surely matches counts, even
        when another of its rows cannot decide it."""
        entry = _entry([(1, BOTH), (2, VENUE_ONLY)], complete=True)
        partial = {"pid": 9, "venue": "VLDB", "aid": 1}  # no year
        repaired, reason = entry.apply_delta(_insert(partial, _row(9, aid=2)))
        assert reason == REPAIRED
        assert repaired.buffer == ((1, BOTH), (9, BOTH), (2, VENUE_ONLY))

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
            cache.put(uid, 2, [(1, BOTH), (2, VENUE_ONLY)], True, _CONJUNCTS,
                      _INTENS)
        assert cache.on_data_mutation(match)["results_invalidated"] == 0
        assert (cache.repairs, cache.data_invalidations) == (3, 0)
        for uid in range(3):
            assert cache.peek(uid, 2).buffer == ((1, BOTH), (2, BOTH))
        assert len(calls) == match.predicate_row_tests == 2 * 1

    def test_sweep_affects_iff_a_row_may_match_a_predicate(self):
        rows = [_row(5), _row(6, venue="ICDE", year=1999), _row(7, year=2011)]

        def visited(*rows):
            cache = ResultCache()
            cache.put(1, 1, [(1, BOTH)], False, _CONJUNCTS, _INTENS)
            cache.on_data_mutation(_insert(*rows))
            return cache.repairs + cache.data_invalidations

        assert visited(*rows) == 1
        assert visited(rows[1]) == 0


# -- the repair-vs-epoch race -------------------------------------------------

class TestRepairEpochGuard:
    def _cache_with_entry(self):
        cache = ResultCache()
        cache.put(1, 1, ((7, BOTH),), True, _CONJUNCTS, _INTENS)
        return cache, _CONJUNCTS

    def test_repair_sweep_bumps_epoch_and_rejects_stale_put(self):
        cache, conjuncts = self._cache_with_entry()
        snapshot = cache.epoch
        impact = cache.on_data_mutation(
            _update(_row(7, year=1999), _row(7, year=2014)))
        assert impact["results_invalidated"] == 0  # repaired, not dropped
        assert impact["results_repaired"] == cache.repairs == 1
        # An answer computed from pre-mutation data must still lose the race.
        assert cache.put(1, 1, ((7, BOTH),), True, conjuncts, _INTENS,
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
                cache.put(1, 1, ((7, BOTH),), True, conjuncts, _INTENS)
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
        basis = _entry([(1, BOTH)], k=1, complete=True)
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
