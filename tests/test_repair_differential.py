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
"""

from __future__ import annotations

import threading

import pytest

import repro.index.selectivity as selectivity
from repro import TopKServer, UserProfile, fresh_top_k
from repro.core.intensity import combine_and
from repro.backend import create_backend
from repro.index import CountCache, RowMatch
from repro.serving.results import (
    FALLBACK_UNDERFLOW,
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
        (distinct predicate, row) tests, however many entries repair."""
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
        assert (cache.entries_visited, cache.repairs) == (3, 3)
        for uid in range(3):
            assert cache.peek(uid, 2).buffer == ((1, BOTH), (2, BOTH))
        assert len(calls) == match.predicate_row_tests == 2 * len(_PREDS)

    def test_sweep_affects_iff_a_row_may_match_a_predicate(self):
        rows = [_row(5), _row(6, venue="ICDE", year=1999), _row(7, year=2011)]

        def visited(*rows):
            cache = ResultCache()
            cache.put(1, 1, [(1, BOTH)], False, _CONJUNCTS, _INTENS)
            cache.on_data_mutation(_insert(*rows))
            affected = cache.repairs + cache.repair_fallbacks
            assert cache.entries_visited == affected
            return affected

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
