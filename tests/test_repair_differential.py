"""Differential property tests for the repair path ("repair, don't recompute").

The repair machinery maintains cached Top-K answers in place under data
mutations; its oracle is a from-scratch recomputation.  This module drives
the equivalence adversarially:

* **Random mutation sequences** (hypothesis): arbitrary interleavings of
  inserts, deletes and in-place updates against a live ``TopKServer``, on
  *both* storage backends, asserting after every mutation that every served
  answer equals ``fresh_top_k`` and that repairs ran zero SQL.
* **Unit-level ``apply_delta`` coverage**: floor handling on truncated
  buffers, complete-buffer growth, tie ordering, and each mandatory
  fallback (unscorable rows, buffer underflow, repair disabled).
* **Forced fallbacks end to end**: a zero-margin buffer (``repair_delta=0``)
  underflows on the first ranked delete and must invalidate, never guess.
* **The repair-vs-epoch race**: a repair sweep is an epoch-bumping sweep,
  so stale puts still lose, and no sweep ever resurrects an entry that an
  invalidation dropped.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import TopKServer, UserProfile, fresh_top_k, parse_predicate
from repro.core.intensity import combine_and
from repro.backend import create_backend
from repro.index import RowMatch
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
from repro.workload import DblpConfig, Paper, generate_dblp, load_dataset

BACKENDS = ("sqlite", "memory")
VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")
DBLP = DblpConfig(n_papers=60, n_authors=24, n_venues=6, seed=11)
USERS = (1, 2, 3)
K = 4


def _build_server(backend, repair_delta=None):
    db = create_backend(backend, path=":memory:")
    load_dataset(db, generate_dblp(DBLP))
    server = TopKServer(db, capacity=8, repair_delta=repair_delta)
    for uid in USERS:
        profile = UserProfile(uid=uid)
        profile.add_quantitative(f"dblp.venue = '{VENUES[uid]}'", 0.9)
        profile.add_quantitative("dblp.year >= 2005", 0.4)
        server.update_profile(uid, profile)
        server.top_k(uid, K)
    return db, server


# -- random mutation sequences (hypothesis) -----------------------------------

#: Abstract op seeds; deletes/updates resolve their pid against the live
#: population at apply time (modular indexing keeps every seed applicable).
_ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(VENUES) - 1),
              st.integers(1995, 2015), st.integers(1, DBLP.n_authors)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("update"), st.integers(0, 10_000),
              st.integers(0, len(VENUES) - 1), st.integers(1995, 2015)),
)


def _apply(server, live, next_pid, op):
    kind = op[0]
    if kind == "insert":
        _, venue_index, year, aid = op
        pid = next_pid
        report = server.insert_tuples(
            [Paper(pid=pid, title=f"P{pid}", venue=VENUES[venue_index],
                   year=year)],
            paper_authors=[(pid, aid)])
        live.add(pid)
        return report, next_pid + 1
    pool = sorted(live)
    if not pool:
        return None, next_pid
    pid = pool[op[1] % len(pool)]
    if kind == "delete":
        report = server.delete_tuples([pid])
        live.discard(pid)
    else:
        _, _, venue_index, year = op
        report = server.update_tuples(
            [Paper(pid=pid, title=f"P{pid}", venue=VENUES[venue_index],
                   year=year)])
    return report, next_pid


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_ops, min_size=1, max_size=10))
def test_random_mutation_sequences_stay_exact(backend, ops):
    """After every mutation of a random sequence, on either backend, every
    served answer equals a from-scratch recomputation, repairs run zero SQL
    and the impact accounting covers every previously cached entry."""
    db, server = _build_server(backend)
    try:
        live = {row["pid"] for row in db.joined_rows()}
        next_pid = 9000
        for op in ops:
            cached_before = len(server.results)
            report, next_pid = _apply(server, live, next_pid, op)
            if report is None:
                continue
            assert report.repair_sql_statements == 0
            assert (report.results_invalidated + report.results_repaired
                    + report.results_spared) == cached_before
            for uid in USERS:
                served = server.top_k(uid, K)
                assert list(served.ranking) == fresh_top_k(db, uid, K), (
                    f"{backend}: divergence after {op!r} for uid={uid}")
    finally:
        server.close()
        db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_fixed_mutation_mix_actually_repairs(backend):
    """A deterministic mutation mix exercises the repair path for real —
    most affected answers are maintained in place, none incorrectly."""
    db, server = _build_server(backend)
    try:
        for step, venue in enumerate(("SIGMOD", "PVLDB", "ICDE", "SIGMOD")):
            pid = 9100 + step
            server.insert_tuples(
                [Paper(pid=pid, title=f"R{pid}", venue=venue, year=2012)],
                paper_authors=[(pid, 1 + step)])
        server.update_tuples(
            [Paper(pid=9100, title="R9100", venue="PVLDB", year=2013)])
        server.delete_tuples([9101, 9102])
        stats = server.results.stats()
        assert stats["repairs"] > 0
        assert stats["repairs"] >= stats["repair_fallbacks"]
        for uid in USERS:
            assert list(server.top_k(uid, K).ranking) == fresh_top_k(db, uid, K)
    finally:
        server.close()
        db.close()


# -- forced fallbacks end to end ----------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_forced_underflow_falls_back_to_invalidation(backend):
    """With a zero over-fetch margin the buffer is exactly k deep; deleting a
    ranked tuple spends margin that does not exist, so the repair must
    refuse and the entry must be dropped — then recompute exactly."""
    db, server = _build_server(backend, repair_delta=0)
    try:
        served = server.top_k(1, K)
        victim = served.ranking[0][0]
        before = server.results.repair_underflows
        report = server.delete_tuples([victim])
        assert server.results.repair_underflows == before + 1
        assert report.results_invalidated >= 1
        assert server.results.peek(1, K) is None
        assert list(server.top_k(1, K).ranking) == fresh_top_k(db, 1, K)
    finally:
        server.close()
        db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_repair_delta_disables_repair(backend):
    """``repair_delta < 0`` is the invalidate-and-recompute baseline: every
    affected answer is dropped, never repaired, and answers stay exact."""
    db, server = _build_server(backend, repair_delta=-1)
    try:
        assert not server.results.repair_enabled
        report = server.insert_tuples(
            [Paper(pid=9300, title="B", venue=VENUES[1], year=2012)],
            paper_authors=[(9300, 1)])
        assert report.results_repaired == 0
        assert report.results_invalidated >= 1
        assert server.results.repairs == 0
        for uid in USERS:
            assert list(server.top_k(uid, K).ranking) == fresh_top_k(db, uid, K)
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


def _entry(buffer, k=2, complete=False):
    predicates = tuple(parse_predicate(sql) for sql in _PREDS)
    return CachedResult(uid=1, k=k, ranking=tuple(buffer[:k]),
                        predicates=predicates, intensities=_INTENS,
                        buffer=tuple(buffer), complete=complete,
                        depth=len(buffer))


def _insert(*rows):
    return DataMutation(TUPLES_INSERTED, "dblp", rows=list(rows),
                        old_rows=[], pids=sorted({r["pid"] for r in rows}))


def _delete(*rows):
    return DataMutation(TUPLES_DELETED, "dblp", rows=[],
                        old_rows=list(rows),
                        pids=sorted({r["pid"] for r in rows}))


def _update(old, new):
    return DataMutation(TUPLES_UPDATED, "dblp", rows=[new], old_rows=[old],
                        pids=[new["pid"]])


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
        mutation = DataMutation(TUPLES_INSERTED, "dblp", rows=[partial],
                                old_rows=[], pids=[9])
        repaired, reason = entry.apply_delta(mutation)
        assert repaired is None and reason == FALLBACK_UNSCORABLE

    def test_plain_entry_without_buffer_is_not_maintainable(self):
        predicates = (parse_predicate(_PREDS[0]),)
        entry = CachedResult(uid=1, k=1, ranking=((1, 0.9),),
                             predicates=predicates)
        assert not entry.maintainable
        repaired, _ = entry.apply_delta(_insert(_row(10)))
        assert repaired is None

    def test_is_affected_iff_a_row_may_match_a_predicate(self):
        entry = _entry([(1, BOTH)])
        rows = [_row(5), _row(6, venue="ICDE", year=1999), _row(7, year=2011)]
        assert entry.is_affected(RowMatch(rows))
        assert not entry.is_affected(RowMatch([rows[1]]))


# -- the repair-vs-epoch race -------------------------------------------------

class TestRepairEpochGuard:
    def _cache_with_entry(self):
        cache = ResultCache()
        predicates = tuple(parse_predicate(sql) for sql in _PREDS)
        cache.put(1, 1, ((7, BOTH),), predicates, intensities=_INTENS,
                  buffer=((7, BOTH),), complete=True)
        return cache, predicates

    def test_repair_sweep_bumps_epoch_and_rejects_stale_put(self):
        cache, predicates = self._cache_with_entry()
        snapshot = cache.epoch
        dropped = cache.on_data_mutation(
            _update(_row(7, year=1999), _row(7, year=2014)))
        assert dropped == 0 and cache.repairs == 1  # repaired, not dropped
        # An answer computed from pre-mutation data must still lose the race.
        assert cache.put(1, 1, ((7, BOTH),), predicates,
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
        cache, predicates = self._cache_with_entry()
        mutation = _update(_row(7, year=1999), _row(7, year=2014))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                cache.put(1, 1, ((7, BOTH),), predicates,
                          intensities=_INTENS, buffer=((7, BOTH),),
                          complete=True)
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
