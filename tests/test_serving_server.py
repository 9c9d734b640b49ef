"""End-to-end tests for the thread-safe Top-K serving engine."""

from __future__ import annotations

import sys
import threading
import time

import pytest
from worlds import start_and_join

from repro.algorithms.base import PreferenceQueryRunner
from repro.backend import BACKEND_NAMES, create_backend
from repro.core.predicate import Condition
from repro.core.preference import UserProfile
from repro.index import ConjunctIndex, CountCache
from repro.exceptions import (RelationalError, ServingError, TopKError,
                              UnknownUserError)
from repro.experiments.context import SCALES
from repro.loadgen import load_population
from repro.serving import TopKServer, fresh_top_k
from repro.sqldb.database import Database
from repro.telemetry import Span, Telemetry
from repro.workload import PreferenceExtractor
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import append_papers, load_dataset, load_profiles

VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")
#: Warm reads per thread of the counter-tearing stress test.
WARM_READS = 2000


def make_profile(uid: int) -> UserProfile:
    profile = UserProfile(uid=uid)
    profile.add_quantitative(f"dblp.venue = '{VENUES[uid % len(VENUES)]}'", 0.9)
    profile.add_quantitative(f"dblp.venue = '{VENUES[(uid + 2) % len(VENUES)]}'", 0.6)
    profile.add_quantitative("dblp.year >= 2008 AND dblp.year <= 2009", 0.5)
    return profile


@pytest.fixture()
def serving_db():
    db = Database(":memory:")
    load_dataset(db, generate_dblp(
        DblpConfig(n_papers=200, n_authors=60, n_venues=6, seed=7)))
    yield db
    db.close()


@pytest.fixture()
def server(serving_db):
    with TopKServer(serving_db) as engine:
        for uid in range(1, 5):
            engine.update_profile(uid, make_profile(uid))
        yield engine


class TestReads:
    def test_warm_request_is_zero_sql(self, server):
        cold = server.top_k(1, 5)
        warm = server.top_k(1, 5)
        assert not cold.cache_hit and cold.sql_statements > 0
        assert warm.cache_hit and warm.sql_statements == 0
        assert warm.ranking == cold.ranking

    def test_serves_match_fresh_recomputation(self, server):
        for uid in range(1, 5):
            served = server.top_k(uid, 5)
            assert list(served.ranking) == fresh_top_k(server.db, uid, 5)

    def test_unknown_user_raises(self, server):
        with pytest.raises(UnknownUserError):
            server.top_k(999, 5)

    def test_known_user_with_no_positive_preference_ranks_nothing(self,
                                                                   server):
        """A persisted profile holding only a dislike is a known user with
        an empty answer: served == fresh == empty, cached as a complete
        answer that depends on no predicate, so no sweep touches it and
        only a profile update replaces it."""
        dislike = UserProfile(uid=7)
        dislike.add_quantitative(f"dblp.venue = '{VENUES[0]}'", -0.5)
        server.update_profile(7, dislike)
        cold = server.top_k(7, 5)
        assert cold.ranking == () and not cold.cache_hit
        assert fresh_top_k(server.db, 7, 5) == []
        warm = server.top_k(7, 5)
        assert warm.cache_hit and warm.sql_statements == 0
        assert warm.ranking == ()
        entry = server.results.peek(7, 5)
        assert entry.complete and entry.conjuncts == ()
        server.insert_tuples([{"pid": 90_002, "title": "New",
                               "venue": VENUES[0], "year": 2009, "aids": [1]}])
        assert server.results.peek(7, 5) is entry

        like = UserProfile(uid=7)
        like.add_quantitative("dblp.year >= 2008", 0.7)
        server.update_profile(7, like)
        served = server.top_k(7, 5)
        assert not served.cache_hit and len(served.ranking) == 5
        assert list(served.ranking) == fresh_top_k(server.db, 7, 5)
        assert not any(".errors." in name for name in server.metrics())

    def test_a_smaller_k_is_a_prefix_a_larger_k_replaces(self, server):
        """A user has one cached answer: a smaller k is served its prefix
        warm, a larger k reads cold and replaces it with a deeper one."""
        server.top_k(1, 5)
        result = server.top_k(1, 3)
        assert result.cache_hit and result.k == 3
        assert list(result.ranking) == fresh_top_k(server.db, 1, 3)
        deeper = server.top_k(1, 8)
        assert not deeper.cache_hit
        assert list(deeper.ranking) == fresh_top_k(server.db, 1, 8)
        assert server.results.peek(1, 8).k == 8 and len(server.results) == 1
        assert server.top_k(1, 5).cache_hit

    def test_a_larger_k_builds_from_the_replaced_answers_outline(self,
                                                                 server):
        """The profile has not changed since the answer a larger k replaces
        was built, so its outline is exact: the read builds no graph, runs
        no statement (the id lists are memoised) and is counted as a
        profile extension by no row."""
        server.top_k(1, 5)
        sessions = server.sessions
        built, extended = sessions.sessions_built, sessions.profile_extensions
        deeper = server.top_k(1, 8)
        assert not deeper.cache_hit and deeper.sql_statements == 0
        assert sessions.sessions_built == built
        assert sessions.profile_extensions == extended + 1
        assert list(deeper.ranking) == fresh_top_k(server.db, 1, 8)

    def test_k_below_one_raises_for_every_user(self, server):
        """``k < 1`` is refused for a user with positive preferences and for
        one without alike: counted as an error, never a hit, and nothing is
        taken or cached."""
        dislike = UserProfile(uid=10001)
        dislike.add_quantitative("dblp.venue = 'VLDB'", -0.5)
        server.update_profile(10001, dislike)
        server.top_k(1, 5)
        server.update_profile(2, make_profile(2))
        server.top_k(2, 5)
        server.update_profile(2, make_profile(2))  # leaves a basis
        hits = server.results.hits
        for uid in (10001, 1, 2):
            for k in (0, -2):
                with pytest.raises(TopKError):
                    server.top_k(uid, k)
        assert server.results.hits == hits
        assert server.metrics()[
            "serving.server.errors.top_k.top_k_error"] == 6
        assert server.results.cached_users() == [1]
        assert 2 in server.results._bases
        assert server.top_k(10001, 5).ranking == ()


def read_in_order(depths):
    """A fresh world of mined users and a population, every user read at
    each k of ``depths`` in turn, then one delete of a pid many answers
    rank: the work counters the user's one answer leaves behind."""
    dataset = generate_dblp(
        DblpConfig(n_papers=200, n_authors=60, n_venues=6, seed=7))
    db = Database(":memory:")
    load_dataset(db, dataset)
    load_population(db, 6)
    load_profiles(db, PreferenceExtractor(dataset).extract_all())
    with TopKServer(db) as server:
        uids = sorted(profile.uid for profile in db.read_profiles())
        for uid in uids:
            for k in depths:
                served = server.top_k(uid, k)
                assert served.k == k and len(served.ranking) <= k
        results = server.results
        counters = {
            "answers": len(results), "users": len(uids),
            "bases": results.stats()["bases.entries"],
            "holders": sum(map(len, results._factors.values())),
            "pid_index": sum(map(len, results._pids.values()))}
        deltas = results.deltas_applied
        report = server.delete_tuples([server.top_k(uids[0], 1).ranking[0][0]])
        # The answers the delete visited: each repaired or dropped.
        counters["affected"] = (report.results_repaired
                                + report.results_invalidated)
        counters["deltas_applied"] = results.deltas_applied - deltas
    db.close()
    return counters


def test_one_answer_per_user_whatever_order_k_was_read_in():
    """Reading every user at k = 1 … 20 ascending or descending leaves the
    stores exactly as reading k = 20 alone: one answer per user, no
    basis, the same key holders and pid index, and the same delete work."""
    deepest = read_in_order([20])
    # ``holders`` counts (conjunct key, uid) pairs of the result cache.
    assert deepest == {"answers": 62, "users": 62, "bases": 0,
                       "holders": 1156, "pid_index": 3613,
                       "affected": 58, "deltas_applied": 39}
    assert read_in_order(range(1, 21)) == deepest
    assert read_in_order(range(20, 0, -1)) == deepest


def count_moves(monkeypatch, results):
    """The conjunct keys ``results`` writes holders under from now on, and
    the keys each store adds to / removes from the shared conjunct index.

    Every holder map present now records its writes; a key created or
    deleted is recorded by the outer map (a new key's fresh holder map is
    plain: its first write is the creation)."""
    written = []

    class Holders(dict):
        def __init__(self, key, holders):
            super().__init__(holders)
            self.key = key

        def __setitem__(self, uid, factor):
            written.append(self.key)
            super().__setitem__(uid, factor)

        def __delitem__(self, uid):
            written.append(self.key)
            super().__delitem__(uid)

    class Keys(dict):
        def __setitem__(self, key, holders):
            written.append(key)
            super().__setitem__(key, holders)

        def __delitem__(self, key):
            written.append(key)
            super().__delitem__(key)

    results._factors = Keys({key: Holders(key, holders)
                             for key, holders in results._factors.items()})
    indexed = {"add": [], "remove": []}
    for name, seen in indexed.items():
        def counted(index, key, _original=getattr(ConjunctIndex, name),
                    _seen=seen):
            _seen.append(key)
            return _original(index, key)
        monkeypatch.setattr(ConjunctIndex, name, counted)
    return written, indexed


def test_a_post_update_read_moves_only_the_changed_key(server, monkeypatch):
    """Work gate, by counting: the read after a profile update that adds one
    preference writes exactly that key's holders — the basis hands every
    other holding to the new answer as it is — and the key enters the
    shared index once per store (the memo's new id list, the answer).  A
    read at a larger k scores with the same list, so it moves no key."""
    server.top_k(1, 5)
    update = UserProfile(uid=1)
    update.add_quantitative("dblp.year = 2008", 0.7)
    server.update_profile(1, update)
    results = server.results
    written, indexed = count_moves(monkeypatch, results)
    added = CountCache.key("dblp.year = 2008")
    served = server.top_k(1, 5)
    assert results.profile_repairs == 1
    assert set(written) == {added} and 1 in results._factors[added]
    assert indexed == {"add": [added, added], "remove": []}

    written.clear()
    indexed["add"].clear()
    deeper = server.top_k(1, 8)
    assert not deeper.cache_hit
    assert written == [] and indexed == {"add": [], "remove": []}
    # (The oracle's own runner adds to an index of its own.)
    assert list(served.ranking) == fresh_top_k(server.db, 1, 5)
    assert list(deeper.ranking) == fresh_top_k(server.db, 1, 8)


class CountingLock:
    """A lock wrapper that counts acquisitions, however they are made."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class YieldingLock(CountingLock):
    """Gives the interpreter away before each acquisition, widening any
    window between two reads of a live counter around it."""

    def acquire(self, *args, **kwargs):
        time.sleep(0)
        return super().acquire(*args, **kwargs)


class TestWarmHit:
    """A warm hit is one lock-free result-cache lookup plus one immutable
    record."""

    READS = 50

    def test_untraced_hit_takes_no_lock_and_opens_no_span(self, server,
                                                          monkeypatch):
        server.top_k(1, 5)
        locks = {"result-cache": (server.results, "_lock"),
                 "server": (server, "_lock"),
                 "stats": (server, "_stats_lock")}
        for name, (owner, attribute) in locks.items():
            counting = CountingLock(getattr(owner, attribute))
            monkeypatch.setattr(owner, attribute, counting)
            locks[name] = counting
        opened = []
        init = Span.__init__

        def counting_init(span, *args, **kwargs):
            opened.append(args)
            init(span, *args, **kwargs)
        monkeypatch.setattr(Span, "__init__", counting_init)
        for _ in range(self.READS):
            assert server.top_k(1, 5).cache_hit
        assert {name: lock.acquisitions for name, lock in locks.items()} == {
            "result-cache": 0, "server": 0, "stats": 0}
        assert opened == []

    def test_serve_result_is_an_immutable_tuple(self, server):
        result = server.top_k(1, 5)
        assert isinstance(result, tuple)
        with pytest.raises(AttributeError):
            result.cache_hit = True
        assert result.as_dict() == {
            "uid": 1, "k": 5, "ranking": [list(entry) for entry in result.ranking],
            "cache_hit": False, "sql_statements": result.sql_statements,
            "seconds": result.seconds}

    def test_traced_hit_records_one_childless_root(self, server):
        telemetry = Telemetry()
        telemetry.observe(server)
        server.top_k(1, 5)
        telemetry.traces.clear()
        for _ in range(self.READS):
            assert server.top_k(1, 5).cache_hit
        records = telemetry.traces.snapshot()
        assert len(records) == self.READS
        for record in records:
            assert record.name == "server.top_k"
            assert record.children == ()
            assert record.annotations == (("uid", 1), ("cache_hit", True))
        # The adopted histogram still records every read, cold one included.
        latency = telemetry.registry.histogram("serving.server.read_latency")
        assert latency.count == self.READS + 1


class TestProfileUpdates:
    def test_update_invalidates_only_that_user(self, server):
        server.top_k(1, 5)
        server.top_k(2, 5)
        update = UserProfile(uid=1)
        update.add_quantitative("dblp.venue = 'PODS'", 0.8)
        report = server.update_profile(1, update)
        assert report.results_invalidated >= 1
        assert server.results.peek(1, 5) is None
        assert server.results.peek(2, 5) is not None

    def test_served_result_fresh_after_update(self, server):
        server.top_k(1, 5)
        update = UserProfile(uid=1)
        update.add_quantitative("dblp.venue = 'PODS'", 0.95)
        server.update_profile(1, update)
        served = server.top_k(1, 5)
        assert not served.cache_hit
        assert list(served.ranking) == fresh_top_k(server.db, 1, 5)

    def test_a_smaller_read_after_an_update_keeps_the_basis_k(self, server):
        """The read after a profile update repairs the basis's buffer (24
        deep for k = 8) and puts the answer at the basis's k, not only the
        smaller k read: a later read at the basis's k is a warm hit."""
        server.top_k(1, 8)
        update = UserProfile(uid=1)
        update.add_quantitative("dblp.venue = 'PODS'", 0.8)
        server.update_profile(1, update)
        small = server.top_k(1, 2)
        assert not small.cache_hit and server.results.profile_repairs == 1
        assert list(small.ranking) == fresh_top_k(server.db, 1, 2)
        built = server.sessions.sessions_built
        deep = server.top_k(1, 8)
        assert deep.cache_hit and deep.sql_statements == 0
        assert server.sessions.sessions_built == built
        assert list(deep.ranking) == fresh_top_k(server.db, 1, 8)

    def test_update_for_evicted_user_invalidates_cache(self, server):
        """No session is resident, so every user is in the state an eviction
        used to leave: only the cached answer remembers the old profile,
        and the update drops it (and only it) — the next read is fresh."""
        server.top_k(1, 5)
        server.top_k(2, 5)
        update = UserProfile(uid=1)
        update.add_quantitative("dblp.venue = 'PODS'", 0.8)
        report = server.update_profile(1, update)
        assert report.results_invalidated == 1
        assert server.results.peek(1, 5) is None
        assert server.results.peek(2, 5) is not None
        served = server.top_k(1, 5)
        assert not served.cache_hit
        assert list(served.ranking) == fresh_top_k(server.db, 1, 5)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_exponent_form_literal_survives_the_round_trip(self, backend):
        """Regression: ``to_sql`` renders a float >= 1e16 as ``1e+16``, which
        the parser could not read back — the update persisted the row and
        then raised, and every later rebuild for that user raised too."""
        db = create_backend(backend)
        load_dataset(db, generate_dblp(
            DblpConfig(n_papers=200, n_authors=60, n_venues=6, seed=7)))
        with TopKServer(db) as server:
            server.update_profile(1, make_profile(1))
            update = UserProfile(uid=1)
            update.add_quantitative(Condition("dblp.year", "<", 1e16), 0.8)
            server.update_profile(1, update)
            assert list(server.top_k(1, 5).ranking) == fresh_top_k(db, 1, 5)
            server.insert_tuples(
                [{"pid": 90_001, "title": "New", "venue": VENUES[1],
                  "year": 2009, "aids": [1]}])
            assert list(server.top_k(1, 5).ranking) == fresh_top_k(db, 1, 5)
        db.close()

    def test_uid_mismatch_rejected(self, server):
        with pytest.raises(ServingError):
            server.update_profile(1, make_profile(2))


class TestDataInserts:
    def test_a_float_literal_matches_the_text_sqlite_renders(self):
        """Regression: SQLite compares a TEXT venue with a REAL literal as
        the text it converts the REAL to — 15 significant digits on 3.40,
        so ``dblp.venue = 0.30000000000000004`` matches an inserted
        ``'0.3'``.  The sweep judged the row by the literal's ``repr``,
        called it unmatched and kept serving an answer without it."""
        db = Database(":memory:")
        load_dataset(db, generate_dblp(SCALES["tiny"]))
        profile = UserProfile(uid=1)
        profile.add_quantitative("dblp.venue = 0.30000000000000004", 0.9)
        profile.add_quantitative("dblp.year >= 0", 0.1)
        with TopKServer(db) as server:
            server.update_profile(1, profile)
            assert list(server.top_k(1, 3).ranking) == fresh_top_k(db, 1, 3)
            server.insert_tuples([{"pid": 301, "title": "Float",
                                   "venue": "0.3", "year": 2009,
                                   "aids": [1]}])
            served = server.top_k(1, 3)
            assert served.cache_hit
            assert list(served.ranking) == fresh_top_k(db, 1, 3)
        db.close()

    def test_a_sweep_drops_the_runners_stale_counts(self, server):
        """Regression: serving counts nothing, yet a count memoised through
        the serving runner outlived an insert its row matches."""
        runner = server.sessions.runner
        vldb = Condition("dblp.venue", "=", "VLDB")
        before = runner.count(vldb)
        server.insert_tuples([{"pid": 90_003, "title": "New",
                               "venue": "VLDB", "year": 2009, "aids": [1]}])
        assert runner.count(vldb) == before + 1 == \
            PreferenceQueryRunner(server.db).count(vldb)

    def test_failed_insert_commits_nothing_now_or_later(self, server):
        """A write that fails mid-transaction rolls back: the paper row its
        first statement wrote is gone, no transaction stays open, and the
        next write commits only its own rows."""
        db = server.db
        with pytest.raises(RelationalError):
            server.insert_tuples([Paper(9001, "Half", VENUES[0], 2009)],
                                 paper_authors=[(9001,)])
        assert not db.connection.in_transaction
        assert 9001 not in db.paper_ids()
        assert server.metrics()[
            "serving.server.forgets.insert_tuples.before_sweep"] == 1
        server.insert_tuples([Paper(9002, "Whole", VENUES[0], 2009)],
                             paper_authors=[(9002, 1)])
        assert 9001 not in db.paper_ids() and 9002 in db.paper_ids()
        for uid in range(1, 5):
            served = server.top_k(uid, 5).ranking
            assert list(served) == fresh_top_k(db, uid, 5)

    def test_sweep_that_raises_partway_forgets_every_cache(self, server,
                                                            monkeypatch):
        """A sweep that repaired the cached answers and then raised before
        pruning the id-list memo leaves a half-maintained state: the server
        forgets both stores, counts the fault ``in_sweep`` and then serves
        exactly."""
        for uid in range(1, 5):
            server.top_k(uid, 5)

        def prune(match):
            raise RuntimeError("sweep fault")
        monkeypatch.setattr(server.sessions, "invalidate_matching", prune)
        with pytest.raises(RuntimeError):
            server.insert_tuples([Paper(9003, "Mid", VENUES[1], 2008)],
                                 paper_authors=[(9003, 1)])
        monkeypatch.undo()
        metrics = server.metrics()
        assert metrics["serving.server.forgets.insert_tuples.in_sweep"] == 1
        assert "serving.server.forgets.insert_tuples.before_sweep" \
            not in metrics
        assert len(server.results) == 0
        assert server.sessions.runner._ids_cache == {}
        assert 9003 in server.db.paper_ids()
        for uid in range(1, 5):
            assert list(server.top_k(uid, 5).ranking) == \
                fresh_top_k(server.db, uid, 5)

    def test_sweep_that_raises_on_a_direct_loader_call_forgets(self, server,
                                                                monkeypatch):
        """The server sweeps a direct loader call's mutation too, so a sweep
        that raises on one leaves both stores half maintained just as a
        door's would: the listener forgets them, counted as
        ``direct.in_sweep``, and every later read — at a cached ``k`` or a
        new one — is exact."""
        for uid in range(1, 5):
            server.top_k(uid, 5)

        def prune(*args):
            raise RuntimeError("sweep fault")
        monkeypatch.setattr(server.sessions, "invalidate_matching", prune)
        with pytest.raises(RuntimeError, match="sweep fault"):
            append_papers(server.db, [Paper(9003, "Mid", VENUES[1], 2008)],
                          [(9003, 1)])
        monkeypatch.undo()
        forgets = {name: value for name, value in server.metrics().items()
                   if name.startswith("serving.server.forgets.")}
        assert forgets == {"serving.server.forgets.direct.in_sweep": 1}
        assert len(server.results) == 0
        assert server.sessions.runner._ids_cache == {}
        for uid in range(1, 5):
            for k in (5, 6):
                assert list(server.top_k(uid, k).ranking) == \
                    fresh_top_k(server.db, uid, k)

    def test_patch_that_raises_partway_forgets_every_cache(self, server):
        """A memo patch that raises right after rewriting its first id list
        leaves the lists after it unpatched: the server forgets both
        stores, counts the fault ``in_sweep`` and then serves exactly."""
        for uid in range(1, 5):
            server.top_k(uid, 5)
        runner = server.sessions.runner
        rewritten = []

        class RaisingMemo(dict):
            def __setitem__(self, key, ids):
                super().__setitem__(key, ids)
                rewritten.append(key)
                raise RuntimeError("patch fault")
        runner._ids_cache = RaisingMemo(runner._ids_cache)
        with pytest.raises(RuntimeError, match="patch fault"):
            server.insert_tuples([Paper(9004, "Mid", VENUES[1], 2008)],
                                 paper_authors=[(9004, 1)])
        assert len(rewritten) == 1 and runner._ids_cache == {}
        runner._ids_cache = {}
        metrics = server.metrics()
        assert metrics["serving.server.forgets.insert_tuples.in_sweep"] == 1
        assert len(server.results) == 0
        for uid in range(1, 5):
            assert list(server.top_k(uid, 5).ranking) == \
                fresh_top_k(server.db, uid, 5)

    def test_insert_invalidates_selectively_and_stays_exact(self, server):
        for uid in range(1, 5):
            server.top_k(uid, 5)
        cached_before = len(server.results)
        # A 1996 SIGMOD paper: outside every user's year band, and SIGMOD is
        # liked only by user 1 under the venue rotation — so exactly one of
        # the four cached answers may change, and that one is *repaired* in
        # place (zero SQL) rather than dropped.
        report = server.insert_tuples(
            [Paper(pid=9001, title="New", venue="SIGMOD", year=1996)],
            paper_authors=[(9001, 1)])
        assert (report.results_invalidated + report.results_repaired
                + report.results_spared) == cached_before
        assert report.results_repaired == 1
        assert report.results_invalidated == 0
        assert report.results_spared > 0
        # Every user's served answer equals a fresh recomputation, whether
        # their cache entry was invalidated or spared.
        for uid in range(1, 5):
            assert list(server.top_k(uid, 5).ranking) == fresh_top_k(server.db, uid, 5)

    def test_mapping_rows_with_aids_accepted(self, server):
        report = server.insert_tuples(
            [{"pid": 9002, "venue": "ICDE", "year": 2009, "title": "M",
              "aids": [1, 2]}])
        assert report.papers == 1
        assert report.joined_rows == 2
        assert server.db.scalar(
            "SELECT COUNT(*) FROM dblp_author WHERE pid = 9002") == 2

    def test_replacing_paper_invalidates_via_old_values(self, server):
        """A REPLACE that moves a paper *out* of a user's venue must not
        leave that user's cached answer serving the old membership: the
        notification carries the replaced row's pre-image, so predicates
        matching the old values invalidate too."""
        venue = VENUES[1 % len(VENUES)]  # user 1's 0.9-intensity venue
        pid = server.db.scalar(
            "SELECT dblp.pid FROM dblp JOIN dblp_author"
            " ON dblp.pid = dblp_author.pid WHERE venue = ?"
            " ORDER BY dblp.pid LIMIT 1", (venue,))
        server.top_k(1, 5)
        # Move that paper to a venue nobody prefers, far outside every band.
        server.insert_tuples(
            [Paper(pid=int(pid), title="Moved", venue="NOWHERE", year=1990)])
        served = server.top_k(1, 5)
        assert list(served.ranking) == fresh_top_k(server.db, 1, 5)

    def test_new_matching_paper_enters_ranking(self, server):
        server.top_k(1, 5)
        venue = VENUES[1 % len(VENUES)]  # user 1's 0.9-intensity venue
        report = server.insert_tuples(
            [Paper(pid=9003, title="Hot", venue=venue, year=2013)],
            paper_authors=[(9003, 1)])
        assert report.results_repaired + report.results_invalidated >= 1
        served = server.top_k(1, 200)
        assert 9003 in {pid for pid, _ in served.ranking}


class TestDataDeletes:
    def test_delete_invalidates_selectively_and_stays_exact(self, server):
        # A 1996 SIGMOD paper affects only user 1 under the venue rotation.
        server.insert_tuples(
            [Paper(pid=9100, title="Doomed", venue="SIGMOD", year=1996)],
            paper_authors=[(9100, 1)])
        for uid in range(1, 5):
            server.top_k(uid, 5)
        cached_before = len(server.results)
        report = server.delete_tuples([9100])
        assert report.papers == 1
        assert (report.results_invalidated + report.results_repaired
                + report.results_spared) == cached_before
        assert report.results_repaired == 1
        assert report.results_spared > 0
        # The affected answer is repaired in place, not dropped — and the
        # repaired view already equals a fresh recomputation.
        repaired = server.results.peek(1, 5)
        assert repaired is not None
        assert list(repaired.ranking) == fresh_top_k(server.db, 1, 5)
        for uid in range(1, 5):
            assert list(server.top_k(uid, 5).ranking) == fresh_top_k(server.db, uid, 5)

    def test_deleted_tuple_leaves_the_ranking(self, server):
        venue = VENUES[1 % len(VENUES)]  # user 1's 0.9-intensity venue
        server.insert_tuples(
            [Paper(pid=9101, title="Transient", venue=venue, year=2013)],
            paper_authors=[(9101, 1)])
        served = server.top_k(1, 200)
        assert 9101 in {pid for pid, _ in served.ranking}
        report = server.delete_tuples([9101])
        assert report.results_repaired + report.results_invalidated >= 1
        served = server.top_k(1, 200)
        assert 9101 not in {pid for pid, _ in served.ranking}
        assert list(served.ranking) == fresh_top_k(server.db, 1, 200)

    def test_delete_of_irrelevant_paper_spares_everything(self, server):
        server.insert_tuples(
            [Paper(pid=9102, title="Nobody", venue="NOWHERE", year=1971)],
            paper_authors=[(9102, 1)])
        for uid in range(1, 5):
            server.top_k(uid, 5)
        cached_before = len(server.results)
        report = server.delete_tuples([9102])
        assert report.results_invalidated == 0
        assert report.results_spared == cached_before

    def test_unknown_pid_is_a_noop(self, server):
        server.top_k(1, 5)
        report = server.delete_tuples([999_999])
        assert report.results_invalidated == 0
        # The no-op never notifies, yet the report must still account for
        # the cached answers that survived.
        assert report.results_spared == len(server.results) == 1
        assert server.results.peek(1, 5) is not None


class TestDataUpdates:
    def test_update_invalidates_via_both_images(self, server):
        # SIGMOD → PVLDB: the pre-image matches user 1's venue preference,
        # the post-image user 2's; users 3 and 4 are provably unaffected.
        server.insert_tuples(
            [Paper(pid=9200, title="Mobile", venue="SIGMOD", year=1996)],
            paper_authors=[(9200, 1)])
        for uid in range(1, 5):
            server.top_k(uid, 5)
        report = server.update_tuples(
            [Paper(pid=9200, title="Mobile", venue="PVLDB", year=1996)])
        assert report.papers == 1
        # Pre-image matches user 1, post-image user 2 — both answers are
        # repaired in place with zero SQL; users 3 and 4 are spared without
        # even touching their entries.
        assert report.results_repaired == 2
        assert report.results_spared == 2
        for uid in (1, 2):
            repaired = server.results.peek(uid, 5)
            assert repaired is not None
            assert list(repaired.ranking) == fresh_top_k(server.db, uid, 5)
        assert server.results.peek(3, 5) is not None
        assert server.results.peek(4, 5) is not None
        for uid in range(1, 5):
            assert list(server.top_k(uid, 5).ranking) == fresh_top_k(server.db, uid, 5)

    def test_updated_tuple_moves_between_rankings(self, server):
        first = VENUES[1 % len(VENUES)]   # user 1's hot venue
        second = VENUES[2 % len(VENUES)]  # user 2's hot venue
        server.insert_tuples(
            [Paper(pid=9201, title="Nomad", venue=first, year=2013)],
            paper_authors=[(9201, 1)])
        assert 9201 in {pid for pid, _ in server.top_k(1, 200).ranking}
        server.update_tuples(
            [Paper(pid=9201, title="Nomad", venue=second, year=2013)])
        assert 9201 not in {pid for pid, _ in server.top_k(1, 200).ranking}
        assert 9201 in {pid for pid, _ in server.top_k(2, 200).ranking}
        for uid in (1, 2):
            assert (list(server.top_k(uid, 200).ranking)
                    == fresh_top_k(server.db, uid, 200))

    def test_update_of_unknown_pid_raises(self, server):
        from repro.exceptions import WorkloadError
        with pytest.raises(WorkloadError, match="unknown papers"):
            server.update_tuples(
                [Paper(pid=888_888, title="Ghost", venue="VLDB", year=2000)])

    def test_mutation_counters_in_metrics(self, server):
        server.insert_tuples(
            [Paper(pid=9202, title="Counted", venue="VLDB", year=2001)],
            paper_authors=[(9202, 1)])
        server.update_tuples(
            [Paper(pid=9202, title="Counted", venue="ICDE", year=2001)])
        server.delete_tuples([9202])
        metrics = server.metrics()
        assert metrics["serving.server.inserts"] == 1
        assert metrics["serving.server.tuple_updates"] == 1
        assert metrics["serving.server.deletes"] == 1


class TestThreadSafety:
    def test_concurrent_reads_and_updates(self, server):
        errors = []
        expected = {uid: fresh_top_k(server.db, uid, 5) for uid in range(1, 5)}

        def hammer(uid: int) -> None:
            try:
                for _ in range(15):
                    served = server.top_k(uid, 5)
                    if list(served.ranking) != expected[uid]:
                        raise AssertionError(f"diverged for uid={uid}")
            except Exception as exc:  # pragma: no cover - failure signal
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(uid,))
                   for uid in range(1, 5) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_read_counters_never_tear(self, server):
        """``reads`` / ``read_hits`` derive from the result cache's live
        ``hits``.  Every snapshot taken beside two warm readers and a
        thread doing cold reads and mutations keeps ``read_hits <= reads``
        and never rewinds either; at the end each equals what the
        completed ``top_k`` calls say."""
        server.top_k(1, 5)
        server.top_k(2, 5)
        server._stats_lock = YieldingLock(server._stats_lock)
        before = server.metrics()
        served = []  # (reads, hits) per reading thread
        torn = []
        errors = []

        def reading(body):
            def run():
                try:
                    served.append(body())
                except Exception as exc:  # pragma: no cover - failure signal
                    errors.append(exc)
            return run

        churned = threading.Event()

        def warm(uid):
            reads = hits = 0
            while reads < WARM_READS or not churned.is_set():
                hits += server.top_k(uid, 5).cache_hit
                reads += 1
            return reads, hits

        def churn():
            pid = server.db.max_paper_id()
            reads = hits = 0
            try:
                for step in range(15):
                    server.update_profile(3, make_profile(3))
                    hits += server.top_k(3, 5).cache_hit
                    reads += 1
                    pid += 1
                    server.insert_tuples([Paper(
                        pid=pid, title="", venue=VENUES[step % len(VENUES)],
                        year=2008, abstract="")])
            finally:
                churned.set()
            return reads, hits

        workers = [threading.Thread(target=reading(lambda: warm(1))),
                   threading.Thread(target=reading(lambda: warm(2))),
                   threading.Thread(target=reading(churn))]

        def watch():
            last = (0, 0)
            running = True
            while running:
                running = any(worker.is_alive() for worker in workers)
                metrics = server.metrics()
                now = (metrics["serving.server.reads"],
                       metrics["serving.server.read_hits"])
                if now[1] > now[0] or now[0] < last[0] or now[1] < last[1]:
                    torn.append((last, now))
                last = now

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            start_and_join(workers + [threading.Thread(target=watch)])
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not torn, (errors, torn[:3])
        after = server.metrics()
        assert after["serving.server.reads"] == server.reads == (
            before["serving.server.reads"] + sum(r for r, _ in served))
        assert after["serving.server.read_hits"] == server.read_hits == (
            before["serving.server.read_hits"] + sum(h for _, h in served))

    def test_warm_read_counters_are_exact_under_threads(self, server):
        """A warm hit counts itself lock-free: four threads of 5 000 warm
        reads each raise ``serving.results.hits`` and
        ``serving.server.read_hits`` by exactly 20 000, and every snapshot
        taken meanwhile keeps ``read_hits <= reads``."""
        threads, reads_each = 4, 5000
        for uid in range(1, threads + 1):
            server.top_k(uid, 5)
        before = server.metrics()
        torn = []
        errors = []

        def warm(uid):
            try:
                for _ in range(reads_each):
                    if not server.top_k(uid, 5).cache_hit:
                        raise AssertionError(f"uid={uid} missed")
            except Exception as exc:  # pragma: no cover - failure signal
                errors.append(exc)

        workers = [threading.Thread(target=warm, args=(uid,))
                   for uid in range(1, threads + 1)]

        def watch():
            running = True
            while running:
                running = any(worker.is_alive() for worker in workers)
                metrics = server.metrics()
                if metrics["serving.server.read_hits"] > \
                        metrics["serving.server.reads"]:
                    torn.append(metrics)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            start_and_join(workers + [threading.Thread(target=watch)])
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not torn, (errors, torn[:1])
        after = server.metrics()
        for name in ("serving.results.hits", "serving.server.read_hits",
                     "serving.server.reads"):
            assert after[name] - before[name] == threads * reads_each, name
        assert after["serving.results.misses"] == \
            before["serving.results.misses"]

    def test_metrics_snapshot_shape(self, server):
        locked_before = server.metrics()["serving.server.stripe_acquisitions"]
        server.top_k(1, 5)
        server.top_k(1, 5)
        metrics = server.metrics()
        assert metrics["serving.server.reads"] == 2
        assert metrics["serving.server.read_hits"] == 1
        assert {name.rsplit(".", 1)[0] for name in metrics} == {
            "serving.server", "serving.sessions", "serving.results",
            "serving.sessions.profile_extension_fallbacks",
            "serving.result_cache", "serving.result_cache.bases",
            "serving.result_cache.profile_repair_fallbacks",
            "index.count_cache", f"backend.{server.db.backend_name}"}
        # One lock acquisition for the cold read, none for the warm hit.
        assert (metrics["serving.server.stripe_acquisitions"]
                - locked_before) == 1
