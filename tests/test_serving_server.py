"""End-to-end tests for the thread-safe Top-K serving engine."""

from __future__ import annotations

import threading

import pytest

from repro.backend import BACKEND_NAMES, create_backend
from repro.core.predicate import Condition
from repro.core.preference import UserProfile
from repro.exceptions import RelationalError, ServingError, UnknownUserError
from repro.serving import TopKServer, fresh_top_k
from repro.sqldb.database import Database
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import load_dataset

VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")


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

    def test_different_k_is_a_different_entry(self, server):
        server.top_k(1, 5)
        result = server.top_k(1, 3)
        assert not result.cache_hit
        assert len(result.ranking) == 3


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
        assert server.metrics()["serving.server.forgets.insert_tuples"] == 1
        server.insert_tuples([Paper(9002, "Whole", VENUES[0], 2009)],
                             paper_authors=[(9002, 1)])
        assert 9001 not in db.paper_ids() and 9002 in db.paper_ids()
        for uid in range(1, 5):
            served = server.top_k(uid, 5).ranking
            assert list(served) == fresh_top_k(db, uid, 5)

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
        assert report.repair_sql_statements == 0
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
        assert report.repair_sql_statements == 0
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
        assert report.repair_sql_statements == 0
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

    def test_metrics_snapshot_shape(self, server):
        locked_before = server.metrics()["serving.server.stripe_acquisitions"]
        server.top_k(1, 5)
        server.top_k(1, 5)
        metrics = server.metrics()
        assert metrics["serving.server.reads"] == 2
        assert metrics["serving.server.read_hits"] == 1
        assert {name.rsplit(".", 1)[0] for name in metrics} == {
            "serving.server", "serving.sessions", "serving.results",
            "serving.result_cache", "index.count_cache",
            f"backend.{server.db.backend_name}"}
        # One lock acquisition for the cold read, none for the warm hit.
        assert (metrics["serving.server.stripe_acquisitions"]
                - locked_before) == 1
