"""Tests for the per-user session registry (LRU, shared id lists, rebuilds)."""

from __future__ import annotations

import pytest

from repro.core.preference import UserProfile
from repro.exceptions import ServingError
from repro.index import RowMatch
from repro.serving.sessions import SessionRegistry
from repro.sqldb.database import Database
from repro.workload.dblp import DblpConfig, generate_dblp
from repro.workload.loader import load_dataset

VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")


def make_profile(uid: int) -> UserProfile:
    profile = UserProfile(uid=uid)
    profile.add_quantitative(f"dblp.venue = '{VENUES[uid % len(VENUES)]}'", 0.9)
    profile.add_quantitative("dblp.year >= 2005", 0.5)
    return profile


@pytest.fixture()
def serving_db():
    db = Database(":memory:")
    load_dataset(db, generate_dblp(
        DblpConfig(n_papers=200, n_authors=60, n_venues=6, seed=7)))
    yield db
    db.close()


class TestUserSession:
    def test_session_serves_topk(self, serving_db):
        registry = SessionRegistry(serving_db, capacity=4)
        session = registry.get_or_create(1, make_profile(1))
        ranking, complete = session.top_k_buffer(5)
        assert len(ranking) == 5 and not complete
        assert session.queries_served == 1

    def test_profile_uid_mismatch_rejected(self, serving_db):
        registry = SessionRegistry(serving_db, capacity=4)
        with pytest.raises(ServingError):
            registry.get_or_create(1, make_profile(2))
        assert 1 not in registry

    def test_one_peps_instance_per_session(self, serving_db):
        """A session builds its PEPS once; a data mutation prunes the shared
        id lists it reads and leaves the instance — which holds no pair
        table — in place."""
        registry = SessionRegistry(serving_db, capacity=4)
        session = registry.get_or_create(1, make_profile(1))
        first = session.algorithm()
        session.top_k_buffer(5)
        row = {"pid": 9001, "title": "t", "venue": VENUES[1], "year": 2011,
               "abstract": "", "aid": 1}
        assert registry.invalidate_matching(RowMatch([row])) > 0
        assert session.algorithm() is first
        assert first._pair_index is None

    def test_resident_session_ignores_a_handed_in_profile(self, serving_db):
        """Sessions are snapshots: only a drop replaces one."""
        registry = SessionRegistry(serving_db, capacity=4)
        session = registry.get_or_create(1, make_profile(1))
        update = make_profile(1)
        update.add_quantitative("dblp.venue = 'PODS'", 0.4)
        assert registry.get_or_create(1, update) is session
        assert session.preference_count() == 2
        assert registry.drop_for_profile_update(1)
        assert registry.get_or_create(1, update).preference_count() == 3


class TestSessionRegistryLRU:
    def test_capacity_evicts_least_recently_used(self, serving_db):
        registry = SessionRegistry(serving_db, capacity=2)
        registry.get_or_create(1, make_profile(1))
        registry.get_or_create(2, make_profile(2))
        registry.get(1)  # touch: 2 becomes LRU
        registry.get_or_create(3, make_profile(3))
        assert 1 in registry and 3 in registry
        assert 2 not in registry
        assert registry.stats()["evictions"] == 1

    def test_drops_are_counted_by_reason(self, serving_db):
        registry = SessionRegistry(serving_db, capacity=1)
        registry.get_or_create(1, make_profile(1))
        registry.get_or_create(2, make_profile(2))      # LRU pressure
        assert registry.evict(2) and not registry.evict(2)
        registry.get_or_create(3, make_profile(3))
        assert registry.drop_for_profile_update(3)
        assert not registry.drop_for_profile_update(3)
        stats = registry.stats()
        assert (stats["evictions"], stats["profile_drops"]) == (2, 1)
        assert stats["resident"] == 0

    def test_evicted_user_rebuilds_through_loader(self, serving_db):
        profiles = {uid: make_profile(uid) for uid in (1, 2)}
        registry = SessionRegistry(serving_db, capacity=1,
                                   profile_loader=profiles.get)
        before = registry.get_or_create(1).top_k_buffer(5)
        registry.get_or_create(2)
        assert 1 not in registry
        rebuilt = registry.get_or_create(1)
        assert rebuilt.top_k_buffer(5) == before
        assert registry.stats()["sessions_built"] == 3

    def test_unknown_user_without_loader_raises(self, serving_db):
        registry = SessionRegistry(serving_db, capacity=2)
        with pytest.raises(ServingError):
            registry.get_or_create(99)

    def test_capacity_must_be_positive(self, serving_db):
        with pytest.raises(ServingError):
            SessionRegistry(serving_db, capacity=0)


class TestSharedIdLists:
    def test_sessions_share_one_id_list_memo(self, serving_db):
        registry = SessionRegistry(serving_db, capacity=4)
        shared = UserProfile(uid=1)
        shared.add_quantitative("dblp.year >= 2005", 0.5)
        shared_too = UserProfile(uid=2)
        shared_too.add_quantitative("dblp.year >= 2005", 0.8)
        registry.get_or_create(1, shared).top_k_buffer(3)
        fetched = registry.runner.queries_executed
        registry.get_or_create(2, shared_too).top_k_buffer(3)
        # User 2's only predicate was already fetched while serving user 1.
        assert registry.runner.queries_executed == fetched == 1
