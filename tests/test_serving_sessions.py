"""Tests for the cold read's build path (staging tables -> PEPS, shared id
lists, nothing resident)."""

from __future__ import annotations

import pytest

from repro.core.preference import ProfileRegistry, UserProfile
from repro.exceptions import UnknownUserError
from repro.index import RowMatch
from repro.serving.sessions import SessionRegistry
from repro.sqldb.database import Database
from repro.workload.dblp import DblpConfig, generate_dblp
from repro.workload.loader import load_dataset, load_profiles

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


@pytest.fixture()
def registry(serving_db):
    """A registry over a world whose staging tables hold users 1-3."""
    profiles = ProfileRegistry()
    for uid in (1, 2, 3):
        profiles.add(make_profile(uid))
    load_profiles(serving_db, profiles)
    return SessionRegistry(serving_db)


class TestUserSession:
    """What a cold read builds: a PEPS over the persisted profile, used for
    one answer and not kept."""

    def test_session_serves_topk(self, registry):
        ranking, complete = registry.get_or_create(1).top_k_buffer(5)
        assert len(ranking) == 5 and not complete
        assert registry.stats()["sessions_built"] == 1

    def test_one_peps_instance_per_session(self, registry):
        """Every build is a fresh PEPS that holds no pair table; a data
        mutation prunes only the shared id lists it reads."""
        first = registry.get_or_create(1)
        first.top_k_buffer(5)
        row = {"pid": 9001, "title": "t", "venue": VENUES[1], "year": 2011,
               "abstract": "", "aid": 1}
        assert registry.invalidate_matching(RowMatch([row])) > 0
        assert registry.get_or_create(1) is not first
        assert first._pair_index is None


class TestSessionRegistryLRU:
    def test_evicted_user_rebuilds_through_loader(self, registry, serving_db):
        """Every read builds from the staging tables: an update persisted
        there is in the next build, and nothing is resident to hit."""
        before = registry.get_or_create(1).top_k_buffer(5)
        assert registry.get_or_create(1).top_k_buffer(5) == before
        update = UserProfile(uid=1)
        update.add_quantitative("dblp.venue = 'PODS'", 0.4)
        profiles = ProfileRegistry()
        profiles.add(update)
        load_profiles(serving_db, profiles)
        assert len(registry.get_or_create(1).preferences) == 3
        assert registry.stats() == {"hits": 0, "misses": 3, "evictions": 0,
                                    "sessions_built": 3}

    def test_unknown_user_without_loader_raises(self, registry):
        with pytest.raises(UnknownUserError):
            registry.get_or_create(99)
        assert registry.stats()["sessions_built"] == 0


class TestSharedIdLists:
    def test_sessions_share_one_id_list_memo(self, serving_db):
        shared = UserProfile(uid=1)
        shared.add_quantitative("dblp.year >= 2005", 0.5)
        shared_too = UserProfile(uid=2)
        shared_too.add_quantitative("dblp.year >= 2005", 0.8)
        profiles = ProfileRegistry()
        profiles.add(shared)
        profiles.add(shared_too)
        load_profiles(serving_db, profiles)
        registry = SessionRegistry(serving_db)
        registry.get_or_create(1).top_k_buffer(3)
        fetched = registry.runner.queries_executed
        registry.get_or_create(2).top_k_buffer(3)
        # User 2's only predicate was already fetched while serving user 1.
        assert registry.runner.queries_executed == fetched == 1
