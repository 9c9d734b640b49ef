"""A cold read builds from the staged rows: ``profile_rows`` → ``build_rows``.

The serving cold read reads one user's staged rows as plain tuples and runs
Algorithm 1 over them in one pass.  This module holds that path to:

* **bit-identity** — a sha256 over ``(sql, intensity.hex())`` of every mined
  user's preference list at the default scale, captured on the commit
  before the row path, and the row path equal to the profile path
  (``read_profiles`` → ``build_profile``) for every user on both engines;
* **work, not wall-clock** — a serving cold read makes no preference or
  profile object, parses each staged text once and reads the profile in
  two statements.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.core.predicate as predicate_module
from repro import PreferenceExtractor, TopKServer, create_backend, generate_dblp
from repro.algorithms.base import preferences_from_graph
from repro.core.hypre import HypreGraphBuilder
from repro.core.preference import QualitativePreference, QuantitativePreference, UserProfile
from repro.exceptions import UnknownUserError
from repro.experiments.context import SCALES
from repro.workload import load_dataset, load_profiles, profile_rows, read_profiles
from worlds import count_calls, graph_signature

BACKENDS = ("sqlite", "memory")

#: sha256 over ``uid|sql|intensity.hex()`` of ``preferences_from_graph`` for
#: all 489 mined users of ``SCALES["default"]``, in uid order, captured on
#: the commit before cold reads built from the staged rows.  It moves only
#: when a preference, its intensity or its rank moves.
PARENT_PREFERENCE_DIGEST = (
    "169c946e4874cb10185c7aff5ae6d8f04e5f72269f937ea97777f146217d7cc4")


@pytest.fixture(scope="module")
def mined():
    dataset = generate_dblp(SCALES["default"])
    return dataset, PreferenceExtractor(dataset).extract_all()


@pytest.fixture(scope="module", params=BACKENDS)
def world(request, mined):
    dataset, registry = mined
    db = create_backend(request.param)
    load_dataset(db, dataset)
    load_profiles(db, registry)
    yield db, registry
    db.close()


def row_build(db, uid):
    builder = HypreGraphBuilder()
    report = builder.build_rows(uid, *profile_rows(db, uid))
    return builder.hypre, report


def profile_build(db, uid):
    builder = HypreGraphBuilder()
    report = builder.build_profile(read_profiles(db, [uid]).get(uid))
    return builder.hypre, report


def test_row_path_preference_lists_match_the_parent_digest(world):
    db, registry = world
    digest = hashlib.sha256()
    uids = sorted(profile.uid for profile in registry)
    assert len(uids) == 489
    for uid in uids:
        hypre, _ = row_build(db, uid)
        for pref in preferences_from_graph(hypre, uid):
            digest.update(f"{uid}|{pref.sql}|{pref.intensity.hex()}\n".encode())
    assert digest.hexdigest() == PARENT_PREFERENCE_DIGEST


def test_row_path_equals_profile_path_for_every_user(world):
    db, registry = world
    for profile in registry:
        uid = profile.uid
        rows_graph, rows_report = row_build(db, uid)
        profile_graph, profile_report = profile_build(db, uid)
        assert (graph_signature(rows_graph, rows_report, uid)
                == graph_signature(profile_graph, profile_report, uid)), uid
        assert ([(pref.sql, pref.intensity.hex())
                 for pref in preferences_from_graph(rows_graph, uid)]
                == [(pref.sql, pref.intensity.hex())
                    for pref in preferences_from_graph(profile_graph, uid)]), uid


def test_both_engines_stage_identical_rows(mined):
    dataset, registry = mined
    engines = []
    for name in BACKENDS:
        db = create_backend(name)
        load_dataset(db, dataset)
        load_profiles(db, registry)
        engines.append(db)
    try:
        for profile in registry:
            sqlite_rows, memory_rows = (profile_rows(db, profile.uid)
                                        for db in engines)
            assert sqlite_rows == memory_rows, profile.uid
            assert (len(sqlite_rows[0]), len(sqlite_rows[1])) == (
                len(profile.quantitative), len(profile.qualitative))
    finally:
        for db in engines:
            db.close()


# -- work counters of one serving cold read -----------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cold_read_builds_from_rows_alone(monkeypatch, backend):
    """No preference or profile object, one parse per staged predicate
    text, and a two-statement profile read; the served answer's statements
    are those two plus one per id list fetched.  The read is a second cold
    read on a fresh server: the first one filled the process-wide memo of
    conjunct shapes the answer's store keys by, which parses each distinct
    conjunct once per process."""
    dataset = generate_dblp(SCALES["tiny"])
    registry = PreferenceExtractor(dataset).extract_all()
    db = create_backend(backend)
    load_dataset(db, dataset)
    load_profiles(db, registry)
    uid = max(registry, key=lambda profile: (len(profile.qualitative),
                                              len(profile))).uid
    quantitative, qualitative = profile_rows(db, uid)
    assert qualitative
    with TopKServer(db) as first:
        expected = first.top_k(uid, 10).ranking
    engine = type(db)
    read_statements = []
    read_rows = engine.profile_rows

    def profile_read(self, owner):
        before = self.statements_executed
        try:
            return read_rows(self, owner)
        finally:
            read_statements.append(self.statements_executed - before)

    monkeypatch.setattr(engine, "profile_rows", profile_read)
    made = [count_calls(monkeypatch, QuantitativePreference, "__post_init__"),
            count_calls(monkeypatch, QualitativePreference, "__post_init__"),
            count_calls(monkeypatch, UserProfile, "__init__")]
    parses = count_calls(monkeypatch, predicate_module, "parse_predicate")
    builds = count_calls(monkeypatch, HypreGraphBuilder, "build_rows")
    try:
        with TopKServer(db) as server:
            result = server.top_k(uid, 10)
            fetched = server.sessions.runner.queries_executed
            assert not result.cache_hit and result.ranking == expected
            assert made == [[], [], []]
            assert len(parses) == len(quantitative) + 2 * len(qualitative)
            assert read_statements == [2] and len(builds) == 1
            assert result.sql_statements == 2 + fetched

            with pytest.raises(UnknownUserError):
                server.top_k(10**9, 10)
            assert read_statements == [2, 2]
    finally:
        db.close()
