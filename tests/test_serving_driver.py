"""A serial replay: the one-worker run of the one runner.

Its schedule is ``build_streams(db, 1, ...)[0]``, the one stream that owns
the whole relation; the run is ``LoadGenerator`` with one thread and an op
budget, on a server or on the uncached arm, optionally auditing inline
after every op.
"""

from __future__ import annotations

import json
from itertools import islice

import pytest

from repro.exceptions import ServingError
from repro.loadgen import LoadConfig, LoadGenerator, build_world, population
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    READ,
    UPDATE,
    OpMix,
    TopKServer,
    Uncached,
    build_streams,
)
from repro.workload.dblp import DblpConfig

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
USERS, REQUESTS, K, SEED = 10, 60, 4, 3


@pytest.fixture()
def db():
    world = build_world(DBLP, USERS)
    yield world
    world.close()


def schedule(db):
    (stream,) = build_streams(db, 1, OpMix(), population(USERS), K, SEED)
    return list(islice(stream, REQUESTS))


def replay(target, audit_interval=None):
    return LoadGenerator(LoadConfig(
        threads=1, requests=REQUESTS, k=K, seed=SEED,
        audit_interval=audit_interval)).run(target)


class TestSchedule:
    def test_deterministic_across_identical_worlds(self, db):
        other = build_world(DBLP, USERS)
        try:
            assert schedule(db) == schedule(other)
        finally:
            other.close()

    def test_contains_every_op_kind(self, db):
        kinds = {op.kind for op in schedule(db)}
        assert kinds == {READ, UPDATE, INSERT, DELETE, DATA_UPDATE}

    def test_zipf_skew_concentrates_reads(self, db):
        ops = schedule(db)
        reads = [op.uid for op in ops if op.kind == READ]
        hottest = max(reads.count(uid) for uid in set(reads))
        # The hottest user dominates a uniform share by construction.
        assert hottest > len(ops) / USERS

    def test_rejects_degenerate_config(self):
        with pytest.raises(ServingError):
            build_world(DBLP, 0)


class TestReplay:
    def test_equivalence_after_every_mutation(self, db):
        """Every answer the server keeps materialised equals a from-scratch
        recomputation after every single op of the replay."""
        with TopKServer(db) as server:
            report = replay(server, audit_interval=0)
        assert report.clean, report.audit
        assert report.audit["comparisons"] > 0
        assert report.ops == REQUESTS
        # The full update spectrum is exercised, not just inserts.
        assert all(report.kind_counts[kind] > 0 for kind in
                   (INSERT, UPDATE, DELETE, DATA_UPDATE))

    def test_inline_audit_flags_a_divergence(self, db):
        """A materialised answer that no longer equals a fresh recomputation
        fails the inline audit."""
        with TopKServer(db) as server:
            stale = population(USERS)[0]
            server.top_k(stale, K)
            entry = server.results.peek(stale, K)
            # Corrupt the materialised ranking behind the cache's back.
            object.__setattr__(entry, "ranking", ((999_999, 1.0),))
            report = replay(server, audit_interval=0)
        assert not report.clean
        assert report.audit["mismatches"] > 0

    def test_serving_beats_baseline_and_hits_are_free(self, db):
        baseline_db = build_world(DBLP, USERS)
        try:
            with TopKServer(db) as server:
                serving = replay(server)
            baseline = replay(Uncached(baseline_db))
            # An uncached arm materialises nothing to audit.
            with pytest.raises(ServingError, match="audit_interval=None"):
                replay(Uncached(baseline_db), audit_interval=0)
        finally:
            baseline_db.close()
        assert serving.read_hits > 0
        assert serving.server_stats["serving.results.hits"] == \
            serving.read_hits
        assert serving.sql_statements < baseline.sql_statements
        assert baseline.read_hits == 0 and baseline.server_stats == {}
        assert baseline.locks == []

    def test_report_as_dict_roundtrips_to_json(self, db):
        with TopKServer(db) as server:
            payload = json.loads(json.dumps(replay(server).as_dict()))
        assert payload["threads"] == 1
        assert payload["ops"] == REQUESTS
