"""Whole-system lockstep differential: the SQLite engine vs MemoryBackend.

PR 3 pinned the in-memory predicate evaluator against SQLite row by row
(``test_predicate_sqlite_differential.py``); this module turns that into a
whole-system guarantee.  Two identical worlds — one per backend — replay the
identical deterministic schedule covering the full mutation mix (Top-K
reads, profile updates, tuple inserts, deletes and in-place updates), and
after **every operation** the two engines must agree on:

* every Top-K ranking *and* whether it was a cache hit,
* every mutation's invalidation report (results invalidated/spared, index
  entries dropped, joined rows carried),
* raw counts and id lists for the live predicate population,
* the joined view itself.

The replay driver's cross-backend arm (``verify_cluster_equivalence`` with
``server_backend="memory"``) additionally closes the loop three ways:
SQLite cluster == memory single server == fresh recomputation.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    READ,
    UPDATE,
    OpMix,
    ReplayConfig,
    ReplayDriver,
    TopKServer,
    apply_op,
)
from repro.workload.dblp import DblpConfig

#: Small world, every operation kind present, heavy mutation mix.
DBLP = DblpConfig(n_papers=160, n_authors=70, n_venues=8, seed=13)
REPLAY = ReplayConfig(users=14, requests=120, k=4, seed=29,
                      mix=OpMix(read_weight=6.0, update_weight=1.0,
                                insert_weight=1.0, delete_weight=0.8,
                                data_update_weight=0.8))


def _normalised_rows(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


class _Arm:
    """One backend's server plus the bookkeeping the lockstep compares."""

    def __init__(self, driver, backend):
        self.backend = backend
        self.db = driver.build_world(DBLP, backend=backend)
        self.server = TopKServer(self.db, capacity=6)

    def apply(self, op):
        """Run one replay op; return the comparable outcome record."""
        report = apply_op(self.server, op)
        if op.kind == READ:
            return (READ, op.uid, report.cache_hit, tuple(report.ranking))
        if op.kind == UPDATE:
            return (UPDATE, op.uid, report.resident,
                    report.results_invalidated)
        return (op.kind, report.papers, report.joined_rows,
                report.results_invalidated, report.results_spared,
                report.index_entries_dropped)

    def close(self):
        self.server.close()
        self.db.close()


@pytest.fixture(scope="module")
def lockstep_outcomes():
    """Replay both arms in lockstep once; yield the per-op outcome streams."""
    driver = ReplayDriver(REPLAY)
    arms = [_Arm(driver, "sqlite"), _Arm(driver, "memory")]
    ops = driver.schedule(arms[0].db)
    outcomes = []
    spot_predicates = [
        "dblp.year >= 2000", "dblp.venue = 'VLDB'",
        "dblp.venue IN ('VLDB', 'SIGMOD') AND dblp.year >= 2001",
        "dblp.year >= 1998 AND dblp.year <= 2003",
    ]
    try:
        for op in ops:
            step = [arm.apply(op) for arm in arms]
            counts = [arm.db.count_many(spot_predicates) for arm in arms]
            outcomes.append((op.kind, step, counts))
        views = [_normalised_rows(arm.db.joined_rows()) for arm in arms]
        ids = [[arm.db.matching_paper_ids(predicate)
                for predicate in spot_predicates] for arm in arms]
        stats = [arm.server.metrics() for arm in arms]
        yield {"ops": ops, "outcomes": outcomes, "views": views,
               "ids": ids, "stats": stats}
    finally:
        for arm in arms:
            arm.close()


class TestLockstepDifferential:
    def test_full_mutation_mix_present(self, lockstep_outcomes):
        kinds = {op.kind for op in lockstep_outcomes["ops"]}
        assert kinds == {"read", "update", "insert", "delete", "data_update"}

    def test_every_operation_outcome_identical(self, lockstep_outcomes):
        """Rankings, cache hits and mutation reports agree after every op."""
        for position, (kind, step, _) in enumerate(lockstep_outcomes["outcomes"]):
            sqlite_outcome, memory_outcome = step
            assert sqlite_outcome == memory_outcome, (
                f"op {position} ({kind}): sqlite={sqlite_outcome!r} "
                f"memory={memory_outcome!r}")

    def test_counts_identical_after_every_operation(self, lockstep_outcomes):
        for position, (kind, _, counts) in enumerate(lockstep_outcomes["outcomes"]):
            assert counts[0] == counts[1], f"op {position} ({kind}): {counts}"

    def test_final_joined_views_identical(self, lockstep_outcomes):
        sqlite_view, memory_view = lockstep_outcomes["views"]
        assert sqlite_view == memory_view

    def test_final_id_lists_identical(self, lockstep_outcomes):
        sqlite_ids, memory_ids = lockstep_outcomes["ids"]
        assert sqlite_ids == memory_ids

    def test_serving_counters_identical(self, lockstep_outcomes):
        """Same requests, same warm hits, same per-kind mutation counters."""
        sqlite_stats, memory_stats = (
            {name: value for name, value in stats.items()
             if name.startswith("serving.")}
            for stats in lockstep_outcomes["stats"])
        assert sqlite_stats == memory_stats


class TestReplayDriverVerified:
    def test_memory_backend_replay_verifies_against_fresh(self):
        """The after-every-mutation oracle sweep passes on the memory engine."""
        driver = ReplayDriver(ReplayConfig(
            users=8, requests=50, k=4, seed=31,
            mix=OpMix(delete_weight=0.8, data_update_weight=0.8)))
        db = driver.build_world(DBLP, backend="memory")
        server = TopKServer(db, capacity=4)
        try:
            report = driver.run(server, driver.schedule(db), verify=True)
            assert report.verified_results > 0
        finally:
            server.close()
            db.close()


class TestCrossBackendClusterEquivalence:
    """Satellite: the three-way verifier's cross-backend arm."""

    def test_sqlite_cluster_vs_memory_server_vs_fresh(self):
        driver = ReplayDriver(ReplayConfig(
            users=10, requests=60, k=4, seed=37,
            mix=OpMix(delete_weight=0.6, data_update_weight=0.6)))
        checked = driver.verify_cluster_equivalence(
            DBLP, shards=2, capacity=4, server_backend="memory")
        assert checked > 0

    def test_cross_backend_arm_matches_same_backend_arm(self):
        """The cross-backend sweep checks exactly as many answers as the
        single-backend sweep over the same schedule."""
        driver = ReplayDriver(ReplayConfig(users=8, requests=40, k=3, seed=41))
        same = driver.verify_cluster_equivalence(DBLP, shards=2, capacity=4)
        cross = driver.verify_cluster_equivalence(DBLP, shards=2, capacity=4,
                                                  server_backend="memory")
        assert same == cross > 0
