"""Tests for the deterministic multi-user replay driver."""

from __future__ import annotations

import pytest

from repro.exceptions import ServingError
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MUTATION_KINDS,
    READ,
    UPDATE,
    Op,
    ReplayConfig,
    ReplayDriver,
    TopKServer,
)
from repro.workload.dblp import DblpConfig

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
CONFIG = ReplayConfig(users=10, requests=60, k=4, seed=3)


@pytest.fixture(scope="module")
def driver():
    return ReplayDriver(CONFIG)


class TestSchedule:
    def test_deterministic_across_identical_worlds(self, driver):
        first_db = driver.build_world(DBLP)
        second_db = driver.build_world(DBLP)
        try:
            assert driver.schedule(first_db) == driver.schedule(second_db)
        finally:
            first_db.close()
            second_db.close()

    def test_contains_every_op_kind(self, driver):
        db = driver.build_world(DBLP)
        try:
            kinds = {op.kind for op in driver.schedule(db)}
        finally:
            db.close()
        assert kinds == {READ, UPDATE, INSERT, DELETE, DATA_UPDATE}

    def test_zipf_skew_concentrates_reads(self, driver):
        db = driver.build_world(DBLP)
        try:
            ops = driver.schedule(db)
        finally:
            db.close()
        reads_per_uid: dict = {}
        for op in ops:
            if op.kind == READ:
                reads_per_uid[op.uid] = reads_per_uid.get(op.uid, 0) + 1
        hottest = max(reads_per_uid.values())
        # The hottest user dominates a uniform share by construction.
        assert hottest > len(ops) / CONFIG.users

    def test_rejects_degenerate_config(self):
        with pytest.raises(ServingError):
            ReplayDriver(ReplayConfig(users=0))


class TestReplay:
    def test_equivalence_after_every_mutation(self, driver):
        """The acceptance equivalence test: every answer the server keeps
        materialised equals a from-scratch recomputation after every single
        mutation in the replay (verify raises on the first divergence)."""
        db = driver.build_world(DBLP)
        try:
            with TopKServer(db, capacity=6) as server:
                report = driver.run(server, driver.schedule(db), verify=True)
        finally:
            db.close()
        assert report.verified_results > 0
        assert report.inserts > 0 and report.updates > 0
        # The full update spectrum is exercised, not just inserts.
        assert report.deletes > 0 and report.data_updates > 0

    def test_verify_raises_on_the_first_divergence_naming_the_user(self, driver):
        """A materialised answer that no longer equals a fresh recomputation
        fails the replay — on the read that serves it, and after any other
        op, while it is still cached."""
        db = driver.build_world(DBLP)
        try:
            with TopKServer(db, capacity=6) as server:
                stale, other = CONFIG.uids()[:2]
                server.top_k(stale, CONFIG.k)
                entry = server.results.peek(stale, CONFIG.k)
                # Corrupt the materialised ranking behind the cache's back.
                object.__setattr__(entry, "ranking", ((999_999, 1.0),))
                update = next(op for op in driver.schedule(db)
                              if op.kind == UPDATE and op.uid != stale)
                for op in (Op(READ, uid=stale, k=CONFIG.k), update):
                    with pytest.raises(ServingError, match=f"uid={stale} "):
                        driver.run(server, [op], verify=True)
                assert driver.run(server, [Op(READ, uid=other, k=CONFIG.k)],
                                  verify=True).verified_results == 1
        finally:
            db.close()

    def test_serving_beats_baseline_and_hits_are_free(self, driver):
        serving_db = driver.build_world(DBLP)
        baseline_db = driver.build_world(DBLP)
        try:
            with TopKServer(serving_db, capacity=6) as server:
                serving = driver.run(server, driver.schedule(serving_db))
            baseline = driver.run_baseline(baseline_db,
                                           driver.schedule(baseline_db))
        finally:
            serving_db.close()
            baseline_db.close()
        assert serving.read_hits > 0
        assert serving.zero_sql_reads == serving.read_hits
        assert serving.sql_statements < baseline.sql_statements
        assert baseline.read_hits == 0

    def test_mutation_events_record_partial_invalidation(self, driver):
        db = driver.build_world(DBLP)
        try:
            with TopKServer(db, capacity=6) as server:
                report = driver.run(server, driver.schedule(db))
        finally:
            db.close()
        assert {event["kind"] for event in report.mutation_events} == set(
            MUTATION_KINDS)
        # Inserts touch one venue, so they always invalidate a strict subset
        # of a multi-entry cache.
        populated_inserts = [event for event in report.events_of_kind(INSERT)
                             if event["cached_before"] >= 2]
        assert populated_inserts
        assert all(event["results_invalidated"] < event["cached_before"]
                   for event in populated_inserts)
        # A delete/update of one hot tuple may legitimately touch every
        # cached user, but across the replay each kind spares entries —
        # no kind ever degenerates into a blanket cache flush.
        for kind in MUTATION_KINDS:
            events = report.events_of_kind(kind)
            assert events, f"replay produced no {kind} events"
            assert sum(event["results_spared"] for event in events) > 0

    def test_report_as_dict_roundtrips_to_json(self, driver):
        import json
        db = driver.build_world(DBLP)
        try:
            with TopKServer(db, capacity=6) as server:
                report = driver.run(server, driver.schedule(db))
        finally:
            db.close()
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["label"] == "serving"
        assert payload["ops"] == CONFIG.requests
