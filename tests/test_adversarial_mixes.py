"""The named adversarial mixes: targeting, replay and loadgen.

Every mix must (a) produce the identical verified replay on both storage
engines, (b) aim its mutations where its targeting policy says, and (c)
drive the load harness — with real thread concurrency — to a clean finish.
The catalogue itself and the generator-level rules (a mix with inserts
disabled never synthesizes a liveness-fallback insert) live in
``test_serving_ops.py`` and ``test_properties_hypothesis.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.backend import BACKEND_NAMES
from repro.cli import run_load, run_serve_replay
from repro.exceptions import ServingError
from repro.loadgen import LoadConfig, LoadGenerator
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MIXES,
    TARGET_ANY,
    TARGET_BOUNDARY,
    TARGET_HOT,
    OpMix,
    ReplayConfig,
    ReplayDriver,
    TopKServer,
    target_pool,
)
from repro.workload.synthetic import SyntheticConfig, synthetic_profile_factory

SYN = SyntheticConfig(n_papers=160, n_authors=50, width=2,
                      venue_cardinality=8, extra_cardinality=6,
                      correlation=0.3, seed=13)


def make_driver(mix_name, users=16, requests=90, seed=21):
    return ReplayDriver(
        ReplayConfig(users=users, requests=requests, k=4, seed=seed,
                     mix=OpMix.named(mix_name)),
        profile_factory=synthetic_profile_factory(SYN))


# -- replay: cross-backend agreement per mix ----------------------------------


@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_mix_replays_verified_and_identical_on_both_backends(mix_name):
    outcomes = {}
    for backend in sorted(BACKEND_NAMES):
        driver = make_driver(mix_name)
        db = driver.build_world(SYN, backend=backend)
        server = TopKServer(db, capacity=8)
        try:
            report = driver.run(server, driver.schedule(db), verify=True)
        finally:
            server.close()
            db.close()
        assert report.verified_results > 0
        outcomes[backend] = (report.ops, report.reads, report.updates,
                             report.inserts, report.deletes,
                             report.data_updates, report.verified_results)
    values = list(outcomes.values())
    assert all(value == values[0] for value in values[1:]), outcomes


def test_delete_churn_schedules_no_inserts_and_drains():
    """Regression: the liveness fallback must not resurrect the relation."""
    driver = make_driver("delete-churn", requests=200)
    db = driver.build_world(SYN, backend="memory")
    try:
        ops = driver.schedule(db)
        kinds = [op.kind for op in ops]
        assert INSERT not in kinds
        assert kinds.count(DELETE) > 0
        server = TopKServer(db, capacity=8)
        try:
            report = driver.run(server, ops, verify=True)
        finally:
            server.close()
        assert report.inserts == 0
        assert report.deletes > 0
        assert report.verified_results > 0
    finally:
        db.close()


def test_hot_keys_mutations_land_in_the_hot_pool():
    driver = make_driver("hot-keys", requests=120)
    db = driver.build_world(SYN, backend="sqlite")
    try:
        pool = set(driver.target_pids(db))
        assert pool
        targeted = 0
        for op in driver.schedule(db):
            if op.kind == DELETE:
                assert op.pids[0] in pool
                targeted += 1
            elif op.kind == DATA_UPDATE:
                assert op.papers[0].pid in pool
                targeted += 1
        assert targeted > 0
    finally:
        db.close()


def test_boundary_pool_sits_past_the_top_k():
    driver = make_driver("repair-hostile")
    db = driver.build_world(SYN, backend="memory")
    try:
        uids = driver.config.uids()
        hot = target_pool(db, uids, driver.config.k, TARGET_HOT)
        boundary = target_pool(db, uids, driver.config.k, TARGET_BOUNDARY)
        assert boundary
        # The boundary pool reaches deeper than the pure top-k pool and is
        # what the repair-hostile driver actually targets.
        assert set(boundary) - set(hot)
        assert driver.target_pids(db) == boundary
        assert target_pool(db, uids, driver.config.k, TARGET_ANY) == []
    finally:
        db.close()


def test_benign_schedule_unchanged_by_mix_support():
    """No mix configured: schedules stay deterministic and insert-fallback."""
    driver_a = ReplayDriver(ReplayConfig(users=10, requests=60, seed=9))
    driver_b = ReplayDriver(ReplayConfig(users=10, requests=60, seed=9))
    db_a = driver_a.build_world(SYN, backend="memory")
    db_b = driver_b.build_world(SYN, backend="memory")
    try:
        assert driver_a.schedule(db_a) == driver_b.schedule(db_b)
    finally:
        db_a.close()
        db_b.close()


# -- loadgen: the targeted mixes under real concurrency -----------------------


@pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_mix_runs_clean_through_the_load_harness(mix_name, backend):
    """Two threads on a shared target pool (hot-keys, repair-hostile) or on
    striped base pids (delete-churn): no worker may ever name a dead pid."""
    driver = make_driver(mix_name)
    db = driver.build_world(SYN, backend=backend)
    server = TopKServer(db, capacity=8)
    try:
        report = LoadGenerator(LoadConfig(
            threads=2, duration_seconds=0.6, seed=21,
            mix=OpMix.named(mix_name), k=4, audit_interval=0.2)).run(server)
    finally:
        server.close()
        db.close()
    assert report.clean, (report.errors, report.audit)
    assert not [error for error in report.errors if "WorkloadError" in error]
    assert report.ops > 0
    if mix_name == "delete-churn":
        assert report.kind_counts[INSERT] == 0
        assert report.kind_counts[DELETE] > 0


# -- CLI ----------------------------------------------------------------------


def test_cli_serve_replay_family_and_mix_json():
    output = run_serve_replay(scale="tiny", users=12, requests=50,
                              baseline=False, as_json=True,
                              family="synthetic", mix="delete-churn")
    payload = json.loads(output)
    assert payload["config"]["family"] == "synthetic"
    assert payload["config"]["mix"] == "delete-churn"
    assert payload["mutations"]["inserts"] == 0
    assert payload["mutations"]["deletes"] > 0


def test_cli_load_family_and_mix_json():
    output = run_load(scale="tiny", users=10, threads=1, duration=0.4,
                      audit_interval=0.2, as_json=True,
                      family="synthetic", mix="profile-thrash")
    payload = json.loads(output)
    assert payload["config"]["family"] == "synthetic"
    assert payload["config"]["mix"] == "profile-thrash"
    assert payload["run"]["audit"]["mismatches"] == 0
    assert not payload["run"]["errors"]


def test_cli_rejects_unknown_family_and_mix():
    with pytest.raises(ValueError, match="unknown workload family"):
        run_serve_replay(family="csv")
    with pytest.raises(ServingError, match="unknown adversarial mix"):
        run_serve_replay(family="synthetic", mix="bogus")
