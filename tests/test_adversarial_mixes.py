"""The named adversarial mixes: targeting, replay and loadgen.

Every mix must (a) produce the identical audited serial replay on both
storage engines, (b) aim its mutations where its targeting policy says, and (c)
drive the load harness — with real thread concurrency — to a clean finish.
The catalogue itself and the generator-level rules (a mix with inserts
disabled never synthesizes a liveness-fallback insert) live in
``test_serving_ops.py`` and ``test_properties_hypothesis.py``.
"""

from __future__ import annotations

import json
from itertools import islice

import pytest

from repro.backend import BACKEND_NAMES
from repro.cli import run_load, run_serve_replay
from repro.exceptions import ServingError
from repro.loadgen import LoadConfig, LoadGenerator, population
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MIXES,
    TARGET_ANY,
    TARGET_BOUNDARY,
    TARGET_HOT,
    OpMix,
    TopKServer,
    build_streams,
    target_pool,
)
from repro.workload.synthetic import SyntheticConfig, synthetic_profile_factory
from worlds import engine_world

SYN = SyntheticConfig(n_papers=160, n_authors=50, width=2,
                      venue_cardinality=8, extra_cardinality=6,
                      correlation=0.3, seed=13)


USERS = 16
K = 4


def make_world(backend="sqlite"):
    return engine_world(backend, SYN, USERS, synthetic_profile_factory(SYN))


def schedule(db, mix_name, requests=90, seed=21):
    """A serial replay's op list: the one-worker stream, cut."""
    (stream,) = build_streams(db, 1, OpMix.named(mix_name), population(USERS),
                              K, seed)
    return list(islice(stream, requests))


def replay(db, mix_name, requests=90):
    """The serial replay over ``db``, audited inline after every op."""
    with TopKServer(db) as server:
        return LoadGenerator(LoadConfig(
            threads=1, requests=requests, mix=OpMix.named(mix_name), k=K,
            seed=21, audit_interval=0)).run(server)


# -- replay: cross-backend agreement per mix ----------------------------------


@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_mix_replays_verified_and_identical_on_both_backends(mix_name):
    outcomes = {}
    for backend in sorted(BACKEND_NAMES):
        with make_world(backend) as db:
            report = replay(db, mix_name)
        assert report.clean, report.audit
        assert report.audit["comparisons"] > 0
        outcomes[backend] = (report.ops, report.kind_counts,
                             report.read_hits, report.audit["comparisons"])
    values = list(outcomes.values())
    assert all(value == values[0] for value in values[1:]), outcomes


def test_delete_churn_schedules_no_inserts_and_drains():
    """Regression: the liveness fallback must not resurrect the relation."""
    with make_world() as db:
        kinds = [op.kind for op in schedule(db, "delete-churn", 200)]
        assert INSERT not in kinds
        assert kinds.count(DELETE) > 0
        report = replay(db, "delete-churn", requests=200)
    assert report.kind_counts[INSERT] == 0
    assert report.kind_counts[DELETE] > 0
    assert report.clean and report.audit["comparisons"] > 0


def test_hot_keys_mutations_land_in_the_hot_pool():
    with make_world() as db:
        pool = set(target_pool(db, population(USERS), K, TARGET_HOT))
        assert pool
        targeted = 0
        for op in schedule(db, "hot-keys", 120):
            if op.kind == DELETE:
                assert op.pids[0] in pool
                targeted += 1
            elif op.kind == DATA_UPDATE:
                assert op.papers[0].pid in pool
                targeted += 1
        assert targeted > 0


def test_boundary_pool_sits_past_the_top_k():
    with make_world() as db:
        uids = population(USERS)
        hot = target_pool(db, uids, K, TARGET_HOT)
        boundary = target_pool(db, uids, K, TARGET_BOUNDARY)
        assert boundary
        # The boundary pool reaches deeper than the pure top-k pool and is
        # what the repair-hostile stream actually targets.
        assert set(boundary) - set(hot)
        (stream,) = build_streams(db, 1, OpMix.named("repair-hostile"), uids,
                                  K, 21)
        assert stream._hot == boundary
        assert target_pool(db, uids, K, TARGET_ANY) == []


def test_benign_schedule_unchanged_by_mix_support():
    """No mix configured: schedules stay deterministic and insert-fallback."""
    with make_world() as db_a, make_world() as db_b:
        assert schedule(db_a, None, 60, seed=9) == \
            schedule(db_b, None, 60, seed=9)


# -- loadgen: the targeted mixes under real concurrency -----------------------


@pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_mix_runs_clean_through_the_load_harness(mix_name, backend):
    """Two threads on a shared target pool (hot-keys, repair-hostile) or on
    striped base pids (delete-churn): no worker may ever name a dead pid."""
    with make_world(backend) as db, TopKServer(db) as server:
        report = LoadGenerator(LoadConfig(
            threads=2, duration_seconds=0.6, seed=21,
            mix=OpMix.named(mix_name), k=4, audit_interval=0.2)).run(server)
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
