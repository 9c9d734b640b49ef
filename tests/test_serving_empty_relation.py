"""Delete-heavy churn down to an empty relation: both engines must agree.

The regression this file pins down: the op stream's liveness fallback
used to force an INSERT whenever deletes/updates found no live pid — even
for a mix with ``insert_weight=0`` — silently resurrecting a relation the
delete-churn mix had deliberately drained.  The fallback now degrades to a
READ (the generator-level rule is a Hypothesis property in
``test_properties_hypothesis.py``), and everything downstream of an empty
joined view (fresh Top-K, the serving front door, cached-answer repair
sweeps, the replay itself) must behave identically on SQLite and the
in-memory engine.
"""

from __future__ import annotations

import pytest

from repro.backend import BACKEND_NAMES
from repro.exceptions import ServingError
from repro.serving import (
    OpMix,
    ReplayConfig,
    ReplayDriver,
    TopKServer,
    fresh_top_k,
)
from repro.workload.synthetic import SyntheticConfig, synthetic_profile_factory

SYN = SyntheticConfig(n_papers=90, n_authors=30, width=2,
                      venue_cardinality=6, extra_cardinality=5,
                      correlation=0.3, seed=13)

#: Delete-churn expressed through the raw weight knobs (not the named mix),
#: so the regression is locked at the driver level independent of the
#: catalogue.
CHURN = dict(users=10, requests=150, k=4, seed=11,
             mix=OpMix(read_weight=3.0, update_weight=0.3, insert_weight=0.0,
                       delete_weight=8.0, data_update_weight=0.7))


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend_name(request):
    return request.param


def make_world(backend_name, **overrides):
    config = {**CHURN, **overrides}
    driver = ReplayDriver(ReplayConfig(**config),
                          profile_factory=synthetic_profile_factory(SYN))
    db = driver.build_world(SYN, backend=backend_name)
    return driver, db


def test_churn_to_empty_replays_identically_on_both_backends():
    outcomes = {}
    for backend_name in sorted(BACKEND_NAMES):
        driver, db = make_world(backend_name)
        server = TopKServer(db, capacity=6)
        try:
            report = driver.run(server, driver.schedule(db), verify=True)
            outcomes[backend_name] = (
                report.ops, report.reads, report.inserts, report.deletes,
                report.data_updates, report.verified_results,
                db.total_papers())
        finally:
            server.close()
            db.close()
    values = list(outcomes.values())
    assert all(value == values[0] for value in values[1:]), outcomes
    assert values[0][2] == 0  # inserts
    assert values[0][3] > 0   # deletes


def test_top_k_over_a_fully_drained_relation_is_empty(backend_name):
    driver, db = make_world(backend_name)
    server = TopKServer(db, capacity=6)
    try:
        driver.prepare(db)
        uid = driver.config.uids()[0]
        warm = server.top_k(uid, 4)
        assert warm.ranking  # papers exist before the drain
        server.delete_tuples(db.paper_ids())
        assert db.total_papers() == 0
        served = server.top_k(uid, 4)
        assert list(served.ranking) == []
        assert fresh_top_k(db, uid, 4) == []
    finally:
        server.close()
        db.close()


def test_repair_sweep_with_zero_surviving_rows(backend_name):
    """Deleting every row sweeps the cached answers without diverging."""
    driver, db = make_world(backend_name)
    server = TopKServer(db, capacity=6)
    try:
        driver.prepare(db)
        uids = driver.config.uids()[:4]
        for uid in uids:
            server.top_k(uid, 4)
        server.delete_tuples(db.paper_ids())
        for uid in uids:
            assert list(server.top_k(uid, 4).ranking) == []
            assert fresh_top_k(db, uid, 4) == []
        metrics = server.metrics()
        # Every cached answer was either repaired down or invalidated —
        # none may survive claiming rows that no longer exist.
        assert (metrics["serving.result_cache.repairs"]
                + metrics["serving.results.data_invalidations"]
                + metrics["serving.results.data_spared"]) > 0
    finally:
        server.close()
        db.close()


def test_schedule_on_an_empty_world_raises_on_both_backends():
    errors = {}
    for backend_name in sorted(BACKEND_NAMES):
        driver, db = make_world(backend_name)
        try:
            db.delete_papers(db.paper_ids())
            with pytest.raises(ServingError) as excinfo:
                driver.schedule(db)
            errors[backend_name] = type(excinfo.value).__name__
        finally:
            db.close()
    assert len(set(errors.values())) == 1
