"""Delete-heavy churn down to an empty relation: both engines must agree.

The regression this file pins down: the op stream's liveness fallback
used to force an INSERT whenever deletes/updates found no live pid — even
for a mix with ``insert_weight=0`` — silently resurrecting a relation a
delete-heavy mix had deliberately drained.  The fallback now degrades to a
READ (the generator-level rule is a Hypothesis property in
``test_properties_hypothesis.py``), and everything downstream of an empty
joined view (fresh Top-K, the serving front door, cached-answer repair
sweeps, the serial replay itself) must behave identically on SQLite and the
in-memory engine.
"""

from __future__ import annotations

import pytest

from repro.backend import BACKEND_NAMES
from repro.exceptions import ServingError
from repro.loadgen import LoadConfig, LoadGenerator, population
from repro.serving import OpMix, TopKServer, build_streams, fresh_top_k
from repro.workload.dblp import DblpConfig
from worlds import engine_world

DBLP = DblpConfig(n_papers=90, n_authors=30, n_venues=6, seed=13)

USERS = 10
#: Delete-heavy churn with inserts disabled, through the raw weight knobs,
#: so the regression is locked at the runner level.
CHURN = LoadConfig(threads=1, requests=150, k=4, seed=11, audit_interval=0,
                   mix=OpMix(read_weight=3.0, update_weight=0.3,
                             insert_weight=0.0, delete_weight=8.0,
                             data_update_weight=0.7))


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend_name(request):
    return request.param


def make_world(backend_name):
    return engine_world(backend_name, DBLP, USERS)


def test_churn_to_empty_replays_identically_on_both_backends():
    outcomes = {}
    for backend_name in sorted(BACKEND_NAMES):
        with make_world(backend_name) as db, \
                TopKServer(db) as server:
            report = LoadGenerator(CHURN).run(server)
            assert report.clean, report.audit
            outcomes[backend_name] = (
                report.ops, report.kind_counts, report.read_hits,
                report.audit["comparisons"], db.table_counts()["dblp"])
    values = list(outcomes.values())
    assert all(value == values[0] for value in values[1:]), outcomes
    assert values[0][1]["insert"] == 0
    assert values[0][1]["delete"] > 0


def test_top_k_over_a_fully_drained_relation_is_empty(backend_name):
    with make_world(backend_name) as db, \
            TopKServer(db) as server:
        uid = population(USERS)[0]
        warm = server.top_k(uid, 4)
        assert warm.ranking  # papers exist before the drain
        server.delete_tuples(db.paper_ids())
        assert db.paper_ids() == []
        served = server.top_k(uid, 4)
        assert list(served.ranking) == []
        assert fresh_top_k(db, uid, 4) == []


def test_repair_sweep_with_zero_surviving_rows(backend_name):
    """Deleting every row sweeps the cached answers without diverging."""
    with make_world(backend_name) as db, \
            TopKServer(db) as server:
        uids = population(USERS)[:4]
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


def test_schedule_on_an_empty_world_raises_on_both_backends():
    errors = {}
    for backend_name in sorted(BACKEND_NAMES):
        with make_world(backend_name) as db:
            db.delete_papers(db.paper_ids())
            with pytest.raises(ServingError) as excinfo:
                build_streams(db, 1, CHURN.mix, population(USERS), 4, 11)
            errors[backend_name] = type(excinfo.value).__name__
    assert len(set(errors.values())) == 1
