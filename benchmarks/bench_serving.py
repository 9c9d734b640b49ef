"""Multi-user serving engine vs ad-hoc recomputation (ISSUE 2 tentpole,
extended by ISSUE 3 to the full update spectrum).

A 50+-user Zipf-skewed replay (reads / profile updates / tuple inserts,
deletes and in-place updates) runs twice over identical worlds: once through
:class:`repro.serving.TopKServer` (resident LRU sessions, shared count
cache, update-aware result cache) and once through the no-cache baseline
that rebuilds every user's state per read — the seed behaviour the serving
layer replaces.

The printed report and the assertions cover the acceptance criteria:

(a) warm ``top_k`` requests are served from the result cache with **zero**
    SQL statements;
(b) every data-mutation kind — insert, delete, in-place update —
    invalidates only the affected users' cached results: inserts always
    drop a strict subset of a multi-entry cache, and each kind spares
    entries across the replay (spared count > 0, never a blanket flush);
(c) the end-to-end replay issues strictly fewer SQL statements than the
    no-cache baseline.

Equivalence (served results == fresh recomputation after every mutation of
any kind) is asserted by ``tests/test_serving_driver.py`` at the same
driver settings.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.experiments.context import SCALES
from repro.serving import MUTATION_KINDS, ReplayConfig, ReplayDriver, TopKServer

from bench_utils import run_once

#: ≥50 users, Zipf-skewed; small enough to keep the smoke job quick.
REPLAY = ReplayConfig(users=50, requests=300, k=5, seed=17)
SCALE = "tiny"
CAPACITY = 24


def test_serving_replay_beats_no_cache_baseline(benchmark):
    """The acceptance benchmark: cache behaviour + SQL-statement comparison."""
    driver = ReplayDriver(REPLAY)

    serving_db = driver.build_world(SCALES[SCALE])
    server = TopKServer(serving_db, capacity=CAPACITY)
    ops = driver.schedule(serving_db)
    serving = run_once(benchmark, driver.run, server, ops)
    metrics = server.metrics()

    baseline_db = driver.build_world(SCALES[SCALE])
    baseline = driver.run_baseline(baseline_db, driver.schedule(baseline_db))

    reporting.print_report(
        f"Serving replay — {REPLAY.users} users, {REPLAY.requests} requests "
        f"(Zipf {REPLAY.mix.zipf_exponent})",
        reporting.format_table([
            {"arm": arm.label, "reads": arm.reads, "read_hits": arm.read_hits,
             "zero_sql_reads": arm.zero_sql_reads, "updates": arm.updates,
             "inserts": arm.inserts, "deletes": arm.deletes,
             "data_updates": arm.data_updates,
             "sql_statements": arm.sql_statements,
             "seconds": f"{arm.seconds:.3f}"}
            for arm in (serving, baseline)]))
    reporting.print_report(
        "Result-cache behaviour under data mutations",
        reporting.format_table([
            {"op": position, **event}
            for position, event in enumerate(serving.mutation_events)]))

    # (a) Warm requests answer from the materialised result cache with zero
    # SQL statements — and the skew guarantees plenty of warm requests.
    assert serving.read_hits > 0
    assert serving.zero_sql_reads == serving.read_hits

    # (b) Every mutation kind invalidates *selectively*.  Inserts touch one
    # venue, so against every multi-entry cache strictly fewer than all
    # cached answers are dropped (a single-entry cache may legitimately lose
    # its only — affected — entry); and for each of insert/delete/update the
    # replay leaves cached answers untouched (spared > 0) — no kind ever
    # degenerates into a blanket cache flush.
    populated = [event for event in serving.events_of_kind("insert")
                 if event["cached_before"] >= 2]
    assert populated, "replay produced no insert against a warm cache"
    for event in populated:
        assert event["results_invalidated"] < event["cached_before"]
    for kind in MUTATION_KINDS:
        events = serving.events_of_kind(kind)
        assert events, f"replay produced no {kind} operations"
        assert sum(event["results_spared"] for event in events) > 0

    # (c) End-to-end, the serving engine does strictly less SQL work than
    # ad-hoc recomputation over the identical schedule.
    assert serving.sql_statements < baseline.sql_statements

    # The shared cache really is shared: sessions outnumber residency, yet
    # every session's counts flowed through one store.
    assert metrics["serving.sessions.resident"] <= CAPACITY
    assert metrics["index.count_cache.hits"] > 0


def test_eviction_rebuild_stays_correct(benchmark):
    """A tiny-capacity registry thrashes, yet every answer stays exact."""
    config = ReplayConfig(users=12, requests=60, k=4, seed=5)
    driver = ReplayDriver(config)
    db = driver.build_world(SCALES[SCALE])
    server = TopKServer(db, capacity=3)
    report = run_once(benchmark, driver.run, server, driver.schedule(db), True)

    reporting.print_report(
        "Eviction thrash — capacity 3, 12 users",
        reporting.format_mapping({
            "evictions": server.sessions.stats()["evictions"],
            "sessions_built": server.sessions.stats()["sessions_built"],
            "verified_results": report.verified_results,
        }))
    assert server.sessions.stats()["evictions"] > 0
    assert report.verified_results > 0
