"""Sharded serving cluster as shards scale 1 → 2 → 4 → 8 (ISSUE 4 tentpole).

The identical Zipf-skewed replay (reads / profile updates / tuple inserts,
deletes and in-place updates) runs through a
:class:`repro.serving.ShardedTopKServer` at every shard count, over
identical worlds, plus once through the no-cache baseline. Reported per
arm: warm-rate (read hits / reads), zero-SQL reads and SQL statements —
the serving-cost picture as the user partition narrows per shard.

The assertions cover the acceptance criteria (CI runs this as a smoke job):

(a) at every shard count, warm reads are served with **zero** SQL
    statements, and every arm issues strictly fewer statements than the
    no-cache baseline;
(b) broadcast mutations invalidate **selectively across shards**: whenever
    a mutation meets a multi-shard warm cache and drops anything, it drops
    a strict subset cluster-wide, and the replay contains mutations that
    invalidate results on one shard while sparing results on another shard
    at the same time — the per-shard counterpart of bench_serving's
    per-user selectivity;
(c) every mutation kind spares entries somewhere (no kind degenerates into
    a blanket cluster-wide flush).

Equivalence (cluster == single server == fresh recomputation after every
mutation, shard counts {1, 2, 4}) is asserted by
``tests/test_serving_cluster.py`` via
:meth:`repro.serving.ReplayDriver.verify_cluster_equivalence`.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.experiments.context import SCALES
from repro.serving import (
    MUTATION_KINDS,
    ReplayConfig,
    ReplayDriver,
    ShardedTopKServer,
)

from bench_utils import run_once

REPLAY = ReplayConfig(users=40, requests=260, k=5, seed=23)
SCALE = "tiny"
#: Per-shard session capacity (total residency grows with the shard count,
#: mirroring a real deployment where every shard brings its own memory).
CAPACITY = 12
SHARD_COUNTS = (1, 2, 4, 8)


def test_cluster_scales_and_invalidates_selectively(benchmark):
    """The acceptance benchmark: warm-rate / SQL across shard counts."""
    driver = ReplayDriver(REPLAY)

    arms = []
    for shards in SHARD_COUNTS:
        db = driver.build_world(SCALES[SCALE])
        cluster = ShardedTopKServer(db, shards=shards, capacity=CAPACITY)
        try:
            ops = driver.schedule(db)
            label = f"sharded-{shards}"
            if shards == SHARD_COUNTS[0]:
                report = run_once(benchmark, driver.run, cluster, ops,
                                  label=label)
            else:
                report = driver.run(cluster, ops, label=label)
            arms.append((shards, report, cluster.metrics()))
        finally:
            cluster.close()
            db.close()

    baseline_db = driver.build_world(SCALES[SCALE])
    try:
        baseline = driver.run_baseline(baseline_db,
                                       driver.schedule(baseline_db))
    finally:
        baseline_db.close()

    reporting.print_report(
        f"Sharded serving replay — {REPLAY.users} users, "
        f"{REPLAY.requests} requests (Zipf {REPLAY.mix.zipf_exponent}), "
        f"capacity {CAPACITY}/shard",
        reporting.format_table([
            {"arm": report.label, "shards": shards,
             "reads": report.reads, "read_hits": report.read_hits,
             "warm_rate": f"{stats['serving.cluster.warm_rate']:.2f}",
             "zero_sql_reads": report.zero_sql_reads,
             "sql_statements": report.sql_statements,
             "data_invalidated": stats["serving.results.data_invalidations"],
             "data_spared": stats["serving.results.data_spared"],
             "seconds": f"{report.seconds:.3f}"}
            for shards, report, stats in arms]
            + [{"arm": baseline.label, "shards": "-",
                "reads": baseline.reads, "read_hits": baseline.read_hits,
                "warm_rate": "-", "zero_sql_reads": baseline.zero_sql_reads,
                "sql_statements": baseline.sql_statements,
                "data_invalidated": "-", "data_spared": "-",
                "seconds": f"{baseline.seconds:.3f}"}]))

    for shards, report, stats in arms:
        # (a) Warm reads are free at every shard count, and the cluster
        # always beats the no-cache baseline on SQL statements.
        assert report.read_hits > 0, f"{shards} shards produced no warm reads"
        assert report.zero_sql_reads == report.read_hits
        assert report.sql_statements < baseline.sql_statements

        # (b) Broadcasts react selectively across shards: an insert (which
        # touches one venue) that meets a warm multi-shard cache touches —
        # repairs or drops — a strict subset cluster-wide (a delete/update
        # of one hot tuple may legitimately touch every cached user)...
        multi_shard_events = []
        split_events = []
        for event in report.mutation_events:
            per_shard = event["shards"]
            assert len(per_shard) == shards

            def touched(shard):
                return (shard["results_invalidated"]
                        + shard["results_repaired"])

            warm_shards = [shard for shard in per_shard
                           if touched(shard) + shard["results_spared"] > 0]
            if len(warm_shards) >= 2:
                multi_shard_events.append(event)
                if event["kind"] == "insert" and event["cached_before"] >= 2:
                    assert (event["results_invalidated"]
                            + event["results_repaired"]
                            < event["cached_before"]), event
            # ...and some broadcasts touch one shard while sparing another.
            if (any(touched(shard) > 0 for shard in per_shard)
                    and any(touched(shard) == 0
                            and shard["results_spared"] > 0
                            for shard in per_shard)):
                split_events.append(event)
        if shards >= 2:
            assert multi_shard_events, (
                f"{shards} shards: no broadcast met a warm multi-shard cache")
            assert split_events, (
                f"{shards} shards: no broadcast touched one shard "
                f"while sparing another")

        # (c) Every mutation kind spares entries somewhere in the replay.
        for kind in MUTATION_KINDS:
            events = report.events_of_kind(kind)
            assert events, f"replay produced no {kind} operations"
            assert sum(event["results_spared"] for event in events) > 0

    reporting.print_report(
        "Cross-shard selectivity (first arm with 2+ shards)",
        reporting.format_table([
            {"op": position,
             "kind": event["kind"],
             "invalidated": event["results_invalidated"],
             "spared": event["results_spared"],
             "per_shard": " ".join(
                 f"{shard['results_invalidated']}/{shard['results_spared']}"
                 for shard in event["shards"])}
            for position, event in enumerate(arms[1][1].mutation_events)]))
