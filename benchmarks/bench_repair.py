"""Repair, don't recompute: delta-maintained answers vs invalidation (ISSUE 8).

A mutation-heavy Zipf-skewed replay runs twice over identical worlds, both
times through :class:`repro.serving.TopKServer` with verification on:

* the **repair arm** (default ``repair_delta``) maintains affected cached
  answers in place from the mutation's row images — zero SQL per repair;
* the **baseline arm** (``repair_delta=-1``) is the pre-repair behaviour:
  every affected answer is dropped and recomputed on the next read.

The printed report and the assertions cover the acceptance criteria:

(a) **repair dominates** — at least 60% of the data-mutation events that
    touched a cached answer are served entirely as O(delta) repairs, and at
    the entry level repairs outnumber fallbacks by the same margin; every
    repair runs **zero** SQL statements;
(b) **repairs buy warm reads** — the repair arm's warm-read rate is
    strictly above the baseline's (repaired answers keep serving from
    memory where the baseline recomputes), and its end-to-end SQL total is
    strictly below the baseline's;
(c) **repairs stay exact** — both arms run the driver's after-every-mutation
    equivalence sweep (every materialised answer, repaired or spared, equals
    a from-scratch recomputation), and a short concurrent load run with the
    background :class:`~repro.loadgen.EquivalenceAuditor` finishes clean
    while repairs are happening live.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.experiments.context import SCALES
from repro.loadgen import LoadConfig, LoadGenerator
from repro.serving import OpMix, ReplayConfig, ReplayDriver, TopKServer
from repro.telemetry import Telemetry
from repro.workload.dblp import DblpConfig

from bench_utils import run_once

#: Mutation-heavy mix: half the schedule churns the data under the cache.
REPLAY = ReplayConfig(users=40, requests=260, k=5, seed=17,
                      mix=OpMix(read_weight=5.0, update_weight=0.5,
                                insert_weight=1.5, delete_weight=1.2,
                                data_update_weight=1.2))
SCALE = "tiny"
CAPACITY = 24
#: The acceptance floor: share of affected mutation events fully repaired.
REPAIR_RATE_FLOOR = 0.6


def _run_arm(driver, repair_delta, label):
    db = driver.build_world(SCALES[SCALE])
    server = TopKServer(db, capacity=CAPACITY, repair_delta=repair_delta)
    try:
        report = driver.run(server, driver.schedule(db), verify=True,
                            label=label)
        return report, server.metrics()
    finally:
        server.close()
        db.close()


def test_repair_beats_invalidate_and_recompute(benchmark):
    """The acceptance benchmark: repair rate, warm-rate and SQL comparison."""
    driver = ReplayDriver(REPLAY)
    repair, repair_metrics = run_once(
        benchmark, _run_arm, driver, None, "repair")
    baseline, baseline_metrics = _run_arm(driver, -1, "invalidate")

    def warm_rate(report):
        return report.read_hits / max(1, report.reads)

    affected = [event for event in repair.mutation_events
                if event["results_repaired"] + event["results_invalidated"] > 0]
    fully_repaired = [event for event in affected
                      if event["results_invalidated"] == 0
                      and event["repair_sql_statements"] == 0]
    event_rate = len(fully_repaired) / max(1, len(affected))
    repairs = repair_metrics["serving.result_cache.repairs"]
    fallbacks = repair_metrics["serving.result_cache.repair_fallbacks"]
    entry_rate = repairs / max(1, repairs + fallbacks)

    reporting.print_report(
        f"Repair vs invalidate-and-recompute — {REPLAY.users} users, "
        f"{REPLAY.requests} requests, mutation-heavy mix",
        reporting.format_table([
            {"arm": arm.label, "reads": arm.reads, "read_hits": arm.read_hits,
             "warm_rate": f"{warm_rate(arm):.3f}",
             "sql_statements": arm.sql_statements,
             "verified": arm.verified_results,
             "seconds": f"{arm.seconds:.3f}"}
            for arm in (repair, baseline)]))
    reporting.print_report(
        "Repair behaviour",
        reporting.format_mapping({
            "affected mutation events": len(affected),
            "fully repaired events": len(fully_repaired),
            "event repair rate": f"{event_rate:.3f}",
            "entries repaired": repairs,
            "repair fallbacks": fallbacks,
            "underflow fallbacks":
                repair_metrics["serving.result_cache.repair_underflows"],
            "entry repair rate": f"{entry_rate:.3f}",
        }))

    # (a) Repair dominates, and every repair is a zero-SQL delta fold.
    assert affected, "replay produced no mutation that touched a cached answer"
    assert event_rate >= REPAIR_RATE_FLOOR
    assert entry_rate >= REPAIR_RATE_FLOOR
    assert all(event["repair_sql_statements"] == 0
               for event in repair.mutation_events)

    # The baseline arm really is the old world: no repairs anywhere, same
    # schedule, strictly more invalidations.
    assert baseline_metrics["serving.result_cache.repairs"] == 0
    assert (baseline_metrics["serving.results.data_invalidations"]
            > repair_metrics["serving.results.data_invalidations"])

    # (b) Repairs convert recomputations into warm hits: strictly better
    # warm-read rate, strictly less SQL end to end.
    assert warm_rate(repair) > warm_rate(baseline)
    assert repair.sql_statements < baseline.sql_statements

    # (c) Every repaired answer survived the after-every-mutation oracle.
    assert repair.verified_results > 0


def test_repairs_stay_clean_under_concurrent_load(benchmark):
    """Live repairs under threads + the background auditor: zero mismatches."""
    driver = ReplayDriver(ReplayConfig(users=32, k=5, seed=23))
    db = driver.build_world(DblpConfig(n_papers=220, n_authors=90,
                                       n_venues=8, seed=7))
    server = TopKServer(db, capacity=16)
    config = LoadConfig(threads=2, duration_seconds=1.0, seed=23,
                        mix=OpMix(delete_weight=1.0, data_update_weight=1.0),
                        k=5,
                        audit_interval=0.3, audit_sample=6)
    try:
        report = run_once(benchmark, LoadGenerator(config).run, server,
                          telemetry=Telemetry())
        results = server.results.stats()
    finally:
        server.close()
        db.close()

    reporting.print_report(
        "Concurrent load with live repairs",
        reporting.format_mapping({
            "ops": report.ops,
            "audits": report.audit.get("audits", 0),
            "audit_comparisons": report.audit.get("comparisons", 0),
            "audit_mismatches": report.audit.get("mismatches", 0),
            "repairs": results["repairs"],
            "repair_fallbacks": results["repair_fallbacks"],
        }))
    assert report.clean, (
        f"load run was not clean: errors={report.errors} audit={report.audit}")
    assert report.audit.get("comparisons", 0) > 0, "the auditor never compared"
    assert results["repairs"] > 0, "the load mix produced no live repairs"
