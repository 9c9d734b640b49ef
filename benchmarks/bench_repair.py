"""Repair, don't recompute: delta-maintained answers vs invalidation (ISSUE 8).

A mutation-heavy Zipf-skewed serial replay (the one-worker run of
:class:`repro.loadgen.LoadGenerator`) runs twice over identical worlds, both
times through :class:`repro.serving.TopKServer` with the inline audit on:

* the **repair arm** (default ``repair_delta``) maintains affected cached
  answers in place from the mutation's row images — zero SQL per repair;
* the **baseline arm** (``repair_delta=-1``) is the pre-repair behaviour:
  every affected answer is dropped and recomputed on the next read.

The printed report and the assertions cover the acceptance criteria, stated
from the server's ``serving.result_cache.*`` / ``serving.results.*``
counters:

(a) **repair dominates** — of the cached answers data mutations touched, at
    least 60% were repaired in place rather than falling back to
    invalidation (``repairs / (repairs + repair_fallbacks)``);
(b) **repairs buy warm reads** — the repair arm's warm-read rate is
    strictly above the baseline's (repaired answers keep serving from
    memory where the baseline recomputes), and its end-to-end SQL total is
    strictly below the baseline's;
(c) **repairs stay exact** — both arms audit inline after every op (every
    materialised answer, repaired or spared, equals a from-scratch
    recomputation), and a short concurrent load run with the background
    :class:`~repro.loadgen.EquivalenceAuditor` finishes clean while repairs
    are happening live.

That every repair runs **zero** SQL is an invariant of the state machine
(``tests/test_server_machine.py``), checked on every mutation report.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.experiments.context import SCALES
from repro.loadgen import LoadConfig, LoadGenerator, build_world
from repro.serving import OpMix, TopKServer
from repro.telemetry import Telemetry
from repro.workload.dblp import DblpConfig

from bench_utils import run_once

USERS = 40
#: Mutation-heavy mix: half the schedule churns the data under the cache.
REPLAY = LoadConfig(threads=1, requests=260, k=5, seed=17, audit_interval=0,
                    mix=OpMix(read_weight=5.0, update_weight=0.5,
                              insert_weight=1.5, delete_weight=1.2,
                              data_update_weight=1.2))
SCALE = "tiny"
CAPACITY = 24
#: The acceptance floor: share of touched answers repaired in place.
REPAIR_RATE_FLOOR = 0.6


def _run_arm(repair_delta):
    db = build_world(SCALES[SCALE], USERS)
    server = TopKServer(db, capacity=CAPACITY, repair_delta=repair_delta)
    try:
        return LoadGenerator(REPLAY).run(server)
    finally:
        server.close()
        db.close()


def test_repair_beats_invalidate_and_recompute(benchmark):
    """The acceptance benchmark: repair rate, warm-rate and SQL comparison."""
    repair = run_once(benchmark, _run_arm, None)
    baseline = _run_arm(-1)
    repair_metrics, baseline_metrics = repair.server_stats, \
        baseline.server_stats

    repairs = repair_metrics["serving.result_cache.repairs"]
    fallbacks = repair_metrics["serving.result_cache.repair_fallbacks"]
    entry_rate = repairs / max(1, repairs + fallbacks)

    reporting.print_report(
        f"Repair vs invalidate-and-recompute — {USERS} users, "
        f"{REPLAY.requests} requests, mutation-heavy mix",
        reporting.format_table([
            {"arm": label, "reads": arm.kind_counts["read"],
             "read_hits": arm.read_hits,
             "warm_rate": f"{arm.read_hit_rate:.3f}",
             "sql_statements": arm.sql_statements,
             "audited": arm.audit["comparisons"],
             "seconds": f"{arm.duration_seconds:.3f}"}
            for label, arm in (("repair", repair),
                               ("invalidate", baseline))]))
    reporting.print_report(
        "Repair behaviour",
        reporting.format_mapping({
            "entries repaired": repairs,
            "repair fallbacks": fallbacks,
            "underflow fallbacks":
                repair_metrics["serving.result_cache.repair_underflows"],
            "entry repair rate": f"{entry_rate:.3f}",
        }))

    # (a) Repair dominates.
    assert repairs > 0, "replay produced no mutation that touched an answer"
    assert entry_rate >= REPAIR_RATE_FLOOR

    # The baseline arm really is the old world: no repairs anywhere, same
    # schedule, strictly more invalidations.
    assert baseline_metrics["serving.result_cache.repairs"] == 0
    assert (baseline_metrics["serving.results.data_invalidations"]
            > repair_metrics["serving.results.data_invalidations"])

    # (b) Repairs convert recomputations into warm hits: strictly better
    # warm-read rate, strictly less SQL end to end.
    assert repair.read_hit_rate > baseline.read_hit_rate
    assert repair.sql_statements < baseline.sql_statements

    # (c) Every repaired answer survived the after-every-op audit.
    for arm in (repair, baseline):
        assert arm.clean and arm.audit["comparisons"] > 0, arm.audit


def test_repairs_stay_clean_under_concurrent_load(benchmark):
    """Live repairs under threads + the background auditor: zero mismatches."""
    db = build_world(DblpConfig(n_papers=220, n_authors=90, n_venues=8,
                                seed=7), 32)
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
