"""Repair, don't recompute: delta-maintained answers, stated as counters.

A mutation-heavy Zipf-skewed serial replay (the one-worker run of
:class:`repro.loadgen.LoadGenerator`) runs through
:class:`repro.serving.TopKServer` with the inline audit on.  Every cached
answer is a repairable buffer, so there is no invalidate-only arm to run
beside it: what repair saves is read from the server's
``serving.result_cache.*`` / ``serving.results.*`` counters and the cost of
a from-scratch recompute.  The printed report and the assertions cover the
acceptance criteria:

(a) **repair dominates** — of the cached answers data mutations touched, at
    least 60% were repaired in place rather than falling back to
    invalidation (``repairs / (repairs + repair_fallbacks)``);
(b) **repairs buy warm reads** — every repair is an answer an
    invalidate-only cache would have dropped and recomputed on its next
    read.  A repair runs zero SQL (an invariant of the state machine,
    ``tests/test_server_machine.py``, checked on every mutation report); a
    from-scratch recompute (``fresh_top_k``) costs what the bench measures
    per user on the replay's end state.  The recomputes the repairs stand
    in for would have cost more statements than the whole replay issued,
    and the warm-read rate stays at or above :data:`WARM_RATE_FLOOR`.  (On this schedule the
    invalidate-and-recompute arm this bench used to run beside it served
    0.240 warm and issued 708 statements, against 0.753 and 599.)
(c) **repairs stay exact** — the replay audits inline after every op (every
    materialised answer, repaired or spared, equals a from-scratch
    recomputation), and a short concurrent load run with the background
    :class:`~repro.loadgen.EquivalenceAuditor` finishes clean while repairs
    are happening live.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.experiments.context import SCALES
from repro.loadgen import LoadConfig, LoadGenerator, build_world, population
from repro.serving import OpMix, TopKServer, fresh_top_k
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
#: The acceptance floor: share of touched answers repaired in place.
REPAIR_RATE_FLOOR = 0.6
#: The warm-read floor: twice the invalidate-and-recompute arm's 0.240.
WARM_RATE_FLOOR = 0.5


def _replay():
    """The audited replay, plus the mean statements one from-scratch
    recompute (``fresh_top_k``) costs per user on the replay's end state."""
    db = build_world(SCALES[SCALE], USERS)
    server = TopKServer(db)
    try:
        report = LoadGenerator(REPLAY).run(server)
        uids = population(USERS)
        before = db.statements_executed
        for uid in uids:
            fresh_top_k(db, uid, REPLAY.k)
        return report, (db.statements_executed - before) / len(uids)
    finally:
        server.close()
        db.close()


def test_repair_beats_invalidate_and_recompute(benchmark):
    """The acceptance benchmark: repair rate, warm rate and avoided SQL."""
    report, recompute = run_once(benchmark, _replay)
    metrics = report.server_stats
    repairs = metrics["serving.result_cache.repairs"]
    fallbacks = metrics["serving.result_cache.repair_fallbacks"]
    entry_rate = repairs / max(1, repairs + fallbacks)
    avoided = repairs * recompute

    reporting.print_report(
        f"Repair, don't recompute — {USERS} users, {REPLAY.requests} "
        f"requests, mutation-heavy mix",
        reporting.format_mapping({
            "reads": report.kind_counts["read"],
            "read hits": report.read_hits,
            "warm rate": f"{report.read_hit_rate:.3f}",
            "replay SQL statements": report.sql_statements,
            "entries repaired": repairs,
            "repair fallbacks": fallbacks,
            "underflow fallbacks":
                metrics["serving.result_cache.repair_underflows"],
            "entry repair rate": f"{entry_rate:.3f}",
            "SQL per from-scratch recompute": f"{recompute:.1f}",
            "recompute SQL the repairs stand in for": f"{avoided:.0f}",
            "audited": report.audit["comparisons"],
            "seconds": f"{report.duration_seconds:.3f}",
        }))

    # (a) Repair dominates.
    assert repairs > 0, "replay produced no mutation that touched an answer"
    assert entry_rate >= REPAIR_RATE_FLOOR
    assert metrics["serving.results.data_invalidations"] == fallbacks

    # (b) Repairs buy warm reads: the recomputes they replace would have cost
    # more SQL than the whole replay, and the warm rate holds its floor.
    assert avoided > report.sql_statements
    assert report.read_hit_rate >= WARM_RATE_FLOOR

    # (c) Every repaired answer survived the after-every-op audit.
    assert report.clean and report.audit["comparisons"] > 0, report.audit


def test_repairs_stay_clean_under_concurrent_load(benchmark):
    """Live repairs under threads + the background auditor: zero mismatches."""
    db = build_world(DblpConfig(n_papers=220, n_authors=90, n_venues=8,
                                seed=7), 32)
    server = TopKServer(db)
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
