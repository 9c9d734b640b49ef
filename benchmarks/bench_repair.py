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
    are happening live;
(d) **the score bound skips most repairs** — a sweep hands an affected
    answer to ``apply_delta`` only when its per-answer score bound cannot
    prove it unchanged: ``serving.result_cache.deltas_applied`` stays at or
    below :data:`DELTA_SHARE_CEILING` of the affected answers
    (``repairs + repair_fallbacks``);
(e) **a profile update is repaired too** — of the cold reads that come
    right after a profile update of the same user, at least
    :data:`PROFILE_REPAIR_FLOOR` are served by a profile repair
    (``serving.result_cache.profile_repairs``), and a repaired read folds
    fewer tuples (``profile_tuples_rescored`` per repair) than a full fold
    scores (PEPS's ``tuples_scored`` per folded read).  Such a read that
    takes a basis extends its build outline instead of building: over
    those reads the graphs built (``serving.sessions.sessions_built``)
    equal the extension fallbacks
    (``serving.sessions.profile_extension_fallbacks.<reason>``), and every
    extension (``serving.sessions.profile_extensions``) is one of them.
"""

from __future__ import annotations

from repro.algorithms.peps import PEPSAlgorithm
from repro.core.hypre.builder import EXTENSION_FALLBACKS
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
#: The ceiling on ``apply_delta`` calls per affected answer (without the
#: bound every affected answer is a call).
DELTA_SHARE_CEILING = 0.4
#: The floor on post-update cold reads served by a profile repair (a user
#: with no answer cached before the update leaves no basis to repair).
PROFILE_REPAIR_FLOOR = 0.5


def _watch_profile_reads(server, watch):
    """Count, in ``watch``, the cold reads right after a profile update of
    the same user, the profile repairs among them, those that took a basis
    and the graphs they built and outlines they extended, and the tuples
    each full PEPS fold scores; returns the undo."""
    outdated = set()
    update_profile, top_k = server.update_profile, server.top_k
    top_k_buffer = PEPSAlgorithm.top_k_buffer

    def updated(uid, profile):
        outdated.add(uid)
        return update_profile(uid, profile)

    def read(uid, k):
        results, sessions = server.results, server.sessions
        repairs = results.profile_repairs
        bases = results.stats()["bases.entries"]
        built, extended = sessions.sessions_built, sessions.profile_extensions
        result = top_k(uid, k)
        if uid in outdated and not result.cache_hit:
            watch["post_update_reads"] += 1
            watch["repaired"] += results.profile_repairs - repairs
            if results.stats()["bases.entries"] < bases:  # took a basis
                watch["with_basis"] += 1
                watch["built"] += sessions.sessions_built - built
                watch["extended"] += sessions.profile_extensions - extended
        outdated.discard(uid)
        return result

    def folded(peps, k, delta=0):
        answer = top_k_buffer(peps, k, delta)
        watch["folds"] += 1
        watch["tuples_scored"] += peps.tuples_scored
        return answer

    server.update_profile, server.top_k = updated, read
    PEPSAlgorithm.top_k_buffer = folded

    def undo():
        del server.update_profile, server.top_k
        PEPSAlgorithm.top_k_buffer = top_k_buffer
    return undo


def _replay():
    """The audited replay, the mean statements one from-scratch recompute
    (``fresh_top_k``) costs per user on the replay's end state, and the
    post-update reads the replay served (see :func:`_watch_profile_reads`)."""
    db = build_world(SCALES[SCALE], USERS)
    server = TopKServer(db)
    watch = dict.fromkeys(
        ("post_update_reads", "repaired", "with_basis", "built", "extended",
         "folds", "tuples_scored"), 0)
    undo = _watch_profile_reads(server, watch)
    try:
        report = LoadGenerator(REPLAY).run(server)
        undo()
        uids = population(USERS)
        before = db.statements_executed
        for uid in uids:
            fresh_top_k(db, uid, REPLAY.k)
        return report, (db.statements_executed - before) / len(uids), watch
    finally:
        server.close()
        db.close()


def test_repair_beats_invalidate_and_recompute(benchmark):
    """The acceptance benchmark: repair rate, warm rate and avoided SQL."""
    report, recompute, watch = run_once(benchmark, _replay)
    metrics = report.server_stats
    repairs = metrics["serving.result_cache.repairs"]
    fallbacks = metrics["serving.result_cache.repair_fallbacks"]
    entry_rate = repairs / max(1, repairs + fallbacks)
    avoided = repairs * recompute
    deltas = metrics["serving.result_cache.deltas_applied"]
    profile_repairs = metrics["serving.result_cache.profile_repairs"]
    profile_rate = watch["repaired"] / max(1, watch["post_update_reads"])
    rescored = (metrics["serving.result_cache.profile_tuples_rescored"]
                / max(1, profile_repairs))
    scored = watch["tuples_scored"] / max(1, watch["folds"])
    extensions = metrics["serving.sessions.profile_extensions"]
    built_instead = {reason: metrics[
        f"serving.sessions.profile_extension_fallbacks.{reason}"]
        for reason in EXTENSION_FALLBACKS}

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
            "apply_delta calls": deltas,
            "post-update cold reads": watch["post_update_reads"],
            "served by a profile repair": watch["repaired"],
            "profile repair rate": f"{profile_rate:.3f}",
            "tuples rescored per profile repair": f"{rescored:.1f}",
            "tuples scored per full fold": f"{scored:.1f}",
            "post-update reads that took a basis": watch["with_basis"],
            "outlines extended (no profile read, no graph)": extensions,
            **{f"graphs built instead ({reason})": count
               for reason, count in built_instead.items()},
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

    # (d) The score bound spares most affected answers the repair call.
    assert deltas <= DELTA_SHARE_CEILING * (repairs + fallbacks)

    # (e) Post-update reads are repaired, for fewer tuples than a fold.
    assert watch["repaired"] == profile_repairs > 0
    assert profile_rate >= PROFILE_REPAIR_FLOOR
    assert watch["folds"] > 0 and rescored < scored
    # ... and a read that took a basis built a graph only on a fallback.
    assert watch["extended"] == extensions > 0
    assert watch["built"] == sum(built_instead.values())
    assert watch["built"] + watch["extended"] == watch["with_basis"]


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
