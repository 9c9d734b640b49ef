"""Telemetry overhead gate (ISSUE 7).

Three claims the observability layer makes, asserted with work counters
(no wall-clock comparison):

(a) **the warm path stays warm** — with a full ``Telemetry`` bundle
    observing the server *and* timed locks installed, every warm read is
    still served with zero SQL statements and without touching the server's
    big lock (the acquisition counter does not move across the loop);
(b) **tracing a warm read costs one record** — on an observed,
    lock-instrumented server every warm read records exactly one root
    trace, ``server.top_k``, with no child span: the hit path opens no
    stage below the front door;
(c) **slow traces attribute latency** — a captured slow cold read carries
    one child span per stage (lock wait, build, PEPS), the SQL of the build
    and of PEPS adds up to the root's, and no child claims more time than
    the root.
"""

from __future__ import annotations

from repro.core.preference import UserProfile
from repro.serving import TopKServer
from repro.sqldb.database import Database
from repro.telemetry import Telemetry
from repro.workload.dblp import DblpConfig, generate_dblp
from repro.workload.loader import load_dataset

from bench_utils import run_once

DBLP = DblpConfig(n_papers=250, n_authors=90, n_venues=8, seed=11)
USERS = 12
K = 5
WARM_READS = 400
REPEATS = 3
VENUES = ("VLDB", "SIGMOD", "ICDE", "PVLDB", "PODS", "CIKM")


def _profile(uid: int) -> UserProfile:
    # Two quantitative preferences, so a cold read fetches real id lists.
    profile = UserProfile(uid=uid)
    profile.add_quantitative(f"dblp.venue = '{VENUES[uid % len(VENUES)]}'", 0.9)
    profile.add_quantitative("dblp.year >= 2006 AND dblp.year <= 2010", 0.5)
    return profile


def _build_world():
    db = Database(":memory:")
    load_dataset(db, generate_dblp(DBLP))
    server = TopKServer(db)
    for uid in range(1, USERS + 1):
        server.update_profile(uid, _profile(uid))
        server.top_k(uid, K)  # materialise: every later (uid, K) read is warm
    return db, server


def _warm_loop(server) -> None:
    """``REPEATS`` passes of ``WARM_READS`` warm reads."""
    for _ in range(REPEATS):
        for index in range(WARM_READS):
            result = server.top_k(1 + (index % USERS), K)
            assert result.cache_hit and result.sql_statements == 0


def test_warm_reads_stay_sql_and_lock_free_under_observation(benchmark):
    """(a): full observation never pushes a warm hit onto the slow path."""
    db, server = _build_world()
    telemetry = Telemetry()
    telemetry.observe(server)
    handle = telemetry.instrument_locks(server)
    try:
        lock_before = telemetry.snapshot()[
            "concurrency.lock.server.acquisitions"]
        statements_before = db.statements_executed
        run_once(benchmark, _warm_loop, server)
        after = telemetry.snapshot()
        assert after["concurrency.lock.server.acquisitions"] == lock_before, (
            "a warm read acquired the server's big lock")
        assert db.statements_executed == statements_before, (
            "a warm read reached the backend")
        assert after["serving.server.read_hits"] >= REPEATS * WARM_READS
        assert after["telemetry.traces.recorded"] >= REPEATS * WARM_READS
        print(f"\nwarm reads under full observation: "
              f"{REPEATS * WARM_READS} reads, 0 SQL, "
              f"0 server-lock acquisitions")
    finally:
        handle.uninstrument()
        server.close()
        db.close()


def test_warm_read_records_one_childless_trace(benchmark):
    """(b): each observed warm read is one root trace and nothing below it."""
    db, server = _build_world()
    telemetry = Telemetry()
    telemetry.observe(server)
    handle = telemetry.instrument_locks(server)
    traces = telemetry.traces

    def observed_loop():
        traces.clear()
        for index in range(WARM_READS):
            assert server.top_k(1 + (index % USERS), K).cache_hit
            assert traces.recorded == index + 1
            record = traces.snapshot()[-1]
            assert record.name == "server.top_k", record.tree()
            assert record.children == (), record.tree()
            assert record.sql_statements == 0

    try:
        run_once(benchmark, observed_loop)
    finally:
        handle.uninstrument()
        server.close()
        db.close()
    print(f"\nwarm reads traced: {WARM_READS} reads, {WARM_READS} root "
          f"traces, 0 child spans")


def test_slow_trace_attributes_latency_across_nested_spans(benchmark):
    """(c): a captured slow cold read explains itself stage by stage."""
    db, server = _build_world()
    telemetry = Telemetry(slow_threshold=0.0)  # capture everything as slow
    telemetry.observe(server)
    try:
        uid = 1
        # Force a genuinely cold read: drop the user's cached answers and
        # the shared id lists.
        server.results.invalidate_user(uid)
        server.sessions.runner.clear()
        telemetry.traces.clear()
        result = run_once(benchmark, server.top_k, uid, K + 2)
        assert not result.cache_hit and result.sql_statements > 0

        slow = telemetry.traces.slow()
        assert slow, "cold read was not captured by the slow ring"
        record = slow[-1]
        assert record.name == "server.top_k"
        assert [child.name for child in record.children] == [
            "server.lock_wait", "sessions.get_or_create", "peps.top_k"], \
            record.tree()
        build = record.find("sessions.get_or_create")
        peps = record.find("peps.top_k")
        assert build.sql_statements > 0 and peps.sql_statements > 0, \
            record.tree()
        assert record.sql_statements == result.sql_statements == \
            build.sql_statements + peps.sql_statements
        assert record.seconds >= 0
        # Attribution is consistent: no child claims more time than the root.
        assert all(child.seconds <= record.seconds + 1e-9
                   for child in record.children)
        print("\ncaptured slow trace:")
        print(record.tree())
    finally:
        server.close()
        db.close()
