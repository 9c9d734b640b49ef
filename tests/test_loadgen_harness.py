"""Unit tests for the load-harness machinery itself.

The concurrency stress suite (``test_loadgen_concurrency.py``) proves the
serving stack under the harness; this file pins down the harness's own
parts in isolation — the server lock as the audit's quiesce point, the
equivalence auditor's sampling and verdicts, lock instrumentation, run
configuration validation (and lock restoration when a run fails), and the
schema-versioned ``BENCH_loadgen.json`` envelope CI validates before
uploading.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.concurrency import TimedRLock
from repro.exceptions import ServingError
from repro.loadgen import (
    SCHEMA_VERSION,
    EquivalenceAuditor,
    LoadConfig,
    LoadGenerator,
    bench_envelope,
    build_world,
    load_and_validate,
    loadgen_payload,
    validate_loadgen_payload,
    write_bench_json,
)
from repro.serving import TopKServer
from repro.serving.ops import audit_materialised
from repro.telemetry import instrument_locks
from repro.workload.dblp import DblpConfig
from worlds import DEADLINE_SECONDS, join_with_deadline

DBLP = DblpConfig(n_papers=150, n_authors=60, n_venues=6, seed=11)
USERS = 8
K = 4


@pytest.fixture()
def server():
    db = build_world(DBLP, USERS)
    instance = TopKServer(db)
    yield instance
    instance.close()
    db.close()


# -- the quiesce point ---------------------------------------------------------


def test_an_audit_waits_out_a_parked_cold_read_and_a_warm_hit_does_not(
        server, monkeypatch):
    """The server lock is the harness's one quiesce point: while a cold
    read is parked inside it, ``audit_materialised`` on another thread does
    not return, and a warm hit on a cached user does; once the read is
    released the audit compares both answers."""
    warm_uid, cold_uid = sorted(
        profile.uid for profile in server.db.read_profiles())[:2]
    server.top_k(warm_uid, K)
    inside, release = threading.Event(), threading.Event()
    original = server.sessions.get_or_create

    def parking(uid, basis=None):
        inside.set()
        assert release.wait(DEADLINE_SECONDS)
        return original(uid, basis)

    monkeypatch.setattr(server.sessions, "get_or_create", parking)
    outcome = {}

    def run(name, call):
        return threading.Thread(
            target=lambda: outcome.__setitem__(name, call()), name=name,
            daemon=True)

    cold = run("cold", lambda: server.top_k(cold_uid, K))
    audit = run("audit", lambda: audit_materialised(server,
                                                    [warm_uid, cold_uid]))
    warm = run("warm", lambda: server.top_k(warm_uid, K))
    try:
        cold.start()
        assert inside.wait(DEADLINE_SECONDS)
        audit.start()
        warm.start()
        assert join_with_deadline([warm], timeout=5.0) == []
        assert outcome["warm"].cache_hit
        audit.join(0.2)
        assert audit.is_alive(), "the audit ran beside a cold read"
    finally:
        release.set()
    assert join_with_deadline([cold, audit]) == []
    assert not outcome["cold"].cache_hit
    assert outcome["audit"][:2] == (2, [])


# -- auditor -----------------------------------------------------------------


class TestEquivalenceAuditor:
    def test_clean_on_a_consistent_server(self, server):
        uids = sorted(profile.uid for profile in server.db.read_profiles())
        for uid in uids[:4]:
            server.top_k(uid, K)
        auditor = EquivalenceAuditor(server)
        assert auditor.audit_once() > 0
        assert auditor.clean
        assert auditor.stats()["mismatches"] == 0

    def test_flags_a_corrupted_cached_answer(self, server):
        uids = sorted(profile.uid for profile in server.db.read_profiles())
        server.top_k(uids[0], K)
        entry = server.results.peek(uids[0], K)
        # Corrupt the materialised ranking behind the cache's back.
        object.__setattr__(entry, "ranking", ((999_999, 1.0),))
        auditor = EquivalenceAuditor(server)
        auditor.audit_once()
        assert not auditor.clean
        assert auditor.stats()["mismatches"] == 1
        assert auditor.mismatches[0]["uid"] == uids[0]

    def test_round_robin_covers_the_population(self, server):
        uids = sorted(profile.uid for profile in server.db.read_profiles())
        for uid in uids:
            server.top_k(uid, K)
        auditor = EquivalenceAuditor(server, sample=3)
        passes = 0
        while auditor.comparisons < len(uids) and passes < 10:
            auditor.audit_once()
            passes += 1
        assert auditor.comparisons >= len(uids)

    def test_start_stop_lifecycle(self, server):
        auditor = EquivalenceAuditor(server, interval=0.05)
        auditor.start()
        time.sleep(0.2)
        auditor.stop()
        assert not auditor.is_alive()
        assert auditor.audits >= 1
        assert auditor.clean

    def test_rejects_negative_interval(self, server):
        with pytest.raises(ValueError):
            EquivalenceAuditor(server, interval=-1.0)

    def test_check_audits_the_given_users_and_counts_its_sql(self, server):
        """The inline auditor (interval 0): ``check`` compares the named
        users' materialised answers, and keeps the SQL its recomputations
        issued apart so a run can leave it out of its own count."""
        uids = sorted(profile.uid for profile in server.db.read_profiles())
        server.top_k(uids[0], K)
        auditor = EquivalenceAuditor(server, interval=0)
        before = server.db.statements_executed
        assert auditor.check(uids[:2]) == 1
        assert auditor.sql_statements == \
            server.db.statements_executed - before > 0
        assert auditor.clean


# -- lock instrumentation ----------------------------------------------------


class TestInstrumentation:
    def test_single_server_locks_are_swapped_and_reported(self, server):
        handle = instrument_locks(server)
        names = {lock.stats()["name"] for lock in handle.locks}
        assert names == {"server", "result-cache"}
        # The instrumented server still serves.
        uid = sorted(profile.uid for profile in server.db.read_profiles())[0]
        assert server.top_k(uid, K).ranking
        report = handle.report()
        assert report[0]["wait_seconds"] >= report[-1]["wait_seconds"]
        assert any(record["acquisitions"] > 0 for record in report)

    def test_timed_rlock_counts_contention(self):
        lock = TimedRLock("probe")
        held = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                held.set()
                release.wait(30)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        held.wait(30)
        acquired = threading.Event()

        def contender():
            with lock:
                acquired.set()

        contender_thread = threading.Thread(target=contender, daemon=True)
        contender_thread.start()
        time.sleep(0.05)
        release.set()
        assert acquired.wait(30)
        thread.join(30)
        contender_thread.join(30)
        stats = lock.stats()
        assert stats["acquisitions"] == 2
        assert stats["contended"] == 1
        assert stats["wait_seconds"] > 0.0

    def test_releasing_an_unheld_timed_rlock_keeps_its_accounting(self):
        """Regression: a release by a thread that does not hold the lock
        raised only after setting that thread's depth to -1, so every
        later hold on the thread went unmeasured."""
        lock = TimedRLock("probe")
        with pytest.raises(RuntimeError):
            lock.release()
        with lock:
            time.sleep(0.01)
        stats = lock.stats()
        assert stats["acquisitions"] == 1
        assert stats["hold_seconds"] > 0.0
        assert lock._depth() == 0


# -- configuration validation ------------------------------------------------


class TestLoadConfig:
    def test_rejects_zero_threads(self):
        with pytest.raises(ServingError):
            LoadConfig(threads=0)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ServingError):
            LoadConfig(duration_seconds=0.0)

    def test_rejects_non_positive_qps(self):
        with pytest.raises(ServingError):
            LoadConfig(target_qps=-5.0)

    @pytest.mark.parametrize("interval", [0, 0.0, -0.5])
    def test_rejects_non_positive_audit_interval(self, interval):
        """Negative never; zero — the inline audit — only with one worker."""
        with pytest.raises(ServingError):
            LoadConfig(audit_interval=interval)
        assert LoadConfig(audit_interval=None).audit_interval is None
        if interval == 0:
            assert LoadConfig(threads=1, audit_interval=interval)

    def test_an_op_budget_replaces_the_duration(self, server):
        report = LoadGenerator(LoadConfig(
            threads=2, requests=25, duration_seconds=0.001,
            audit_interval=None)).run(server)
        assert report.ops == 25 and report.clean
        with pytest.raises(ServingError):
            LoadConfig(requests=0)

    def test_a_failing_run_hands_the_original_locks_back(self, server):
        """Regression: a run that failed after lock instrumentation (here:
        the auditor rejecting its interval) left the timed locks swapped in
        for the rest of the server's life."""
        def lock_types():
            return (type(server._lock), type(server.results._lock))

        before = lock_types()
        config = LoadConfig(threads=1, duration_seconds=0.1)
        # Slip a bad interval past the config's own validation, so the run
        # fails between instrumentation and report assembly.
        object.__setattr__(config, "audit_interval", -1.0)
        with pytest.raises(ValueError, match="audit interval"):
            LoadGenerator(config).run(server)
        assert lock_types() == before
        assert TimedRLock not in before


# -- report persistence and validation ---------------------------------------


def _minimal_run(**overrides):
    latency = {"count": 10, "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0,
               "min_ms": 0.5, "mean_ms": 1.2, "max_ms": 4.0}
    run = {
        "mode": "closed", "backend": "sqlite", "threads": 2,
        "duration_seconds": 1.0, "ops": 10, "throughput_ops_per_sec": 10.0,
        "read_hits": 4, "sql_statements": 12,
        "latency": dict(latency),
        "latency_by_kind": {"read": dict(latency)},
        "locks": [{"name": "server", "acquisitions": 1, "contended": 0,
                   "wait_seconds": 0.0, "hold_seconds": 0.1}],
        "audit": {"audits": 1, "comparisons": 2, "mismatches": 0,
                  "errors": []},
        "server_stats": {"backend.sqlite.statements_executed": 7},
        "errors": [],
        "telemetry": {},
    }
    run.update(overrides)
    return run


class TestReportSchema:
    def test_envelope_carries_schema_version_and_sha(self, tmp_path):
        document = write_bench_json(str(tmp_path / "BENCH_loadgen.json"),
                                    "loadgen",
                                    loadgen_payload([_minimal_run()], {}))
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["bench"] == "loadgen"
        assert isinstance(document["git_sha"], str)
        on_disk = json.loads((tmp_path / "BENCH_loadgen.json").read_text())
        assert on_disk == document

    def test_load_and_validate_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_loadgen.json")
        write_bench_json(path, "loadgen",
                         loadgen_payload([_minimal_run()], {"threads": 2}))
        document = load_and_validate(path)
        assert len(document["payload"]["runs"]) == 1

    def test_envelope_helper_alone(self):
        document = bench_envelope("backends", {"arms": []})
        assert document["payload"] == {"arms": []}
        assert document["created_by"] == "repro"

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda run: run.pop("latency"), "missing 'latency'"),
        (lambda run: run["latency"].update(p50_ms=9.0), "not monotone"),
        (lambda run: run.update(threads="2"), "threads"),
        (lambda run: run.update(mode="sideways"), "mode"),
        (lambda run: run["audit"].pop("mismatches"), "audit"),
        (lambda run: run["locks"][0].pop("wait_seconds"), "locks"),
        (lambda run: run.pop("telemetry"), "missing 'telemetry'"),
        (lambda run: run.pop("server_stats"), "missing 'server_stats'"),
        (lambda run: run.pop("sql_statements"), "missing 'sql_statements'"),
        (lambda run: run.update(server_stats={"sql_statements_total": 7}),
         "server_stats missing 'backend.sqlite.statements_executed'"),
        (lambda run: run.update(telemetry={"schema_version": 1}),
         "telemetry missing 'metrics'"),
    ])
    def test_validation_rejects_malformed_runs(self, mutate, fragment):
        run = _minimal_run()
        mutate(run)
        document = bench_envelope("loadgen", loadgen_payload([run], {}))
        with pytest.raises(ValueError, match="invalid loadgen report"):
            validate_loadgen_payload(document)

    def test_validation_rejects_wrong_bench_name(self):
        document = bench_envelope("backends",
                                  loadgen_payload([_minimal_run()], {}))
        with pytest.raises(ValueError, match="bench"):
            validate_loadgen_payload(document)

    def test_validation_rejects_empty_runs(self):
        document = bench_envelope("loadgen", loadgen_payload([], {}))
        with pytest.raises(ValueError, match="runs"):
            validate_loadgen_payload(document)


# -- end-to-end: the generator's report validates ----------------------------


def test_generator_report_passes_the_schema_validator(server):
    config = LoadConfig(threads=2, duration_seconds=0.4, seed=31,
                        k=K, audit_interval=0.2)
    report = LoadGenerator(config).run(server)
    assert report.clean, (report.errors, report.audit)
    document = bench_envelope("loadgen",
                              loadgen_payload([report.as_dict()], {}))
    assert validate_loadgen_payload(document) == 1
