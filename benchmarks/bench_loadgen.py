"""Concurrent load harness SLO cell (ISSUE 6; one lock per server since ISSUE 20).

Runs the :mod:`repro.loadgen` generator closed-loop against a single
:class:`~repro.serving.TopKServer` over SQLite, with the background
equivalence auditor live, and persists the cell (p50/p95/p99, throughput
at saturation, lock contention, audit outcome) as the schema-versioned
``BENCH_loadgen.json`` at the repository root.

Assertions — what is machine-independent, no wall-clock constant:

(a) **clean under contention** — the cell finishes with zero worker
    errors and zero audit mismatches (the auditor quiesced a live
    mixed-mutation run several times), and its telemetry snapshot is
    non-empty;
(b) **the artifact is consumable** — the written document passes
    :func:`repro.loadgen.validate_loadgen_payload`, the same structural
    check the CI smoke job applies before uploading it;
(c) **the lock set is the one documented** — the lock report names exactly
    the server lock and its three leaf locks.
"""

from __future__ import annotations

from repro.loadgen import (
    LoadConfig,
    LoadGenerator,
    build_world,
    load_and_validate,
    loadgen_payload,
)
from repro.serving import TopKServer
from repro.telemetry import Telemetry
from repro.workload.dblp import DblpConfig

from bench_utils import REPO_ROOT, run_once, write_bench_json

#: The load world (small enough for the CI smoke job, big enough to contend).
DBLP = DblpConfig(n_papers=220, n_authors=90, n_venues=8, seed=7)
#: Profile population the workers draw uids from.
USERS = 32
#: Per-cell closed-loop run shape.
LOAD = LoadConfig(threads=2, duration_seconds=1.0, seed=23,
                  k=5, audit_interval=0.3,
                  audit_sample=6)
#: Every lock a server's load report may name;
#: ``tests/test_serving_surface.py`` pins the same set.
SERVER_LOCKS = {"server", "sessions", "count-cache", "result-cache"}


def _run_cell():
    """The cell: build the world, run the load, return the record."""
    db = build_world(DBLP, USERS)
    server = TopKServer(db)
    try:
        report = LoadGenerator(LOAD).run(server, telemetry=Telemetry())
    finally:
        server.close()
        db.close()
    assert report.clean, (
        f"load cell was not clean: "
        f"errors={report.errors} audit={report.audit}")
    assert report.telemetry["metrics"], "telemetry snapshot came back empty"
    assert report.ops > 0 and report.throughput_ops_per_sec > 0
    assert {lock["name"] for lock in report.locks} == SERVER_LOCKS
    # The committed artifact is a baseline, not a dump: it carries the
    # numbers (latency, throughput, locks, audit, server_stats), not the
    # run's full telemetry snapshot.
    return {**report.as_dict(), "telemetry": {}}


def test_loadgen_slo_cells(benchmark):
    """Acceptance: one clean cell, artifact valid."""
    runs = [run_once(benchmark, _run_cell)]

    write_bench_json("loadgen", loadgen_payload(runs, {
        "threads": LOAD.threads,
        "duration_seconds": LOAD.duration_seconds,
        "seed": LOAD.seed,
        "users": USERS,
        "papers": DBLP.n_papers,
        "audit_interval": LOAD.audit_interval,
    }))
    document = load_and_validate(str(REPO_ROOT / "BENCH_loadgen.json"))
    assert len(document["payload"]["runs"]) == 1
