"""Concurrent load harness SLO cells (ISSUE 6; one lock per server since ISSUE 20).

Runs the :mod:`repro.loadgen` generator closed-loop against a single
:class:`~repro.serving.TopKServer` on each storage engine, with the
background equivalence auditor live, and persists the cells (p50/p95/p99,
throughput at saturation, lock contention, audit outcome) as the
schema-versioned ``BENCH_loadgen.json`` at the repository root.

Assertions — what is machine-independent, no wall-clock constant:

(a) **clean under contention** — every cell finishes with zero worker
    errors and zero audit mismatches (the auditor quiesced a live
    mixed-mutation run several times per cell), and its telemetry snapshot
    is non-empty;
(b) **the artifact is consumable** — the written document passes
    :func:`repro.loadgen.validate_loadgen_payload`, the same structural
    check the CI smoke job applies before uploading it;
(c) **the lock set is the one documented** — the lock report names exactly
    the server lock and its three leaf locks, plus the memory engine's own.
"""

from __future__ import annotations

from repro.loadgen import (
    LoadConfig,
    LoadGenerator,
    load_and_validate,
    loadgen_payload,
)
from repro.serving import ReplayConfig, ReplayDriver, TopKServer
from repro.telemetry import Telemetry
from repro.workload.dblp import DblpConfig

from bench_utils import REPO_ROOT, run_once, write_bench_json

#: The load world (small enough for the CI smoke job, big enough to contend).
DBLP = DblpConfig(n_papers=220, n_authors=90, n_venues=8, seed=7)
#: Profile population the workers draw uids from.
REPLAY = ReplayConfig(users=32, k=5, seed=23)
CAPACITY = 16
BACKENDS = ("sqlite", "memory")
#: Per-cell closed-loop run shape.
LOAD = LoadConfig(threads=2, duration_seconds=1.0, seed=23,
                  k=REPLAY.k, audit_interval=0.3,
                  audit_sample=6)
#: Every lock a server's load report may name (``memory-backend`` on that
#: engine only); ``tests/test_serving_surface.py`` pins the same set.
SERVER_LOCKS = {"server", "sessions", "count-cache", "result-cache"}


def _run_cell(backend: str):
    """One cell: build the world, run the load, return the record."""
    driver = ReplayDriver(REPLAY)
    db = driver.build_world(DBLP, backend=backend)
    server = TopKServer(db, capacity=CAPACITY)
    try:
        report = LoadGenerator(LOAD).run(server, telemetry=Telemetry())
    finally:
        server.close()
        db.close()
    assert report.clean, (
        f"load cell backend={backend} was not clean: "
        f"errors={report.errors} audit={report.audit}")
    assert report.telemetry["metrics"], "telemetry snapshot came back empty"
    assert report.ops > 0 and report.throughput_ops_per_sec > 0
    expected = SERVER_LOCKS | ({"memory-backend"} if backend == "memory"
                               else set())
    assert {lock["name"] for lock in report.locks} == expected
    # The committed artifact is a baseline, not a dump: it carries the
    # numbers (latency, throughput, locks, audit, server_stats), not the
    # run's full telemetry snapshot.
    return {**report.as_dict(), "telemetry": {}}


def test_loadgen_slo_cells(benchmark):
    """Acceptance: one clean cell per backend, artifact valid."""
    runs = [run_once(benchmark, _run_cell, BACKENDS[0])]
    runs += [_run_cell(backend) for backend in BACKENDS[1:]]

    write_bench_json("loadgen", loadgen_payload(runs, {
        "threads": LOAD.threads,
        "duration_seconds": LOAD.duration_seconds,
        "seed": LOAD.seed,
        "users": REPLAY.users,
        "papers": DBLP.n_papers,
        "backends": list(BACKENDS),
        "audit_interval": LOAD.audit_interval,
    }))
    document = load_and_validate(str(REPO_ROOT / "BENCH_loadgen.json"))
    assert len(document["payload"]["runs"]) == len(BACKENDS)
