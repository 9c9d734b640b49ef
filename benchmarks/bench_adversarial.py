"""Adversarial mixes on the synthetic family, differentially verified (ISSUE 9).

Every named hostile mix (:data:`repro.serving.MIXES` — hot-key mutation
storms, delete-heavy churn, profile thrash, repair-boundary updates) replays
over the synthetic workload family on **both** storage engines and through
**both** topologies (single server, 2-shard cluster), always with the
after-every-mutation equivalence verifier on; each mix additionally runs the
three-way cross-backend lockstep differential (SQLite cluster vs memory
single server vs fresh recomputation).

The assertions cover the acceptance criteria:

(a) **verified throughout** — every cell of the mix x backend x shards
    matrix verifies at least one materialised answer against the
    from-scratch oracle, and every per-mix lockstep differential performs
    comparisons without a single divergence;
(b) **the mixes bite** — across the matrix the repair path fires (nonzero
    repairs), invalidations happen (nonzero profile + data invalidations),
    and at least one mix documented as ``cache_hostile`` drives the
    warm-read rate below the benign DBLP baseline's;
(c) the run's numbers land in the schema-versioned ``BENCH_adversarial.json``
    (written via :func:`bench_utils.write_bench_json`) for the CI artifact.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.serving import (MIXES, OpMix, ReplayConfig, ReplayDriver,
                           TopKServer, create_server)
from repro.workload.dblp import DblpConfig
from repro.workload.synthetic import SyntheticConfig, synthetic_profile_factory

from bench_utils import run_once, write_bench_json

#: The synthetic world every arm replays over: two extra attributes, mild
#: skew, strong enough correlation that predicates overlap across columns.
SYN = SyntheticConfig(n_papers=240, n_authors=70, width=2,
                      venue_cardinality=10, extra_cardinality=8,
                      correlation=0.35, seed=13)
#: The benign comparison world for the warm-rate floor: same size class,
#: default op mix, DBLP family.
DBLP = DblpConfig(n_papers=240, n_authors=70, n_venues=10, seed=13)
USERS = 22
REQUESTS = 140
K = 5
CAPACITY = 12
SEED = 29
BACKENDS = ("sqlite", "memory")
SHARD_COUNTS = (1, 2)
#: Reduced shape for the per-mix three-way lockstep differential (it builds
#: three worlds and compares after every mutation).
DIFF_USERS = 14
DIFF_REQUESTS = 70


def _driver(mix_name):
    return ReplayDriver(
        ReplayConfig(users=USERS, requests=REQUESTS, k=K, seed=SEED,
                     mix=OpMix.named(mix_name)),
        profile_factory=synthetic_profile_factory(SYN))


def _run_cell(mix_name, backend, shards):
    """One matrix cell: verified replay of one mix on one engine/topology."""
    driver = _driver(mix_name)
    db = driver.build_world(SYN, backend=backend)
    server = create_server(db, shards=shards, capacity=CAPACITY)
    try:
        report = driver.run(server, driver.schedule(db), verify=True,
                            label=f"{mix_name}/{backend}/shards={shards}")
        metrics = server.metrics()
    finally:
        server.close()
        db.close()
    return {
        "mix": mix_name, "backend": backend, "shards": shards,
        "ops": report.ops, "reads": report.reads,
        "read_hits": report.read_hits,
        "warm_rate": report.read_hits / max(1, report.reads),
        "mutations": report.inserts + report.deletes + report.data_updates,
        "sql_statements": report.sql_statements,
        "verified_results": report.verified_results,
        "repairs": metrics["serving.result_cache.repairs"],
        "data_invalidations": metrics["serving.results.data_invalidations"],
        "profile_invalidations":
            metrics["serving.results.profile_invalidations"],
        "repair_underflows": metrics["serving.result_cache.repair_underflows"],
        "seconds": report.seconds,
    }


def _dblp_baseline():
    """Benign default-mix replay on DBLP: the warm-rate comparison floor."""
    driver = ReplayDriver(ReplayConfig(users=USERS, requests=REQUESTS,
                                       k=K, seed=SEED))
    db = driver.build_world(DBLP)
    server = TopKServer(db, capacity=CAPACITY)
    try:
        report = driver.run(server, driver.schedule(db), verify=True,
                            label="dblp-benign")
    finally:
        server.close()
        db.close()
    return {"family": "dblp", "mix": None,
            "warm_rate": report.read_hits / max(1, report.reads),
            "reads": report.reads, "read_hits": report.read_hits,
            "verified_results": report.verified_results}


def _matrix():
    return [_run_cell(mix_name, backend, shards)
            for mix_name in sorted(MIXES)
            for backend in BACKENDS
            for shards in SHARD_COUNTS]


def test_adversarial_matrix_verified(benchmark):
    """Every mix x backend x shards cell passes the equivalence verifier."""
    runs = run_once(benchmark, _matrix)
    baseline = _dblp_baseline()

    reporting.print_report(
        f"Adversarial mixes on the synthetic family — {USERS} users, "
        f"{REQUESTS} requests, verified after every mutation",
        reporting.format_table([
            {"mix": run["mix"], "backend": run["backend"],
             "shards": run["shards"], "reads": run["reads"],
             "warm_rate": f"{run['warm_rate']:.3f}",
             "mutations": run["mutations"], "repairs": run["repairs"],
             "data_inv": run["data_invalidations"],
             "profile_inv": run["profile_invalidations"],
             "verified": run["verified_results"]}
            for run in runs]))
    reporting.print_report(
        "Benign DBLP baseline (default mix)",
        reporting.format_mapping({
            "warm_rate": f"{baseline['warm_rate']:.3f}",
            "reads": baseline["reads"],
            "verified": baseline["verified_results"]}))

    # (a) Every cell verified materialised answers against the oracle.
    assert len(runs) == len(MIXES) * len(BACKENDS) * len(SHARD_COUNTS)
    for run in runs:
        assert run["verified_results"] > 0, (
            f"{run['mix']} on {run['backend']}/shards={run['shards']} "
            f"verified nothing")

    # (b) The mixes exercise the maintenance machinery: repairs fire,
    # invalidations happen (the data side repairs in place, so the
    # invalidation pressure comes from profile churn plus any repair
    # underflows), and at least one documented cache-hostile mix drives
    # the warm-read rate below the benign DBLP baseline.
    assert sum(run["repairs"] for run in runs) > 0
    assert sum(run["data_invalidations"] + run["profile_invalidations"]
               for run in runs) > 0
    hostile_rates = [run["warm_rate"] for run in runs
                     if MIXES[run["mix"]].cache_hostile]
    assert hostile_rates and min(hostile_rates) < baseline["warm_rate"], (
        f"no cache-hostile mix got below the benign warm rate "
        f"{baseline['warm_rate']:.3f}")

    write_bench_json("adversarial", {
        "workload": {"family": "synthetic", "n_papers": SYN.n_papers,
                     "width": SYN.width, "correlation": SYN.correlation,
                     "seed": SYN.seed},
        "replay": {"users": USERS, "requests": REQUESTS, "k": K,
                   "capacity": CAPACITY, "seed": SEED},
        "runs": runs,
        "dblp_baseline": baseline,
    })


def test_lockstep_differential_per_mix(benchmark):
    """Each mix passes the three-way cross-backend lockstep differential."""
    def sweep():
        checked = {}
        for mix_name in sorted(MIXES):
            driver = ReplayDriver(
                ReplayConfig(users=DIFF_USERS, requests=DIFF_REQUESTS,
                             k=K, seed=SEED, mix=OpMix.named(mix_name)),
                profile_factory=synthetic_profile_factory(SYN))
            checked[mix_name] = driver.verify_cluster_equivalence(
                SYN, shards=2, capacity=CAPACITY, server_backend="memory")
        return checked

    checked = run_once(benchmark, sweep)
    reporting.print_report(
        "Cross-backend lockstep differential (SQLite cluster vs memory "
        "single server vs fresh recomputation)",
        reporting.format_mapping({mix_name: f"{count} comparisons"
                                  for mix_name, count in checked.items()}))
    assert set(checked) == set(MIXES)
    for mix_name, count in checked.items():
        assert count > 0, f"{mix_name} differential compared nothing"


def test_synthetic_worlds_identical_across_backends(benchmark):
    """Both engines load the synthetic family to identical statistics."""
    def shapes():
        out = {}
        for backend in BACKENDS:
            driver = _driver(None)
            db = driver.build_world(SYN, backend=backend)
            try:
                out[backend] = (db.table_counts(), db.workload_shape(),
                                db.max_paper_id(), db.max_author_id())
            finally:
                db.close()
        return out

    out = run_once(benchmark, shapes)
    assert out["sqlite"] == out["memory"]
