"""Adversarial mixes on the synthetic family, audited after every op.

Every named hostile mix (:data:`repro.serving.MIXES` — hot-key mutation
storms, delete-heavy churn, profile thrash, repair-boundary updates) replays
serially over the synthetic workload family: one run of
:class:`repro.loadgen.LoadGenerator` per mix, with one worker, an op budget
and the inline audit (every materialised answer compared with a
from-scratch recomputation after every op).

The assertions cover the acceptance criteria:

(a) **audited throughout** — every mix's cell compares materialised answers
    against the from-scratch oracle without a single divergence;
(b) **the mixes bite** — across the cells the repair path fires (nonzero
    repairs), invalidations happen (nonzero profile + data invalidations),
    and at least one mix documented as ``cache_hostile`` drives the
    warm-read rate below the benign DBLP baseline's;
(c) the run's numbers land in the schema-versioned ``BENCH_adversarial.json``
    (written via :func:`bench_utils.write_bench_json`) for the CI artifact.
"""

from __future__ import annotations

from repro.experiments import reporting
from repro.loadgen import LoadConfig, LoadGenerator, build_world
from repro.serving import MIXES, OpMix, TopKServer
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
SEED = 29


def _replay(db, mix_name=None):
    """One audited serial replay of ``mix_name`` over ``db``."""
    config = LoadConfig(threads=1, requests=REQUESTS, k=K, seed=SEED,
                        mix=OpMix.named(mix_name), audit_interval=0)
    with TopKServer(db) as server:
        report = LoadGenerator(config).run(server)
    db.close()
    assert report.clean, (report.errors, report.audit)
    return report


def _run_cell(mix_name):
    """One cell: audited replay of one mix."""
    report = _replay(build_world(SYN, USERS, synthetic_profile_factory(SYN)),
                     mix_name)
    metrics = report.server_stats
    kinds = report.kind_counts
    return {
        "mix": mix_name,
        "ops": report.ops, "reads": kinds["read"],
        "read_hits": report.read_hits,
        "warm_rate": report.read_hit_rate,
        "mutations": kinds["insert"] + kinds["delete"] + kinds["data_update"],
        "sql_statements": report.sql_statements,
        "verified_results": report.audit["comparisons"],
        "repairs": metrics["serving.result_cache.repairs"],
        "data_invalidations": metrics["serving.results.data_invalidations"],
        "profile_invalidations":
            metrics["serving.results.profile_invalidations"],
        "repair_underflows": metrics["serving.result_cache.repair_underflows"],
        "seconds": report.duration_seconds,
    }


def _dblp_baseline():
    """Benign default-mix replay on DBLP: the warm-rate comparison floor."""
    report = _replay(build_world(DBLP, USERS))
    return {"family": "dblp", "mix": None,
            "warm_rate": report.read_hit_rate,
            "reads": report.kind_counts["read"],
            "read_hits": report.read_hits,
            "verified_results": report.audit["comparisons"]}


def _cells():
    return [_run_cell(mix_name) for mix_name in sorted(MIXES)]


def test_adversarial_matrix_verified(benchmark):
    """Every mix's cell passes the inline audit."""
    runs = run_once(benchmark, _cells)
    baseline = _dblp_baseline()

    reporting.print_report(
        f"Adversarial mixes on the synthetic family — {USERS} users, "
        f"{REQUESTS} requests, audited after every op",
        reporting.format_table([
            {"mix": run["mix"], "reads": run["reads"],
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

    # (a) Every cell audited materialised answers against the oracle.
    assert len(runs) == len(MIXES)
    for run in runs:
        assert run["verified_results"] > 0, f"{run['mix']} verified nothing"

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
                   "seed": SEED},
        "runs": runs,
        "dblp_baseline": baseline,
    })

