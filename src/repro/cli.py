"""Command-line interface for the HYPRE reproduction.

Usage::

    python -m repro.cli list
    python -m repro.cli experiment table10 --scale tiny
    python -m repro.cli experiment fig28 --scale small --uid 1
    python -m repro.cli topk --scale tiny --k 10
    python -m repro.cli topk --scale tiny --k 10 --json
    python -m repro.cli serve-replay --scale tiny --users 50 --requests 300
    python -m repro.cli serve-replay --scale tiny --delete-weight 1 --data-update-weight 1
    python -m repro.cli topk --scale tiny --backend memory
    python -m repro.cli serve-replay --scale tiny --backend memory
    python -m repro.cli serve-replay --scale tiny --family synthetic --mix hot-keys
    python -m repro.cli load --scale tiny --threads 2 --duration 2
    python -m repro.cli load --scale tiny --family synthetic --mix delete-churn
    python -m repro.cli load --scale tiny --threads 4 --qps 500
    python -m repro.cli load --scale tiny --backend memory --output BENCH_loadgen.json
    python -m repro.cli serve-replay --scale tiny --telemetry --json
    python -m repro.cli load --scale tiny --telemetry --json
    python -m repro.cli stats --scale tiny --json
    python -m repro.cli stats --scale tiny --prometheus

``list`` prints every available experiment; ``experiment`` regenerates one
table/figure and prints the same rows the benchmark harness reports; ``topk``
runs a personalised Top-K query for one user of the synthetic workload and
prints the statistics of its pairwise-combination index;
``serve-replay`` drives the multi-user serving engine of :mod:`repro.serving`
with a deterministic Zipf-skewed request mix — Top-K reads, profile updates
and the full tuple-mutation spectrum (inserts, deletes, in-place updates,
mixed via the ``--*-weight`` flags) — and compares it against the no-cache
baseline; ``load`` drives the concurrent load harness of
:mod:`repro.loadgen` — N worker threads, closed-loop at saturation or
open-loop against ``--qps``, with a background equivalence audit — and
reports latency SLOs (p50/p95/p99), throughput and per-lock contention
(``--output FILE`` additionally persists the schema-versioned
``BENCH_loadgen.json`` document); ``stats`` drives a short replay under
full observability (:mod:`repro.telemetry` — request tracing, the unified
metrics registry and instrumented locks) and prints the schema-versioned
JSON snapshot (default / ``--json``) or the Prometheus text exposition
(``--prometheus``), with every layer — serving counters, cache behaviour,
lock contention and backend statement accounting — under one naming
scheme.  ``--telemetry`` on ``serve-replay``/``load`` attaches the same
observability to those runs and adds the snapshot to their reports.
``--json`` on ``topk``/``serve-replay``/``load`` switches the
output to machine-readable JSON, and ``--backend {sqlite,memory}`` picks
the storage engine (:mod:`repro.backend`) the workload lives on — answers
are engine-independent, so both values produce the same rankings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Optional, Sequence

from .algorithms import PEPSAlgorithm
from .backend import BACKEND_NAMES, default_backend_name
from .experiments import figures, reporting
from .experiments.context import SCALES, ExperimentContext
from .loadgen import (LoadConfig, LoadGenerator, LoadReport, build_world,
                      loadgen_payload, write_bench_json)
from .serving import MIXES, OpMix, TopKServer, Uncached
from .telemetry import Telemetry, prometheus_text
from .workload.synthetic import SYNTHETIC_SCALES, synthetic_profile_factory

#: Single source of truth for the replay op-mix defaults (the CLI flags and
#: run_serve_replay must not drift from the dataclass).
_REPLAY_DEFAULTS = OpMix()

#: Workload families the serving/load commands can build their world from.
WORKLOAD_FAMILIES = ("dblp", "synthetic")


def _resolve_workload(family: str, scale: str):
    """``(workload_config, profile_factory)`` of one family at one scale.

    The DBLP family replays with the default venue/year profiles
    (:func:`~repro.loadgen.initial_profile`); the synthetic family swaps in
    :func:`~repro.workload.synthetic.synthetic_profile_factory` so replay
    profiles also exercise the generated extra attributes.
    """
    if family not in WORKLOAD_FAMILIES:
        raise ValueError(f"unknown workload family {family!r}; "
                         f"pick one of {sorted(WORKLOAD_FAMILIES)}")
    scales = SYNTHETIC_SCALES if family == "synthetic" else SCALES
    if scale not in scales:
        raise ValueError(f"unknown scale {scale!r}; pick one of {sorted(scales)}")
    config = scales[scale]
    if family == "synthetic":
        return config, synthetic_profile_factory(config)
    return config, None


def _run_world(config: LoadConfig, workload_config: Any, users: int,
               backend: Optional[str], profile_factory: Any = None,
               capacity: Optional[int] = None,
               telemetry: Optional[Telemetry] = None) -> LoadReport:
    """One run over a fresh world, closed afterwards: through a
    :class:`~repro.serving.TopKServer` of ``capacity`` sessions, or — with
    no capacity — the :class:`~repro.serving.Uncached` baseline arm."""
    db = build_world(workload_config, users, backend, profile_factory)
    try:
        if capacity is None:
            return LoadGenerator(config).run(Uncached(db))
        with TopKServer(db, capacity=capacity) as server:
            return LoadGenerator(config).run(server, telemetry=telemetry)
    finally:
        db.close()

#: Experiment name -> (description, needs a uid argument).
EXPERIMENTS: Dict[str, tuple] = {
    "table10": ("Workload statistics", False),
    "table11": ("Preference insertion time", False),
    "table12": ("DEFAULT_VALUE strategies", True),
    "fig13": ("Node insertion time per batch", False),
    "fig17": ("Preference-count distribution", False),
    "fig18_25": ("Utility / tuples / intensity per combination size", True),
    "fig26_27": ("Quantitative preference growth", True),
    "fig28": ("Coverage (QT / QL / QT+QL / HYPRE)", True),
    "fig29_31": ("Combine-Two intensity variation", True),
    "fig32_34": ("Partially-Combine-All intensity variation", True),
    "fig35_36": ("Bias-Random valid vs invalid combinations", True),
    "fig37_38": ("PEPS vs Fagin's TA", True),
    "fig39_40": ("PEPS time vs K", True),
    "prop3_4": ("Combination-count upper bounds", False),
}


def _resolve_uid(ctx: ExperimentContext, uid: Optional[int]) -> int:
    return uid if uid is not None else ctx.focus_users[0]


def run_experiment(name: str, scale: str = "tiny", uid: Optional[int] = None) -> str:
    """Run one experiment and return its formatted report."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; run 'list' to see the options")
    if name == "fig13":
        series = figures.fig13_node_insertion(total_nodes=50_000, batch_size=10_000)
        rows = [{"nodes": total, "seconds": elapsed} for total, elapsed in series]
        return reporting.format_table(rows)
    if name == "prop3_4":
        result = figures.prop3_4_counting()
        rows = [{"N": n, "AND-only": a, "AND/OR": b} for n, a, b in result["growth"]]
        return reporting.format_table(rows)

    ctx = ExperimentContext.create(scale=scale, profile_users=25)
    try:
        user = _resolve_uid(ctx, uid)
        if name == "table10":
            return reporting.format_mapping(figures.table10_statistics(ctx))
        if name == "table11":
            return reporting.format_mapping(figures.table11_insertion_time(ctx))
        if name == "table12":
            return reporting.format_mapping(figures.table12_default_values(ctx, user))
        if name == "fig17":
            histogram = figures.fig17_preference_distribution(ctx)
            rows = [{"preferences": count, "users": users}
                    for count, users in histogram.items()]
            return reporting.format_table(rows)
        if name == "fig18_25":
            output = figures.fig18_25_utility_and_tuples(ctx, user)
            rows = [{"size": size, **row} for size, entries in output.items()
                    for row in entries]
            return reporting.format_table(rows)
        if name == "fig26_27":
            growth = figures.fig26_27_preference_growth(ctx, user)
            return reporting.format_mapping({
                "uid": growth["uid"],
                "original_count": growth["original_count"],
                "graph_count": growth["graph_count"],
                "growth_factor": growth["growth_factor"],
            })
        if name == "fig28":
            rows = [{"source": report.label, "covered": report.covered_tuples,
                     "fraction": report.fraction}
                    for report in figures.fig28_coverage(ctx, user)]
            return reporting.format_table(rows)
        if name == "fig29_31":
            series = figures.fig29_31_combine_two(ctx, user, first_limit=2)
            lines = [reporting.format_series(
                [row["intensity"] for row in rows], name=name_)
                for name_, rows in series.items()]
            return "\n".join(lines)
        if name == "fig32_34":
            result = figures.fig32_34_partially_combine_all(ctx, user)
            lines = [reporting.format_series(values, name=f"size={size}")
                     for size, values in result["by_size"].items()]
            return "\n".join(lines)
        if name == "fig35_36":
            rows = figures.fig35_36_bias_random(ctx, user, repetitions=5)
            return reporting.format_table(rows)
        if name == "fig37_38":
            result = figures.fig37_38_peps_vs_ta(ctx, user)
            summary = {key: value for key, value in result.items()
                       if not key.endswith("series")}
            return reporting.format_mapping(summary)
        if name == "fig39_40":
            rows = figures.fig39_40_peps_time(ctx, user, k_values=(10, 100, 200))
            return reporting.format_table(rows)
        raise ValueError(f"experiment {name!r} is registered but not dispatched")
    finally:
        ctx.close()


def run_topk(scale: str, k: int, uid: Optional[int] = None,
             as_json: bool = False,
             backend: Optional[str] = None) -> str:
    """Run a personalised Top-K query on the synthetic workload.

    The pairwise combination index's statistics are reported alongside the
    ranking.  ``as_json`` renders both as one machine-readable JSON object
    instead of the text table.
    ``backend`` picks the storage engine answering the enhanced queries
    (``sqlite`` / ``memory``; default: the ``REPRO_BACKEND`` environment
    default) — the ranking is engine-independent.
    """
    ctx = ExperimentContext.create(scale=scale, profile_users=25,
                                   backend=backend)
    try:
        user = _resolve_uid(ctx, uid)
        peps = PEPSAlgorithm(ctx.runner, ctx.preferences(user))
        index = peps.pair_index
        papers = {paper.pid: paper for paper in ctx.dataset.papers}
        rows = []
        for pid, intensity in peps.top_k(k):
            paper = papers[pid]
            rows.append({"pid": pid, "intensity": intensity,
                         "venue": paper.venue, "year": paper.year,
                         "title": paper.title})
        index_stats = {"pairs": len(index),
                       "pairs_counted": index.pairs_counted,
                       "pairs_prefiltered": index.pairs_prefiltered,
                       "refreshes": index.refreshes}
        if as_json:
            return json.dumps({"uid": user, "k": k, "scale": scale,
                               "backend": ctx.db.backend_name,
                               "results": rows, "index": index_stats},
                              indent=2, sort_keys=True)
        return (f"Top-{k} papers for uid={user}\n"
                + reporting.format_table(
                    rows, columns=["intensity", "venue", "year", "title"])
                + f"\npair index: {index_stats['pairs']} pairs, "
                  f"{index_stats['pairs_counted']} counted, "
                  f"{index_stats['pairs_prefiltered']} pre-filtered, "
                  f"{index_stats['refreshes']} refreshes")
    finally:
        ctx.close()


def _arm(report: LoadReport) -> Dict[str, Any]:
    """One replay arm's JSON record (the telemetry snapshot is reported
    once, at the top level)."""
    return {key: value for key, value in report.as_dict().items()
            if key != "telemetry"}


def run_serve_replay(scale: str = "tiny",
                     users: int = 50,
                     requests: int = 300,
                     k: int = 5,
                     seed: int = 17,
                     capacity: int = 16,
                     baseline: bool = True,
                     read_weight: float = _REPLAY_DEFAULTS.read_weight,
                     update_weight: float = _REPLAY_DEFAULTS.update_weight,
                     insert_weight: float = _REPLAY_DEFAULTS.insert_weight,
                     delete_weight: float = _REPLAY_DEFAULTS.delete_weight,
                     data_update_weight: float = (
                         _REPLAY_DEFAULTS.data_update_weight),
                     as_json: bool = False,
                     backend: Optional[str] = None,
                     telemetry: bool = False,
                     family: str = "dblp",
                     mix: Optional[str] = None) -> str:
    """Replay a deterministic multi-user workload through the serving engine.

    Builds one world per arm (identical datasets and schedules), runs the
    :class:`~repro.serving.TopKServer` arm and — unless ``baseline`` is
    disabled — the no-cache baseline arm, and reports request counters,
    SQL statements and cache behaviour side by side.  The five weights
    control the operation mix (reads, profile updates, tuple
    inserts/deletes/in-place updates); a weight of zero removes that kind
    entirely.  ``backend`` picks the
    storage engine every arm's world is built on (``sqlite`` / ``memory``;
    default: the ``REPRO_BACKEND`` environment default) — the replay
    answers are engine-independent, only the cost profile changes.
    ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry` (request
    tracing, unified metrics, instrumented locks) to the serving arm and
    reports its end-of-run snapshot alongside the arm comparison.
    ``family`` picks the workload family the world is generated from
    (``dblp`` / ``synthetic``); ``mix`` replaces the five weight knobs with
    a named adversarial mix from :data:`~repro.serving.MIXES` (hot-key
    mutation storms, delete-heavy churn, profile thrash, repair-boundary
    updates).
    """
    workload_config, profile_factory = _resolve_workload(family, scale)
    op_mix = OpMix.named(mix) if mix is not None else OpMix(
        read_weight=read_weight, update_weight=update_weight,
        insert_weight=insert_weight, delete_weight=delete_weight,
        data_update_weight=data_update_weight)
    # A serial replay: one worker, an op budget, no audit.
    config = LoadConfig(threads=1, requests=requests, mix=op_mix, k=k,
                        seed=seed, audit_interval=None)
    serving_report = _run_world(
        config, workload_config, users, backend, profile_factory,
        capacity=capacity, telemetry=Telemetry() if telemetry else None)
    metrics = serving_report.server_stats
    snapshot = serving_report.telemetry or None
    baseline_report = (_run_world(config, workload_config, users, backend,
                                  profile_factory) if baseline else None)

    # The per-kind mutation counters the server tracks (inserts, deletes,
    # in-place tuple updates), surfaced explicitly in both output modes.
    mutations = {kind: metrics[f"serving.server.{kind}"]
                 for kind in ("inserts", "deletes", "tuple_updates")}

    if as_json:
        payload: Dict[str, Any] = {
            "config": {"scale": scale, "users": users, "requests": requests,
                       "k": k, "seed": seed, "capacity": capacity,
                       "backend": backend or default_backend_name(),
                       "family": family, "mix": mix,
                       "read_weight": read_weight,
                       "update_weight": update_weight,
                       "insert_weight": insert_weight,
                       "delete_weight": delete_weight,
                       "data_update_weight": data_update_weight},
            "serving": _arm(serving_report),
            "baseline": _arm(baseline_report) if baseline_report else None,
            "server": metrics,
            "mutations": mutations,
            "telemetry": snapshot,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    arms = {"serving": serving_report}
    if baseline_report is not None:
        arms["baseline"] = baseline_report
    table = reporting.format_table([
        {"arm": label, "ops": arm.ops, **arm.kind_counts,
         "read_hits": arm.read_hits, "sql_statements": arm.sql_statements,
         "seconds": f"{arm.duration_seconds:.3f}"}
        for label, arm in arms.items()])
    lines = [f"Serve-replay ({users} users, {requests} requests, "
             f"k={k}, scale={scale}, family={family}"
             + (f", mix={mix}" if mix else "")
             + f", backend={backend or default_backend_name()})", table]
    lines.append(
        f"sessions: {metrics['serving.sessions.resident']}/"
        f"{metrics['serving.sessions.capacity']} resident, "
        f"{metrics['serving.sessions.evictions']} evictions; result cache: "
        f"{metrics['serving.results.hits']} hits, "
        f"{metrics['serving.results.data_invalidations']} "
        f"data-invalidated, {metrics['serving.results.data_spared']} spared")
    lines.append(
        f"mutations: {mutations['inserts']} inserts, "
        f"{mutations['deletes']} deletes, "
        f"{mutations['tuple_updates']} in-place updates")
    if baseline_report is not None:
        saved = baseline_report.sql_statements - serving_report.sql_statements
        lines.append(f"SQL statements saved vs no-cache baseline: {saved} "
                     f"({baseline_report.sql_statements} -> "
                     f"{serving_report.sql_statements})")
    if snapshot is not None:
        traces = snapshot["traces"]["buffer"]
        lines.append(
            f"telemetry: {len(snapshot['metrics'])} metrics, "
            f"{traces['recorded']} traces recorded "
            f"({traces['slow_recorded']} slow)")
    return "\n".join(lines)


def run_load(scale: str = "tiny",
             users: int = 50,
             threads: int = 2,
             duration: float = 2.0,
             qps: Optional[float] = None,
             backend: Optional[str] = None,
             seed: int = 17,
             k: int = 5,
             capacity: int = 16,
             audit_interval: Optional[float] = 0.5,
             output: Optional[str] = None,
             as_json: bool = False,
             telemetry: bool = False,
             family: str = "dblp",
             mix: Optional[str] = None) -> str:
    """Drive the concurrent load harness against a live serving instance.

    Builds one world (``users`` synthetic profiles, persisted up front),
    fronts it with a :class:`~repro.serving.TopKServer` and runs
    :class:`~repro.loadgen.LoadGenerator` over it: ``threads`` workers in
    closed loop (``qps`` ``None``; the achieved rate is the throughput at
    saturation) or open loop against the target arrival rate, with the
    background equivalence auditor quiescing traffic every
    ``audit_interval`` seconds (``0`` disables it).  ``output`` persists
    the schema-versioned ``BENCH_loadgen.json`` document for the run.
    ``telemetry`` runs under a :class:`~repro.telemetry.Telemetry`, so the
    report (and the persisted document) carries the unified metrics/trace
    snapshot for the run.  ``family`` picks the workload family
    (``dblp`` / ``synthetic``); ``mix`` swaps the benign default
    :class:`~repro.serving.OpMix` for a named adversarial one (via
    :meth:`~repro.serving.OpMix.named`), including its hot/boundary
    mutation targeting and base-relation churn behaviour.
    """
    workload_config, profile_factory = _resolve_workload(family, scale)
    config = LoadConfig(threads=threads, duration_seconds=duration,
                        target_qps=qps, mix=OpMix.named(mix), k=k,
                        seed=seed, audit_interval=audit_interval or None)
    report = _run_world(config, workload_config, users, backend,
                        profile_factory, capacity=capacity,
                        telemetry=Telemetry() if telemetry else None)

    run_record = report.as_dict()
    config_record = {"scale": scale, "users": users, "threads": threads,
                     "duration_seconds": duration, "target_qps": qps,
                     "backend": backend or default_backend_name(),
                     "family": family, "mix": mix,
                     "seed": seed, "k": k, "capacity": capacity,
                     "audit_interval": audit_interval}
    if output:
        write_bench_json(output, "loadgen",
                         loadgen_payload([run_record], config_record))

    if as_json:
        return json.dumps({"config": config_record, "run": run_record},
                          indent=2, sort_keys=True)

    latency = report.latency
    lines = [
        f"Load run ({report.mode} loop, {report.threads} threads"
        f", {report.duration_seconds:.2f}s, scale={scale}, family={family}"
        + (f", mix={mix}" if mix else "")
        + f", backend={report.backend})",
        f"ops: {report.ops} "
        f"({report.throughput_ops_per_sec:.0f} ops/sec"
        + (f", target {qps:.0f} QPS, {report.late_starts} late starts)"
           if qps else " at saturation)"),
        f"latency: p50 {latency['p50_ms']:.2f} ms, "
        f"p95 {latency['p95_ms']:.2f} ms, p99 {latency['p99_ms']:.2f} ms "
        f"(max {latency['max_ms']:.2f} ms)",
        f"reads: {report.kind_counts.get('read', 0)} "
        f"({report.read_hit_rate:.0%} warm)",
    ]
    audit = report.audit
    lines.append(f"audit: {audit['audits']} passes, "
                 f"{audit['comparisons']} comparisons, "
                 f"{audit['mismatches']} mismatches")
    if report.locks:
        hot = report.locks[0]
        lines.append(f"hottest lock: {hot['name']} "
                     f"({hot['contended']}/{hot['acquisitions']} contended, "
                     f"{hot['wait_seconds']:.3f}s waiting)")
    if report.telemetry:
        buffer = report.telemetry["traces"]["buffer"]
        lines.append(f"telemetry: {len(report.telemetry['metrics'])} metrics, "
                     f"{buffer['recorded']} traces recorded "
                     f"({buffer['slow_recorded']} slow)")
    if report.errors:
        lines.append("errors: " + "; ".join(report.errors))
    if output:
        lines.append(f"wrote {output}")
    if not report.clean:
        raise RuntimeError("\n".join(lines) + "\nload run was NOT clean")
    return "\n".join(lines)


def run_stats(scale: str = "tiny",
              users: int = 25,
              requests: int = 120,
              k: int = 5,
              seed: int = 17,
              capacity: int = 16,
              backend: Optional[str] = None,
              prometheus: bool = False,
              slow_ms: float = 250.0) -> str:
    """Drive a short replay under full observability and export the metrics.

    Builds one world, fronts it with a :class:`~repro.serving.TopKServer`,
    attaches a :class:`~repro.telemetry.Telemetry` — request-scoped
    tracing, the unified metrics registry, instrumented locks — replays a
    deterministic mixed workload, and returns the end-of-run export: the
    schema-versioned JSON snapshot by default, or the Prometheus text
    exposition with ``prometheus``.  Requests slower than ``slow_ms`` land
    in the slow-trace capture, so the snapshot attributes their latency
    span by span.
    """
    workload_config, _ = _resolve_workload("dblp", scale)
    config = LoadConfig(threads=1, requests=requests, k=k, seed=seed,
                        audit_interval=None)
    report = _run_world(config, workload_config, users, backend,
                        capacity=capacity,
                        telemetry=Telemetry(slow_threshold=slow_ms / 1000.0))
    if prometheus:
        return prometheus_text(report.telemetry["metrics"])
    return json.dumps(report.telemetry, indent=2, sort_keys=True)


def list_experiments() -> str:
    """Return the formatted list of available experiments."""
    rows = [{"name": name, "description": description, "per-user": "yes" if per_user else "no"}
            for name, (description, per_user) in EXPERIMENTS.items()]
    return reporting.format_table(rows)


# -- shared option groups ------------------------------------------------------------
# Each flag is declared once, here; a sub-command picks the groups it takes
# through `_options` and overrides defaults with `set_defaults`.


def _scale_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="tiny", choices=sorted(SCALES))


def _query_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--backend", default=None,
                        choices=sorted(BACKEND_NAMES),
                        help="storage engine the workload lives on "
                             "(default: the REPRO_BACKEND environment "
                             "default)")


def _json_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")


def _population_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=50,
                        help="size of the synthetic user population")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--capacity", type=int, default=16,
                        help="maximum number of resident user sessions")


def _workload_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="dblp",
                        choices=sorted(WORKLOAD_FAMILIES),
                        help="workload family the world is generated from")
    parser.add_argument("--mix", default=None, choices=sorted(MIXES),
                        help="drive a named adversarial mix instead of the "
                             "benign default (hot-key storms, delete churn, "
                             "profile thrash, repair-boundary updates)")
    parser.add_argument("--telemetry", action="store_true",
                        help="run under request tracing, the unified metrics "
                             "registry and lock instrumentation, and report "
                             "the snapshot")


def _options(*groups: Callable[[argparse.ArgumentParser], None]
             ) -> argparse.ArgumentParser:
    """A parent parser carrying ``groups`` — a fresh one per sub-command:
    argparse shares a parent's action objects with every child, so a
    per-command ``set_defaults`` on a shared parent would leak."""
    parent = argparse.ArgumentParser(add_help=False)
    for add in groups:
        add(parent)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="HYPRE preference-personalization reproduction")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    experiment = subparsers.add_parser(
        "experiment", parents=[_options(_scale_option)],
        help="run one table/figure experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--uid", type=int, default=None,
                            help="user id (default: the preference-richest user)")

    topk = subparsers.add_parser(
        "topk", parents=[_options(_scale_option, _query_options, _json_option)],
        help="run a personalised Top-K query")
    topk.set_defaults(k=10)
    topk.add_argument("--uid", type=int, default=None)

    replay = subparsers.add_parser(
        "serve-replay",
        parents=[_options(_scale_option, _query_options, _json_option,
                          _population_options, _workload_options)],
        help="replay a Zipf multi-user workload through the serving engine")
    replay.add_argument("--requests", type=int, default=300,
                        help="number of operations in the replay schedule")
    replay.add_argument("--no-baseline", action="store_true",
                        help="skip the no-cache baseline arm")
    replay.add_argument("--read-weight", type=float,
                        default=_REPLAY_DEFAULTS.read_weight,
                        help="relative weight of Top-K reads in the mix")
    replay.add_argument("--update-weight", type=float,
                        default=_REPLAY_DEFAULTS.update_weight,
                        help="relative weight of profile updates in the mix")
    replay.add_argument("--insert-weight", type=float,
                        default=_REPLAY_DEFAULTS.insert_weight,
                        help="relative weight of tuple inserts in the mix")
    replay.add_argument("--delete-weight", type=float,
                        default=_REPLAY_DEFAULTS.delete_weight,
                        help="relative weight of tuple deletes in the mix")
    replay.add_argument("--data-update-weight", type=float,
                        default=_REPLAY_DEFAULTS.data_update_weight,
                        help="relative weight of in-place tuple updates "
                             "in the mix")

    load = subparsers.add_parser(
        "load",
        parents=[_options(_scale_option, _query_options, _json_option,
                          _population_options, _workload_options)],
        help="hammer a live server with concurrent threads and report SLOs")
    load.add_argument("--threads", type=int, default=2,
                      help="number of load-generator worker threads")
    load.add_argument("--duration", type=float, default=2.0,
                      help="run length in seconds")
    load.add_argument("--qps", type=float, default=None,
                      help="open-loop target arrival rate across all "
                           "workers (default: closed loop at saturation)")
    load.add_argument("--audit-interval", type=float, default=0.5,
                      help="seconds between background equivalence audits "
                           "(0 disables auditing)")
    load.add_argument("--output", default=None, metavar="FILE",
                      help="also write the schema-versioned "
                           "BENCH_loadgen.json document to FILE")

    stats = subparsers.add_parser(
        "stats",
        parents=[_options(_scale_option, _query_options, _population_options)],
        help="replay a short workload under telemetry and export the metrics")
    stats.set_defaults(users=25)
    stats.add_argument("--requests", type=int, default=120,
                       help="number of operations in the replay schedule")
    stats.add_argument("--slow-ms", type=float, default=250.0,
                       help="slow-request capture threshold in milliseconds")
    # Its own --json: mutually exclusive with --prometheus, which a flag
    # inherited from a parent parser cannot be.
    output_format = stats.add_mutually_exclusive_group()
    output_format.add_argument("--json", action="store_true", dest="as_json",
                               help="emit the schema-versioned JSON snapshot "
                                    "(the default)")
    output_format.add_argument("--prometheus", action="store_true",
                               help="emit the Prometheus text exposition "
                                    "instead of JSON")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # Every flag's dest is the keyword the command's run_* function takes.
    options = vars(build_parser().parse_args(argv))
    command = options.pop("command")
    try:
        if command == "list":
            print(list_experiments())
        elif command == "experiment":
            print(run_experiment(**options))
        elif command == "topk":
            print(run_topk(**options))
        elif command == "serve-replay":
            options["baseline"] = not options.pop("no_baseline")
            print(run_serve_replay(**options))
        elif command == "load":
            print(run_load(**options))
        elif command == "stats":
            del options["as_json"]  # JSON is the default output
            print(run_stats(**options))
    except Exception as exc:  # pragma: no cover - defensive top-level handler
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
