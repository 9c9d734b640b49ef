"""Command-line interface for the HYPRE reproduction.

Usage::

    python -m repro.cli list
    python -m repro.cli experiment table10 --scale tiny
    python -m repro.cli experiment fig28 --scale small --uid 1
    python -m repro.cli topk --scale tiny --k 10
    python -m repro.cli topk --scale tiny --k 10 --json
    python -m repro.cli load --scale tiny --threads 2 --duration 2
    python -m repro.cli load --scale tiny --threads 4 --qps 500
    python -m repro.cli load --scale tiny --output BENCH_loadgen.json
    python -m repro.cli load --scale tiny --telemetry --json
    python -m repro.cli stats --scale tiny --json
    python -m repro.cli stats --scale tiny --prometheus

``list`` prints every available experiment; ``experiment`` regenerates one
table/figure and prints the same rows the benchmark harness reports; ``topk``
runs a personalised Top-K query for one user of the synthetic workload and
prints the statistics of its pairwise-combination index; ``load`` drives the
multi-user serving engine of :mod:`repro.serving` through the concurrent
load harness of :mod:`repro.loadgen` — N worker threads applying a
deterministic Zipf-skewed mix of Top-K reads, profile updates and tuple
inserts, deletes and in-place updates, closed-loop at saturation or
open-loop against ``--qps``, with a background equivalence audit — and
reports latency SLOs (p50/p95/p99), throughput and per-lock contention
(``--output FILE`` additionally persists the schema-versioned
``BENCH_loadgen.json`` document); ``stats`` drives a short replay under
full observability (:mod:`repro.telemetry` — request tracing, the unified
metrics registry and instrumented locks) and prints the schema-versioned
JSON snapshot (default / ``--json``) or the Prometheus text exposition
(``--prometheus``), with every layer — serving counters, cache behaviour,
lock contention and backend statement accounting — under one naming
scheme.  ``--telemetry`` on ``load`` attaches the same observability to
the run and adds the snapshot to its report.  ``--json`` on
``topk``/``load`` switches the output to machine-readable JSON.  Every
command's workload lives in SQLite
(:class:`~repro.sqldb.database.Database`); no flag picks another engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional, Sequence

from .algorithms import PEPSAlgorithm
from .experiments import figures, reporting
from .experiments.context import SCALES, ExperimentContext
from .loadgen import (LoadConfig, LoadGenerator, LoadReport, build_world,
                      loadgen_payload, write_bench_json)
from .serving import TopKServer
from .telemetry import Telemetry, prometheus_text


def _run_world(config: LoadConfig, scale: str, users: int,
               telemetry: Optional[Telemetry] = None) -> LoadReport:
    """One run through a :class:`~repro.serving.TopKServer` over a fresh
    world of the DBLP workload at ``scale``, closed afterwards."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {sorted(SCALES)}")
    db = build_world(SCALES[scale], users)
    try:
        with TopKServer(db) as server:
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
             as_json: bool = False) -> str:
    """Run a personalised Top-K query on the synthetic workload.

    The pairwise combination index's statistics are reported alongside the
    ranking.  ``as_json`` renders both as one machine-readable JSON object
    instead of the text table.
    """
    ctx = ExperimentContext.create(scale=scale, profile_users=25)
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


def run_load(scale: str = "tiny",
             users: int = 50,
             threads: int = 2,
             duration: float = 2.0,
             qps: Optional[float] = None,
             seed: int = 17,
             k: int = 5,
             audit_interval: Optional[float] = 0.5,
             output: Optional[str] = None,
             as_json: bool = False,
             telemetry: bool = False) -> str:
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
    snapshot for the run.  Every run draws the benign default
    :class:`~repro.serving.OpMix`.
    """
    config = LoadConfig(threads=threads, duration_seconds=duration,
                        target_qps=qps, k=k, seed=seed,
                        audit_interval=audit_interval or None)
    report = _run_world(config, scale, users,
                        telemetry=Telemetry() if telemetry else None)

    run_record = report.as_dict()
    config_record = {"scale": scale, "users": users, "threads": threads,
                     "duration_seconds": duration, "target_qps": qps,
                     "seed": seed, "k": k,
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
        f", {report.duration_seconds:.2f}s, scale={scale})",
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
    config = LoadConfig(threads=1, requests=requests, k=k, seed=seed,
                        audit_interval=None)
    report = _run_world(config, scale, users,
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


def _json_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")


def _population_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=50,
                        help="size of the synthetic user population")
    parser.add_argument("--seed", type=int, default=17)


def _telemetry_option(parser: argparse.ArgumentParser) -> None:
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

    load = subparsers.add_parser(
        "load",
        parents=[_options(_scale_option, _query_options, _json_option,
                          _population_options, _telemetry_option)],
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
