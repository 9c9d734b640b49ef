"""Multi-process load generation with exact cross-process merging.

A single :class:`~repro.loadgen.runner.LoadGenerator` is bounded by one
interpreter: the GIL caps how much Python-side work N worker threads can
push through one process, so a thread sweep eventually measures the
interpreter, not the serving engine.  This module shards the load across
**processes** instead:

* :class:`WorldSpec` describes how to build one serving world from
  primitives that cross a process boundary — workload config dataclass,
  family *name* (the synthetic family's profile factory is a closure and
  deliberately never pickled; each child rebuilds it from the name),
  replay population, backend name.  Every child builds its **own replica**
  of the world: the in-process backends cannot be shared across address
  spaces, and replicas keep the children perfectly independent — no
  cross-process locking to distort the numbers.
* :func:`run_multiprocess` runs one :class:`~repro.loadgen.runner.LoadConfig`
  in each of N children (seeds offset by :data:`PROCESS_SEED_STRIDE` so the
  op streams differ), ships each child's
  :class:`~repro.loadgen.runner.LoadReport` home as JSON-safe primitives
  (``to_dict`` / ``from_dict`` — no locks, no backend handles, no pickled
  code), and merges them.
* :func:`merge_reports` is **exact where it can be**: the full-state
  latency histograms add bucket-by-bucket, so merged quantiles equal the
  quantiles of one histogram that recorded every sample (the Hypothesis
  property in ``tests/test_loadgen_stats.py`` pins this); counters sum;
  lock records merge by name.  Rates are derived after summing
  (``throughput = total ops / max duration``), never averaged.

The ``fork`` start method is preferred when the platform offers it —
children inherit the imported module graph instead of re-importing it,
which matters when the run duration is short relative to interpreter
start-up.  ``spawn`` works too (everything shipped is picklable); pass
``start_method`` to force one.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ServingError
from ..telemetry import LatencyHistogram
from .runner import LoadConfig, LoadGenerator, LoadReport

#: Seed offset between children — a large prime so per-process op streams
#: never collide even when the base config's seed is varied in small steps.
PROCESS_SEED_STRIDE = 104_729

#: Lock-record fields merged by taking the maximum instead of the sum.
_LOCK_MAX_FIELDS = ("max_wait_seconds",)


@dataclass(frozen=True)
class WorldSpec:
    """How one child process builds its serving world, in picklable parts.

    ``workload`` is the family's config dataclass (``DblpConfig`` /
    ``SyntheticConfig``); ``family`` names it so the synthetic profile
    factory — a closure — is rebuilt child-side instead of crossing the
    process boundary.  ``shards`` is handed to
    :func:`~repro.serving.cluster.create_server` (``>= 2`` fronts the world
    with a cluster).
    """

    workload: Any
    family: str = "dblp"
    users: int = 50
    k: int = 5
    seed: int = 17
    capacity: int = 16
    shards: int = 0
    backend: Optional[str] = None
    repair_delta: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in ("dblp", "synthetic"):
            raise ServingError(f"unknown workload family {self.family!r}")
        if self.shards < 0:
            raise ServingError("shards must be >= 0 (0/1 run a single server)")


def build_server(spec: WorldSpec) -> Tuple[Any, Any]:
    """``(server, db)`` — one freshly built world fronted per ``spec``.

    The caller owns both and must ``close()`` them (server first).
    """
    from ..serving import ReplayConfig, ReplayDriver, create_server
    factory = None
    if spec.family == "synthetic":
        from ..workload.synthetic import synthetic_profile_factory
        factory = synthetic_profile_factory(spec.workload)
    driver = ReplayDriver(
        ReplayConfig(users=spec.users, k=spec.k, seed=spec.seed),
        profile_factory=factory)
    db = driver.build_world(spec.workload, backend=spec.backend)
    server = create_server(db, shards=spec.shards, capacity=spec.capacity,
                           repair_delta=spec.repair_delta)
    return server, db


def _run_process(spec: WorldSpec, config: LoadConfig,
                 index: int) -> Dict[str, Any]:
    """One child's whole run; returns the report as JSON-safe primitives.

    Module-level so both ``fork`` and ``spawn`` can import it by name.
    """
    child_config = replace(
        config, seed=config.seed + index * PROCESS_SEED_STRIDE)
    server, db = build_server(spec)
    try:
        report = LoadGenerator(child_config).run(server)
    finally:
        server.close()
        db.close()
    return report.to_dict()


# -- merging ------------------------------------------------------------------------


def _sum_tree(trees: Sequence[Any]) -> Any:
    """Merge parallel stats trees: sum numbers, recurse dicts, concat lists.

    Non-numeric scalars (names, flags) are taken from the first tree — the
    children ran identical configurations, so they agree.
    """
    first = trees[0]
    if isinstance(first, dict):
        merged: Dict[str, Any] = {}
        for key in first:
            merged[key] = _sum_tree([tree[key] for tree in trees
                                     if key in tree])
        return merged
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return sum(tree for tree in trees
                   if isinstance(tree, (int, float)))
    if isinstance(first, list):
        return [item for tree in trees for item in tree]
    return first


def _merge_locks(reports: Sequence[LoadReport]) -> List[Dict[str, Any]]:
    """Per-name lock records summed across processes, hottest first."""
    by_name: Dict[str, Dict[str, Any]] = {}
    for report in reports:
        for record in report.locks:
            merged = by_name.get(record["name"])
            if merged is None:
                by_name[record["name"]] = dict(record)
                continue
            for key, value in record.items():
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    continue
                if key in _LOCK_MAX_FIELDS:
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
    records = list(by_name.values())
    records.sort(key=lambda record: record.get("wait_seconds", 0.0),
                 reverse=True)
    return records


def merge_reports(reports: Sequence[LoadReport]) -> LoadReport:
    """One report describing every process's run, merged exactly.

    Latency histograms add bucket-by-bucket (exact — see module docs);
    counters, stats trees and the flat ``server_stats`` metrics sum;
    throughput is total ops over the longest process's duration (the
    processes ran concurrently); the read-hit rate and a cluster's
    ``warm_rate`` are re-derived from summed hits over summed reads.
    """
    if not reports:
        raise ServingError("merge_reports needs at least one report")
    for report in reports:
        if report.histogram is None:
            raise ServingError(
                "merge_reports needs full-state histograms "
                "(reports built by LoadGenerator always carry them)")
    overall = LatencyHistogram.merged(report.histogram for report in reports)
    by_kind: Dict[str, LatencyHistogram] = {}
    for report in reports:
        for kind, histogram in report.histograms_by_kind.items():
            if kind in by_kind:
                by_kind[kind].merge(histogram)
            else:
                by_kind[kind] = LatencyHistogram().merge(histogram)
    kind_counts: Dict[str, int] = {}
    for report in reports:
        for kind, count in report.kind_counts.items():
            kind_counts[kind] = kind_counts.get(kind, 0) + count
    ops = sum(report.ops for report in reports)
    reads = kind_counts.get("read", 0)
    read_hits = sum(round(report.read_hit_rate
                          * report.kind_counts.get("read", 0))
                    for report in reports)
    duration = max(report.duration_seconds for report in reports)
    shards = reports[0].shards
    per_shard = [sum(report.per_shard_requests[index] for report in reports)
                 for index in range(shards)]
    mean_load = (sum(per_shard) / shards) if sum(per_shard) else 0.0
    server_stats = _sum_tree([report.server_stats for report in reports])
    if "serving.cluster.warm_rate" in server_stats:
        served = server_stats["serving.server.reads"]
        server_stats["serving.cluster.warm_rate"] = (
            server_stats["serving.server.read_hits"] / served
            if served else 0.0)
    return LoadReport(
        mode=reports[0].mode,
        backend=reports[0].backend,
        shards=shards,
        threads=sum(report.threads for report in reports),
        duration_seconds=duration,
        target_qps=reports[0].target_qps,
        seed=reports[0].seed,
        ops=ops,
        throughput_ops_per_sec=(ops / duration) if duration else 0.0,
        read_hit_rate=(read_hits / reads) if reads else 0.0,
        late_starts=sum(report.late_starts for report in reports),
        kind_counts=kind_counts,
        latency=overall.as_dict(),
        latency_by_kind={kind: histogram.as_dict()
                         for kind, histogram in sorted(by_kind.items())},
        per_shard_requests=per_shard,
        shard_skew=(max(per_shard) / mean_load) if mean_load else 0.0,
        locks=_merge_locks(reports),
        gate=_sum_tree([report.gate for report in reports]),
        audit=_sum_tree([report.audit for report in reports]),
        server_stats=server_stats,
        errors=[error for report in reports for error in report.errors],
        telemetry={},
        histogram=overall,
        histograms_by_kind=by_kind,
        processes=len(reports),
    )


@dataclass
class MultiProcessLoadReport:
    """The merged outcome of one multi-process run, per-process detail kept."""

    merged: LoadReport
    per_process: List[LoadReport]
    start_method: str

    @property
    def processes(self) -> int:
        return len(self.per_process)

    @property
    def clean(self) -> bool:
        """Every process finished with no worker errors and a clean audit."""
        return self.merged.clean and all(report.clean
                                         for report in self.per_process)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "processes": self.processes,
            "start_method": self.start_method,
            "merged": self.merged.as_dict(),
            "per_process": [report.as_dict()
                            for report in self.per_process],
        }


def _pick_start_method(start_method: Optional[str]) -> str:
    if start_method is not None:
        return start_method
    available = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in available else available[0]


def run_multiprocess(spec: WorldSpec, config: LoadConfig,
                     processes: int = 2,
                     start_method: Optional[str] = None,
                     ) -> MultiProcessLoadReport:
    """Run ``config`` in each of ``processes`` children and merge the reports.

    Each child builds its own world replica per ``spec`` and drives it with
    ``config.threads`` workers (seed offset per child), so total concurrency
    is ``processes * threads`` across independent interpreters — the load
    shape a single GIL cannot produce.  Results come home as primitives and
    merge exactly (see :func:`merge_reports`).
    """
    if processes < 1:
        raise ServingError("multi-process run needs at least one process")
    method = _pick_start_method(start_method)
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=processes,
                             mp_context=context) as pool:
        futures = [pool.submit(_run_process, spec, config, index)
                   for index in range(processes)]
        payloads = [future.result() for future in futures]
    per_process = [LoadReport.from_dict(payload) for payload in payloads]
    return MultiProcessLoadReport(
        merged=merge_reports(per_process),
        per_process=per_process,
        start_method=method,
    )
