"""The one runner: N worker threads (or one) applying op streams to a target.

:class:`LoadGenerator` drives a live
:class:`~repro.serving.server.TopKServer` — or an
:class:`~repro.serving.ops.Uncached` world, the no-serving-layer arm — with
``threads`` workers, each consuming its own deterministic
:class:`~repro.serving.ops.OpStream` of Zipf-skewed Top-K reads and
profile/tuple mutations, and produces a :class:`LoadReport` with:

* **latency SLOs** — p50/p95/p99 (and min/mean/max) overall and per op
  kind, from lock-free per-worker
  :class:`~repro.telemetry.LatencyHistogram` instances merged after the
  run;
* **throughput** — achieved ops/sec; in closed-loop mode (``target_qps
  None``) every worker fires its next op the moment the previous returns,
  so the achieved rate *is* the throughput at saturation for that thread
  count;
* **open-loop latency** — with ``target_qps`` set, workers fire on a fixed
  schedule and latency is measured from each op's *scheduled* start, so
  queueing delay is charged to the service, not hidden (the classic
  coordinated-omission correction);
* **work** — the backend statements the ops issued (``sql_statements``,
  audits excluded) and the reads served from the result cache;
* **lock contention** — wait/hold per named serving-layer lock (via
  :func:`repro.telemetry.instrument_locks`);
* **audit outcome** — a background
  :class:`~repro.loadgen.audit.EquivalenceAuditor` periodically verifies
  materialised answers against a from-scratch recomputation under the
  server lock; with ``audit_interval=0`` (one worker only) it audits inline
  instead, after every op.

A serial replay is the one-worker run with an op budget
(``LoadConfig(threads=1, requests=N)``): its one stream owns the whole
relation, so two identical worlds replay the identical op list.

Failures inside workers are captured per worker and surfaced in the report
(``errors``); a worker never takes the run down silently.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..exceptions import ServingError
from ..serving.ops import (
    OP_KINDS,
    READ,
    OpMix,
    OpStream,
    apply_op,
    build_streams,
)
from ..telemetry import LatencyHistogram, Telemetry, instrument_locks
from .audit import EquivalenceAuditor


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one run."""

    threads: int = 2
    duration_seconds: float = 2.0
    #: Ops to run across all workers; the run stops after that many instead
    #: of at ``duration_seconds``.  ``None`` runs for the duration.
    requests: Optional[int] = None
    #: Target arrival rate across all workers; ``None`` = closed loop.
    target_qps: Optional[float] = None
    mix: OpMix = OpMix()
    #: The ``k`` of every read (and of the audited answers).
    k: int = 5
    seed: int = 17
    #: Seconds between background equivalence audits; ``0`` audits inline
    #: after every op (one worker only); ``None`` disables auditing.
    audit_interval: Optional[float] = 0.5
    audit_sample: int = 8

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ServingError("load run needs at least one worker thread")
        if self.duration_seconds <= 0:
            raise ServingError("load run duration must be positive")
        if self.requests is not None and self.requests < 1:
            raise ServingError("an op budget must be at least one request")
        if self.target_qps is not None and self.target_qps <= 0:
            raise ServingError("target QPS must be positive (or None)")
        if self.audit_interval is not None and self.audit_interval < 0:
            raise ServingError("audit interval must not be negative")
        if self.audit_interval == 0 and self.threads != 1:
            raise ServingError("an inline audit (audit interval 0) needs "
                               "exactly one worker thread")


@dataclass
class WorkerResult:
    """One worker's private accounting (merged into the report afterwards)."""

    worker_id: int
    overall: LatencyHistogram = field(default_factory=LatencyHistogram)
    per_kind: Dict[str, LatencyHistogram] = field(default_factory=dict)
    ops: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    read_hits: int = 0
    #: Ops that fired later than their open-loop schedule allowed.
    late_starts: int = 0
    error: Optional[str] = None

    def record(self, kind: str, seconds: float, cache_hit: bool) -> None:
        self.ops += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.overall.record(seconds)
        histogram = self.per_kind.get(kind)
        if histogram is None:
            histogram = self.per_kind[kind] = LatencyHistogram()
        histogram.record(seconds)
        if cache_hit:
            self.read_hits += 1


@dataclass
class LoadReport:
    """Aggregated outcome of one run (JSON-ready via :meth:`as_dict`)."""

    mode: str
    backend: str
    threads: int
    duration_seconds: float
    target_qps: Optional[float]
    seed: int
    ops: int
    throughput_ops_per_sec: float
    read_hits: int
    read_hit_rate: float
    #: Backend statements the ops issued (audit recomputations excluded).
    sql_statements: int
    late_starts: int
    kind_counts: Dict[str, int]
    latency: Dict[str, Any]
    latency_by_kind: Dict[str, Dict[str, Any]]
    locks: List[Dict[str, Any]]
    audit: Dict[str, Any]
    #: The target's end-of-run ``metrics()`` (flat unified names; empty for
    #: an uncached arm).
    server_stats: Dict[str, Any]
    errors: List[str]
    #: The run's telemetry JSON snapshot (unified metrics + trace-buffer
    #: state) when the run was given a :class:`~repro.telemetry.Telemetry`;
    #: empty otherwise.
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """No worker errored, no audit mismatched."""
        return not self.errors and self.audit.get("mismatches", 0) == 0 \
            and not self.audit.get("errors")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode, "backend": self.backend,
            "threads": self.threads,
            "duration_seconds": self.duration_seconds,
            "target_qps": self.target_qps, "seed": self.seed,
            "ops": self.ops,
            "throughput_ops_per_sec": self.throughput_ops_per_sec,
            "read_hits": self.read_hits,
            "read_hit_rate": self.read_hit_rate,
            "sql_statements": self.sql_statements,
            "late_starts": self.late_starts,
            "kind_counts": dict(self.kind_counts),
            "latency": dict(self.latency),
            "latency_by_kind": {kind: dict(summary) for kind, summary
                                in self.latency_by_kind.items()},
            "locks": [dict(record) for record in self.locks],
            "audit": dict(self.audit),
            "server_stats": self.server_stats,
            "errors": list(self.errors),
            "telemetry": dict(self.telemetry),
        }


class LoadGenerator:
    """Drives one run and assembles the :class:`LoadReport`."""

    def __init__(self, config: LoadConfig = LoadConfig()) -> None:
        self.config = config

    # -- worker body --------------------------------------------------------------

    def _worker(self, target: Any, stream: OpStream, result: WorkerResult,
                more: Callable[[float], bool], interval: Optional[float],
                inline: Optional[EquivalenceAuditor]) -> None:
        # Open loop: op i is *due* at start + i*interval, and latency is
        # measured from the due time, so time spent queued behind a slow op
        # counts against the service (coordinated omission).
        scheduled = time.perf_counter()
        try:
            while more(scheduled if interval else time.perf_counter()):
                if interval:
                    lag = scheduled - time.perf_counter()
                    if lag > 0:
                        time.sleep(lag)
                    else:
                        result.late_starts += 1
                op = next(stream)
                start = time.perf_counter()
                outcome = apply_op(target, op)
                finished = time.perf_counter()
                result.record(op.kind,
                              finished - (scheduled if interval else start),
                              op.kind == READ and outcome.cache_hit)
                if inline is not None:
                    # The answer a read materialised, or — after anything
                    # else — every answer still materialised.
                    inline.check([op.uid] if op.kind == READ
                                 else target.results.cached_users())
                if interval:
                    scheduled += interval
        except Exception as exc:
            result.error = (f"worker {result.worker_id}: "
                            f"{type(exc).__name__}: {exc}")

    def _budget(self, start: float) -> Callable[[float], bool]:
        """Whether a worker may fire one more op, given when it would fire:
        until the deadline, or until the run's ``requests`` are handed out."""
        if self.config.requests is None:
            deadline = start + self.config.duration_seconds
            return lambda now: now < deadline
        tickets = itertools.count()  # shared by every worker; next() is atomic
        budget = self.config.requests
        return lambda now: next(tickets) < budget

    # -- orchestration ------------------------------------------------------------

    def run(self, target: Any,
            telemetry: Optional[Telemetry] = None) -> LoadReport:
        """Run the configured load against ``target`` and report.

        ``target`` is a :class:`~repro.serving.server.TopKServer` or an
        :class:`~repro.serving.ops.Uncached` world, and must be idle (no
        concurrent external traffic): lock instrumentation swaps lock
        objects in place before the first worker starts (and restores the
        originals once the report is assembled).  The population driven is
        whatever profiles are already persisted in ``target.db`` — build the
        world first (:func:`~repro.loadgen.world.build_world`).

        Pass a :class:`~repro.telemetry.Telemetry` to run under full
        observability: the server (and the auditor) is registered
        with its metrics registry, requests are traced into its
        :class:`~repro.telemetry.TraceBuffer`, and the report gains a
        ``telemetry`` section holding the end-of-run JSON snapshot.
        """
        config = self.config
        if config.audit_interval is not None \
                and getattr(target, "results", None) is None:
            raise ServingError("a target without a result cache has nothing "
                               "to audit: run it with audit_interval=None")
        db = target.db
        uids = sorted(profile.uid for profile in db.read_profiles())
        streams = build_streams(db, config.threads, config.mix, uids,
                                config.k, config.seed)
        if telemetry is not None:
            telemetry.observe(target)
        # Load runs observe, they don't permanently rewire: everything after
        # the first swapped-in lock runs inside the handle's ``with``, so any
        # exit hands the target back the exact locks it started with.
        registry = telemetry.registry if telemetry is not None else None
        with instrument_locks(target, registry=registry) as handle:
            auditor = None
            if config.audit_interval is not None:
                auditor = EquivalenceAuditor(target,
                                             interval=config.audit_interval,
                                             sample=config.audit_sample)
            inline = auditor if config.audit_interval == 0 else None
            if telemetry is not None and auditor is not None:
                telemetry.observe_auditor(auditor)

            results = [WorkerResult(worker_id=stream.worker_id)
                       for stream in streams]
            interval = (config.threads / config.target_qps
                        if config.target_qps else None)
            statements_before = db.statements_executed
            start = time.perf_counter()
            more = self._budget(start)
            threads = [
                threading.Thread(
                    target=self._worker, name=f"loadgen-{stream.worker_id}",
                    args=(target, stream, result, more, interval, inline),
                    daemon=True)
                for stream, result in zip(streams, results)]
            for thread in threads:
                thread.start()
            if auditor is not None and inline is None:
                auditor.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if auditor is not None:
                auditor.stop()
                # One final audit over the end state, no worker left.
                auditor.audit_once()
            sql_statements = (db.statements_executed - statements_before
                              - (auditor.sql_statements if auditor else 0))
            return self._assemble(target, results, handle.report(), auditor,
                                  elapsed, sql_statements, telemetry)

    # -- report assembly ----------------------------------------------------------

    def _assemble(self, target: Any, results: Sequence[WorkerResult],
                  locks: List[Dict[str, Any]],
                  auditor: Optional[EquivalenceAuditor],
                  elapsed: float, sql_statements: int,
                  telemetry: Optional[Telemetry] = None) -> LoadReport:
        config = self.config
        overall = LatencyHistogram.merged(result.overall for result in results)
        by_kind: Dict[str, LatencyHistogram] = {}
        for result in results:
            for kind, histogram in result.per_kind.items():
                if kind in by_kind:
                    by_kind[kind].merge(histogram)
                else:
                    by_kind[kind] = LatencyHistogram().merge(histogram)
        kind_counts = {kind: sum(result.kind_counts.get(kind, 0)
                                 for result in results)
                       for kind in OP_KINDS}
        ops = sum(result.ops for result in results)
        reads = kind_counts.get(READ, 0)
        read_hits = sum(result.read_hits for result in results)
        return LoadReport(
            mode="open" if config.target_qps else "closed",
            backend=target.db.backend_name,
            threads=config.threads,
            duration_seconds=elapsed,
            target_qps=config.target_qps,
            seed=config.seed,
            ops=ops,
            throughput_ops_per_sec=(ops / elapsed) if elapsed else 0.0,
            read_hits=read_hits,
            read_hit_rate=(read_hits / reads) if reads else 0.0,
            sql_statements=sql_statements,
            late_starts=sum(result.late_starts for result in results),
            kind_counts=kind_counts,
            latency=overall.as_dict(),
            latency_by_kind={kind: histogram.as_dict()
                             for kind, histogram in sorted(by_kind.items())},
            locks=locks,
            audit=(auditor.stats() if auditor is not None
                   else {"audits": 0, "comparisons": 0, "mismatches": 0,
                         "errors": []}),
            server_stats=target.metrics(),
            errors=[result.error for result in results if result.error],
            telemetry=(telemetry.json_snapshot()
                       if telemetry is not None else {}),
        )
