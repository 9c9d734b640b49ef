"""The multi-threaded load generator: closed- and open-loop, with SLOs.

:class:`LoadGenerator` hammers a live
:class:`~repro.serving.server.ServingSurface` (a
:class:`~repro.serving.server.TopKServer` or a
:class:`~repro.serving.cluster.ShardedTopKServer`) with N worker threads,
each consuming its own deterministic :class:`~repro.serving.ops.OpStream`
of Zipf-skewed Top-K reads and profile/tuple mutations (the same generator
a serial replay runs one of), and produces a
:class:`LoadReport` with:

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
* **per-shard load skew** — requests per shard under the cluster's
  partitioner;
* **lock contention** — wait/hold per named serving-layer lock (via
  :func:`repro.telemetry.instrument_locks`);
* **audit outcome** — a background
  :class:`~repro.loadgen.audit.EquivalenceAuditor` periodically quiesces
  traffic through a :class:`~repro.loadgen.audit.TrafficGate` and verifies
  materialised answers against a from-scratch recomputation.

Failures inside workers are captured per worker and surfaced in the report
(``errors``); a worker never takes the run down silently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..exceptions import ServingError
from ..serving.ops import (
    OP_KINDS,
    READ,
    UPDATE,
    OpMix,
    OpStream,
    apply_op,
    build_streams,
)
from ..telemetry import LatencyHistogram, Telemetry, instrument_locks
from .audit import EquivalenceAuditor, TrafficGate


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one load-generator run."""

    threads: int = 2
    duration_seconds: float = 2.0
    #: Target arrival rate across all workers; ``None`` = closed loop.
    target_qps: Optional[float] = None
    mix: OpMix = OpMix()
    #: The ``k`` of every read (and of the audited answers).
    k: int = 5
    seed: int = 17
    #: Seconds between background equivalence audits; ``None`` disables.
    audit_interval: Optional[float] = 0.5
    audit_sample: int = 8

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ServingError("load run needs at least one worker thread")
        if self.duration_seconds <= 0:
            raise ServingError("load run duration must be positive")
        if self.target_qps is not None and self.target_qps <= 0:
            raise ServingError("target QPS must be positive (or None)")
        if self.audit_interval is not None and self.audit_interval <= 0:
            raise ServingError("audit interval must be positive (or None)")


@dataclass
class WorkerResult:
    """One worker's private accounting (merged into the report afterwards)."""

    worker_id: int
    overall: LatencyHistogram = field(default_factory=LatencyHistogram)
    per_kind: Dict[str, LatencyHistogram] = field(default_factory=dict)
    ops: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    uid_counts: Dict[int, int] = field(default_factory=dict)
    read_hits: int = 0
    #: Ops that fired later than their open-loop schedule allowed.
    late_starts: int = 0
    error: Optional[str] = None

    def record(self, kind: str, uid: int, seconds: float,
               cache_hit: bool) -> None:
        self.ops += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.overall.record(seconds)
        histogram = self.per_kind.get(kind)
        if histogram is None:
            histogram = self.per_kind[kind] = LatencyHistogram()
        histogram.record(seconds)
        if kind in (READ, UPDATE):
            self.uid_counts[uid] = self.uid_counts.get(uid, 0) + 1
        if cache_hit:
            self.read_hits += 1


@dataclass
class LoadReport:
    """Aggregated outcome of one load run (JSON-ready via :meth:`as_dict`)."""

    mode: str
    backend: str
    shards: int
    threads: int
    duration_seconds: float
    target_qps: Optional[float]
    seed: int
    ops: int
    throughput_ops_per_sec: float
    read_hit_rate: float
    late_starts: int
    kind_counts: Dict[str, int]
    latency: Dict[str, Any]
    latency_by_kind: Dict[str, Dict[str, Any]]
    per_shard_requests: List[int]
    shard_skew: float
    locks: List[Dict[str, Any]]
    gate: Dict[str, Any]
    audit: Dict[str, Any]
    #: The server's end-of-run ``metrics()`` (flat unified names).
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
            "shards": self.shards, "threads": self.threads,
            "duration_seconds": self.duration_seconds,
            "target_qps": self.target_qps, "seed": self.seed,
            "ops": self.ops,
            "throughput_ops_per_sec": self.throughput_ops_per_sec,
            "read_hit_rate": self.read_hit_rate,
            "late_starts": self.late_starts,
            "kind_counts": dict(self.kind_counts),
            "latency": dict(self.latency),
            "latency_by_kind": {kind: dict(summary) for kind, summary
                                in self.latency_by_kind.items()},
            "per_shard_requests": list(self.per_shard_requests),
            "shard_skew": self.shard_skew,
            "locks": [dict(record) for record in self.locks],
            "gate": dict(self.gate),
            "audit": dict(self.audit),
            "server_stats": self.server_stats,
            "errors": list(self.errors),
            "telemetry": dict(self.telemetry),
        }


class LoadGenerator:
    """Drives one concurrent load run and assembles the :class:`LoadReport`."""

    def __init__(self, config: LoadConfig = LoadConfig()) -> None:
        self.config = config

    # -- worker body --------------------------------------------------------------

    def _closed_loop(self, server: Any, stream: OpStream, gate: TrafficGate,
                     result: WorkerResult, deadline: float) -> None:
        while time.perf_counter() < deadline:
            op = next(stream)
            with gate.request():
                start = time.perf_counter()
                outcome = apply_op(server, op)
                elapsed = time.perf_counter() - start
            result.record(op.kind, op.uid, elapsed,
                          op.kind == READ and outcome.cache_hit)

    def _open_loop(self, server: Any, stream: OpStream, gate: TrafficGate,
                   result: WorkerResult, deadline: float,
                   interval: float) -> None:
        # Fixed-schedule arrivals: op i is *due* at start + i*interval.
        # Latency is measured from the due time, so time spent queued behind
        # a slow op counts against the service (coordinated omission).
        scheduled = time.perf_counter()
        while scheduled < deadline:
            now = time.perf_counter()
            if now < scheduled:
                time.sleep(scheduled - now)
            else:
                result.late_starts += 1
            op = next(stream)
            with gate.request():
                outcome = apply_op(server, op)
            result.record(op.kind, op.uid, time.perf_counter() - scheduled,
                          op.kind == READ and outcome.cache_hit)
            scheduled += interval

    def _worker(self, server: Any, stream: OpStream, gate: TrafficGate,
                result: WorkerResult, deadline: float,
                interval: Optional[float]) -> None:
        try:
            if interval is None:
                self._closed_loop(server, stream, gate, result, deadline)
            else:
                self._open_loop(server, stream, gate, result, deadline,
                                interval)
        except Exception as exc:
            result.error = (f"worker {result.worker_id}: "
                            f"{type(exc).__name__}: {exc}")

    # -- orchestration ------------------------------------------------------------

    def run(self, server: Any,
            telemetry: Optional[Telemetry] = None) -> LoadReport:
        """Run the configured load against ``server`` and report.

        ``server`` must be idle (no concurrent external traffic): lock
        instrumentation swaps lock objects in place before the first worker
        starts (and restores the originals once the report is assembled).
        The population driven is whatever profiles are already persisted in
        ``server.db`` — prepare the world first (e.g. with
        :meth:`~repro.serving.driver.ReplayDriver.prepare`).

        Pass a :class:`~repro.telemetry.Telemetry` to run under full
        observability: the server (and the gate/auditor pair) is registered
        with its metrics registry, requests are traced into its
        :class:`~repro.telemetry.TraceBuffer`, and the report gains a
        ``telemetry`` section holding the end-of-run JSON snapshot.
        """
        config = self.config
        uids = sorted(profile.uid for profile in server.db.read_profiles())
        streams = build_streams(server.db, config.threads, config.mix, uids,
                                config.k, config.seed)
        if telemetry is not None:
            telemetry.observe(server)
        # Load runs observe, they don't permanently rewire: everything after
        # the first swapped-in lock runs inside the handle's ``with``, so any
        # exit hands the server back the exact locks it started with.
        registry = telemetry.registry if telemetry is not None else None
        with instrument_locks(server, registry=registry) as handle:
            gate = TrafficGate()
            auditor = None
            if config.audit_interval is not None:
                auditor = EquivalenceAuditor(server, gate, k=config.k,
                                             interval=config.audit_interval,
                                             sample=config.audit_sample)
            if telemetry is not None:
                telemetry.observe_gate(gate)
                if auditor is not None:
                    telemetry.observe_auditor(auditor)

            results = [WorkerResult(worker_id=stream.worker_id)
                       for stream in streams]
            interval = (config.threads / config.target_qps
                        if config.target_qps else None)
            start = time.perf_counter()
            deadline = start + config.duration_seconds
            threads = [
                threading.Thread(
                    target=self._worker, name=f"loadgen-{stream.worker_id}",
                    args=(server, stream, gate, result, deadline, interval),
                    daemon=True)
                for stream, result in zip(streams, results)]
            for thread in threads:
                thread.start()
            if auditor is not None:
                auditor.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if auditor is not None:
                auditor.stop()
                # One final audit over the fully quiesced end state.
                auditor.audit_once()
            return self._assemble(server, results, handle.report(), gate,
                                  auditor, elapsed, telemetry)

    # -- report assembly ----------------------------------------------------------

    def _assemble(self, server: Any, results: Sequence[WorkerResult],
                  locks: List[Dict[str, Any]], gate: TrafficGate,
                  auditor: Optional[EquivalenceAuditor],
                  elapsed: float,
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

        shards = server.shards
        per_shard = [0] * shards
        for result in results:
            for uid, count in result.uid_counts.items():
                per_shard[server.shard_of(uid)] += count
        mean_load = (sum(per_shard) / shards) if sum(per_shard) else 0.0
        skew = (max(per_shard) / mean_load) if mean_load else 0.0

        return LoadReport(
            mode="open" if config.target_qps else "closed",
            backend=server.db.backend_name,
            shards=shards,
            threads=config.threads,
            duration_seconds=elapsed,
            target_qps=config.target_qps,
            seed=config.seed,
            ops=ops,
            throughput_ops_per_sec=(ops / elapsed) if elapsed else 0.0,
            read_hit_rate=(read_hits / reads) if reads else 0.0,
            late_starts=sum(result.late_starts for result in results),
            kind_counts=kind_counts,
            latency=overall.as_dict(),
            latency_by_kind={kind: histogram.as_dict()
                             for kind, histogram in sorted(by_kind.items())},
            per_shard_requests=per_shard,
            shard_skew=skew,
            locks=locks,
            gate=gate.stats(),
            audit=(auditor.stats() if auditor is not None
                   else {"audits": 0, "comparisons": 0, "mismatches": 0,
                         "errors": []}),
            server_stats=server.metrics(),
            errors=[result.error for result in results if result.error],
            telemetry=(telemetry.json_snapshot()
                       if telemetry is not None else {}),
        )
