"""Concurrent load harness with latency SLOs for the serving engine.

Everything before this subsystem measured the serving layer serially; the
ROADMAP's "heavy traffic" target is only proven by **concurrent** load.
:mod:`repro.loadgen` hammers a live :class:`~repro.serving.TopKServer` with
worker threads replaying deterministic Zipf-skewed mixes of Top-K reads and
profile/tuple mutations, and reports tail latency, throughput at
saturation, per-lock contention and a background correctness audit — the
numbers land in ``BENCH_loadgen.json`` (see ``docs/LOADGEN.md`` for the
tutorial and ``python -m repro.cli load`` for the command-line front end).

Public API
----------
:class:`LoadGenerator`
    Drives one run: spawns the workers (closed-loop, or open-loop against a
    target QPS), starts the background auditor, merges the per-worker
    histograms and assembles the report.
:class:`LoadConfig`
    Shape of a run: ``threads`` / ``duration_seconds`` / ``target_qps``
    (``None`` = closed loop) / ``mix`` (an :class:`~repro.serving.OpMix`;
    ``OpMix.named("hot-keys")`` for a hostile one) / ``k`` / ``seed`` /
    audit cadence.  Each worker consumes one
    :class:`~repro.serving.OpStream` built by
    :func:`~repro.serving.build_streams` — the op vocabulary, mixes and
    generator are the serving package's (:mod:`repro.serving.ops`), shared
    with the serial replay driver.
:class:`LoadReport`
    The JSON-ready outcome: p50/p95/p99 overall and per op kind,
    ``throughput_ops_per_sec``, ``locks`` (contention, hottest first),
    ``gate``/``audit`` sections and per-worker ``errors``.
:class:`WorkerResult`
    One worker's private accounting (its
    :class:`~repro.telemetry.LatencyHistogram` instances, op counts, error)
    before the merge.
:class:`TrafficGate`
    Pause-and-drain gate the auditor uses to get a quiesced snapshot while
    workers keep their own locks out of the picture.
:class:`EquivalenceAuditor`
    Daemon thread that periodically quiesces traffic and verifies
    materialised answers against a from-scratch recomputation.
:func:`write_bench_json` / :func:`validate_loadgen_payload` /
:func:`load_and_validate` / :func:`loadgen_payload` / :func:`bench_envelope`
    Schema-versioned ``BENCH_*.json`` persistence (``SCHEMA_VERSION``,
    git sha, backend, scale) and the structural validation CI runs on the
    artifact.
"""

from .audit import EquivalenceAuditor, TrafficGate
from .report import (
    SCHEMA_VERSION,
    bench_envelope,
    load_and_validate,
    loadgen_payload,
    validate_loadgen_payload,
    write_bench_json,
)
from .runner import LoadConfig, LoadGenerator, LoadReport, WorkerResult

__all__ = [
    "EquivalenceAuditor",
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "SCHEMA_VERSION",
    "TrafficGate",
    "WorkerResult",
    "bench_envelope",
    "load_and_validate",
    "loadgen_payload",
    "validate_loadgen_payload",
    "write_bench_json",
]
