"""The one runner: serial replays and concurrent load, with latency SLOs.

:mod:`repro.loadgen` drives a live :class:`~repro.serving.TopKServer` (or
the :class:`~repro.serving.Uncached` no-serving-layer arm) with worker
threads applying deterministic Zipf-skewed mixes of Top-K reads and
profile/tuple mutations, and reports tail latency, throughput, the SQL the
ops issued, per-lock contention and a correctness audit.  A serial replay
is the one-worker run with an op budget; the ``load`` and ``stats``
commands of ``python -m repro.cli`` run through it, and load numbers land
in ``BENCH_loadgen.json`` (see ``docs/LOADGEN.md``).

Public API
----------
:func:`build_world` / :func:`load_population` / :func:`population` / :func:`initial_profile`
    The world a run drives: a generated DBLP workload in a fresh backend
    plus one persisted ``initial_profile`` per population uid.
:class:`LoadGenerator`
    Drives one run: spawns the workers (closed-loop, or open-loop against a
    target QPS), runs the auditor (in the background, or inline after every
    op), merges the per-worker histograms and assembles the report.
:class:`LoadConfig`
    Shape of a run: ``threads`` / ``duration_seconds`` / ``requests`` (an
    op budget that replaces the duration) / ``target_qps`` (``None`` =
    closed loop) / ``mix`` (an :class:`~repro.serving.OpMix` of five
    weights) / ``k`` / ``seed`` / audit cadence (``audit_interval=0``:
    inline, one worker only).  Each worker consumes one
    :class:`~repro.serving.OpStream` built by
    :func:`~repro.serving.build_streams` — the op vocabulary and generator
    are the serving package's (:mod:`repro.serving.ops`).
:class:`LoadReport`
    The one report: p50/p95/p99 overall and per op kind,
    ``throughput_ops_per_sec``, ``read_hits``, ``sql_statements``,
    ``locks`` (contention, hottest first), an ``audit`` section,
    the target's ``server_stats`` and per-worker ``errors``.
:class:`WorkerResult`
    One worker's private accounting (its
    :class:`~repro.telemetry.LatencyHistogram` instances, op counts, error)
    before the merge.
:class:`EquivalenceAuditor`
    Daemon thread that periodically verifies materialised answers against
    a from-scratch recomputation, holding the server lock while it compares
    (so no state change runs meanwhile; warm hits carry on).
:func:`write_bench_json` / :func:`validate_loadgen_payload` /
:func:`load_and_validate` / :func:`loadgen_payload` / :func:`bench_envelope`
    Schema-versioned ``BENCH_*.json`` persistence (``SCHEMA_VERSION``,
    git sha, backend, scale) and the structural validation CI runs on the
    artifact.
"""

from .audit import EquivalenceAuditor
from .report import (
    SCHEMA_VERSION,
    bench_envelope,
    load_and_validate,
    loadgen_payload,
    validate_loadgen_payload,
    write_bench_json,
)
from .runner import LoadConfig, LoadGenerator, LoadReport, WorkerResult
from .world import build_world, initial_profile, load_population, population

__all__ = [
    "EquivalenceAuditor",
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "SCHEMA_VERSION",
    "WorkerResult",
    "bench_envelope",
    "build_world",
    "initial_profile",
    "load_and_validate",
    "load_population",
    "loadgen_payload",
    "population",
    "validate_loadgen_payload",
    "write_bench_json",
]
