"""Multi-process load generation: specs, serialization, exact merging.

The multi-process harness (:mod:`repro.loadgen.multiproc`) ships every
child's :class:`~repro.loadgen.LoadReport` across the process boundary as
JSON-safe primitives and merges them exactly.  These tests pin the three
layers separately — the picklable :class:`~repro.loadgen.WorldSpec` and
its child-side world builder, the report round-trip, and the merge math —
then run the whole thing end to end with real forked processes (kept
short: world building dominates, not load duration).
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ServingError
from repro.loadgen import (
    PROCESS_SEED_STRIDE,
    LoadConfig,
    LoadGenerator,
    LoadReport,
    WorldSpec,
    build_server,
    merge_reports,
    run_multiprocess,
)
from repro.serving import ShardedTopKServer, TopKServer
from repro.workload.dblp import DblpConfig
from repro.workload.synthetic import SyntheticConfig

DBLP = DblpConfig(n_papers=120, n_authors=50, n_venues=6, seed=9)
K = 5
LOAD = LoadConfig(threads=2, duration_seconds=0.3, seed=29,
                  k=K, audit_interval=0.15, audit_sample=4)


@pytest.fixture(params=("sqlite", "memory"))
def backend(request):
    return request.param


def _spec(backend, **overrides):
    defaults = dict(workload=DBLP, family="dblp", users=12, k=K, seed=29,
                    capacity=8, backend=backend)
    defaults.update(overrides)
    return WorldSpec(**defaults)


def _one_report(backend, config=LOAD):
    server, db = build_server(_spec(backend))
    try:
        return LoadGenerator(config).run(server)
    finally:
        server.close()
        db.close()


# -- WorldSpec + build_server -------------------------------------------------


def test_world_spec_rejects_unknown_family():
    with pytest.raises(ServingError):
        _spec("memory", family="parquet")


def test_world_spec_rejects_negative_shards():
    with pytest.raises(ServingError):
        _spec("memory", shards=-1)


def test_build_server_single_and_sharded(backend):
    server, db = build_server(_spec(backend))
    try:
        assert isinstance(server, TopKServer)
        assert server.top_k(next(iter(sorted(
            profile.uid for profile in db.read_profiles()))), K).ranking
    finally:
        server.close()
        db.close()
    cluster, db = build_server(_spec(backend, shards=2))
    try:
        assert isinstance(cluster, ShardedTopKServer)
        assert cluster.shards == 2
    finally:
        cluster.close()
        db.close()


def test_build_server_rebuilds_synthetic_factory(backend):
    """The synthetic family's profile factory is a closure that never
    crosses the process boundary — the spec carries the family *name* and
    the builder reconstructs the factory from the workload config."""
    config = SyntheticConfig(n_papers=100, n_authors=40,
                             venue_cardinality=5, seed=3)
    spec = WorldSpec(workload=config, family="synthetic", users=8, k=K,
                     seed=29, capacity=8, backend=backend)
    server, db = build_server(spec)
    try:
        uid = sorted(profile.uid for profile in db.read_profiles())[0]
        assert server.top_k(uid, K).ranking
    finally:
        server.close()
        db.close()


# -- LoadReport round-trip ----------------------------------------------------


def test_load_report_roundtrips_through_json(backend):
    report = _one_report(backend)
    payload = json.loads(json.dumps(report.to_dict()))
    clone = LoadReport.from_dict(payload)
    assert clone.as_dict() == report.as_dict()
    assert clone.histogram == report.histogram
    assert clone.histograms_by_kind == report.histograms_by_kind
    assert clone.clean == report.clean
    assert clone.processes == 1


def test_generator_reports_carry_full_state_histograms(backend):
    report = _one_report(backend)
    assert report.histogram is not None
    assert report.histogram.count == report.ops
    assert sum(histogram.count
               for histogram in report.histograms_by_kind.values()) \
        == report.ops


# -- merge math ---------------------------------------------------------------


def test_merge_reports_is_exact(backend):
    first = _one_report(backend)
    second = _one_report(backend, config=LoadConfig(
        threads=1, duration_seconds=0.2, seed=29 + PROCESS_SEED_STRIDE,
        k=K, audit_interval=None))
    merged = merge_reports([first, second])
    assert merged.processes == 2
    assert merged.ops == first.ops + second.ops
    assert merged.threads == first.threads + second.threads
    assert merged.histogram.count == merged.ops
    assert merged.duration_seconds == max(first.duration_seconds,
                                          second.duration_seconds)
    assert merged.throughput_ops_per_sec == pytest.approx(
        merged.ops / merged.duration_seconds)
    for kind, count in merged.kind_counts.items():
        assert count == (first.kind_counts.get(kind, 0)
                         + second.kind_counts.get(kind, 0))
    # The merged latency summary is the summary of the merged histogram —
    # exactly what one histogram recording every sample would report.
    assert merged.latency == merged.histogram.as_dict()
    by_name = {record["name"]: record for record in merged.locks}
    for record in first.locks:
        assert record["name"] in by_name
    # Merging must not mutate its inputs.
    assert first.histogram.count == first.ops


def test_merge_reports_rejects_empty_and_summary_only():
    with pytest.raises(ServingError):
        merge_reports([])
    report = _one_report("memory")
    hollow = LoadReport.from_dict(
        dict(json.loads(json.dumps(report.to_dict())), histogram=None))
    with pytest.raises(ServingError):
        merge_reports([hollow])


# -- end to end, real processes -----------------------------------------------


def test_run_multiprocess_end_to_end(backend):
    result = run_multiprocess(_spec(backend), LOAD, processes=2)
    assert result.clean, (result.merged.errors, result.merged.audit)
    assert result.processes == 2
    assert result.merged.processes == 2
    assert len(result.per_process) == 2
    # Each child ran its own seed lane.
    seeds = {report.seed for report in result.per_process}
    assert seeds == {LOAD.seed, LOAD.seed + PROCESS_SEED_STRIDE}
    assert result.merged.ops == sum(report.ops
                                    for report in result.per_process)
    assert result.merged.threads == 2 * LOAD.threads
    assert result.merged.histogram.count == result.merged.ops
    # Every child ran the auditor; the merged audit saw every pass.
    assert result.merged.audit["audits"] == sum(
        report.audit["audits"] for report in result.per_process)
    # The whole outcome is JSON-ready for the bench artifact.
    json.dumps(result.as_dict())
    json.dumps(result.merged.as_dict())


def test_run_multiprocess_rejects_zero_processes():
    with pytest.raises(ServingError):
        run_multiprocess(_spec("memory"), LOAD, processes=0)
