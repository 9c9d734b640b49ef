"""Unit and integration tests for :mod:`repro.telemetry`.

Covers the unified metrics registry (naming scheme, instrument semantics,
snapshot adapters), request-scoped tracing (span nesting, annotations, the
bounded trace ring and slow-request capture), the JSON/Prometheus
exporters and the reversible lock instrumentation — on every registered
storage backend.
"""

from __future__ import annotations

import json

import pytest

from repro.backend import BACKEND_NAMES, create_backend
from repro.concurrency import TimedRLock
from repro.core.preference import UserProfile
from repro.exceptions import TelemetryError
from repro.loadgen import LoadConfig, LoadGenerator, load_population
from repro.serving import TopKServer
from repro.telemetry import (
    MetricsRegistry,
    SNAPSHOT_SCHEMA_VERSION,
    Span,
    Telemetry,
    TraceBuffer,
    annotate,
    current_span,
    instrument_locks,
    json_snapshot,
    prometheus_text,
    sanitize_component,
    span,
    validate_metric_name,
    validate_snapshot,
)
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import load_dataset

VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")


def make_profile(uid: int) -> UserProfile:
    """A two-preference profile, so the pair index issues count queries."""
    profile = UserProfile(uid=uid)
    profile.add_quantitative(f"dblp.venue = '{VENUES[uid % len(VENUES)]}'", 0.9)
    profile.add_quantitative("dblp.year >= 2008 AND dblp.year <= 2009", 0.5)
    return profile


@pytest.fixture(params=sorted(BACKEND_NAMES))
def serving_db(request):
    db = create_backend(request.param)
    load_dataset(db, generate_dblp(
        DblpConfig(n_papers=200, n_authors=60, n_venues=6, seed=7)))
    yield db
    db.close()


@pytest.fixture()
def server(serving_db):
    with TopKServer(serving_db) as engine:
        for uid in range(1, 5):
            engine.update_profile(uid, make_profile(uid))
        yield engine


# -- naming and instruments ---------------------------------------------------


class TestNaming:
    def test_valid_names_pass(self):
        for name in ("serving.server.reads", "index.count_cache.hits",
                     "concurrency.lock.count_cache.wait_seconds",
                     "a.b.c.d"):
            assert validate_metric_name(name) == name

    @pytest.mark.parametrize("name", [
        "reads", "serving.reads", "Serving.server.reads",
        "serving..reads", "serving.server.reads-total", ""])
    def test_invalid_names_raise(self, name):
        with pytest.raises(TelemetryError):
            validate_metric_name(name)

    def test_sanitize_component(self):
        assert sanitize_component("count-cache") == "count_cache"
        assert sanitize_component("Memory Backend!") == "memory_backend"
        assert sanitize_component("---") == "unnamed"


class TestInstruments:
    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("layer.thing.events")
        counter.inc()
        counter.inc(2)
        assert registry.counter("layer.thing.events") is counter
        assert counter.value == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("layer.thing.events").inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("layer.thing.events")
        with pytest.raises(TelemetryError):
            registry.gauge("layer.thing.events")

    def test_callback_gauge_reads_live(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge("layer.thing.level", fn=lambda: box["value"])
        box["value"] = 7
        assert registry.snapshot()["layer.thing.level"] == 7

    def test_settable_gauge_rejects_becoming_callback(self):
        registry = MetricsRegistry()
        registry.gauge("layer.thing.level").set(3)
        with pytest.raises(TelemetryError):
            registry.gauge("layer.thing.level", fn=lambda: 0)

    def test_histogram_snapshots_as_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("layer.thing.latency")
        histogram.record(0.002)
        histogram.record_us(1500)
        summary = registry.snapshot()["layer.thing.latency"]
        assert summary["count"] == 2
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]


class TestAdapters:
    def test_adapters_rereads_and_replaces(self):
        registry = MetricsRegistry()
        source = {"layer.thing.events": 1}
        registry.register_adapter("src", lambda: source)
        assert registry.snapshot()["layer.thing.events"] == 1
        source["layer.thing.events"] = 5
        assert registry.snapshot()["layer.thing.events"] == 5
        registry.register_adapter("src", lambda: {"layer.thing.events": 9})
        assert registry.snapshot()["layer.thing.events"] == 9
        assert registry.adapter_names() == ["src"]

    def test_adapter_names_are_validated(self):
        registry = MetricsRegistry()
        registry.register_adapter("bad", lambda: {"not-a-name": 1})
        with pytest.raises(TelemetryError):
            registry.snapshot()

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register_adapter("src", lambda: {"layer.thing.events": 1})
        assert registry.unregister_adapter("src")
        assert not registry.unregister_adapter("src")
        assert registry.snapshot() == {}


# -- tracing ------------------------------------------------------------------


class TestTracing:
    def test_span_is_noop_without_active_trace(self):
        assert current_span() is None
        with span("anything") as untraced:
            untraced.annotate("key", "value")  # must not explode
        annotate("key", "value")
        assert current_span() is None

    def test_root_span_sinks_nested_tree(self):
        buffer = TraceBuffer()
        with Span("root", sink=buffer) as root:
            root.annotate("uid", 1)
            with span("middle"):
                with span("leaf") as leaf:
                    leaf.annotate("rows", 3)
        assert len(buffer) == 1
        record = buffer.snapshot()[0]
        assert record.name == "root"
        assert record.annotation("uid") == 1
        assert record.depth() == 3
        assert record.find("leaf").annotation("rows") == 3
        assert [named.name for named in record.walk()] == [
            "root", "middle", "leaf"]

    def test_trace_buffer_is_bounded_and_captures_slow(self):
        buffer = TraceBuffer(capacity=4, slow_capacity=2, slow_threshold=0.5)
        for index in range(10):
            with Span(f"request_{index}", sink=buffer):
                pass
        stats = buffer.stats()
        assert stats["recorded"] == 10
        assert stats["retained"] == 4
        assert stats["slow_recorded"] == 0
        # A span that measures as slow lands in the slow ring too.
        slow = Span("slow_request", sink=buffer)
        with slow:
            slow._start -= 1.0  # pretend a second elapsed
        assert buffer.stats()["slow_recorded"] == 1
        assert buffer.slow()[0].name == "slow_request"
        assert buffer.slow()[0].seconds >= 0.5


# -- exporters ----------------------------------------------------------------


class TestExporters:
    def test_json_snapshot_shape_and_validation(self):
        buffer = TraceBuffer()
        with Span("request", sink=buffer):
            pass
        document = json_snapshot({"layer.thing.events": 2}, buffer)
        assert document["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert document["metrics"] == {"layer.thing.events": 2}
        assert document["traces"]["buffer"]["recorded"] == 1
        assert document["traces"]["recent"][0]["name"] == "request"
        assert validate_snapshot(document) == document
        json.dumps(document)  # must be JSON-serialisable end to end

    def test_validate_snapshot_rejects_bad_documents(self):
        with pytest.raises(TelemetryError):
            validate_snapshot({"metrics": {}})
        with pytest.raises(TelemetryError):
            validate_snapshot({"schema_version": 999, "metrics": {},
                               "traces": {}})

    def test_prometheus_text(self):
        text = prometheus_text({
            "serving.server.reads": 4,
            "serving.server.read_latency": {"count": 2, "p95_ms": 1.5},
            "serving.server.notes": "not-a-number",
        })
        assert "repro_serving_server_reads 4\n" in text
        assert "repro_serving_server_read_latency_count 2" in text
        assert "repro_serving_server_read_latency_p95_ms 1.5" in text
        assert "notes" not in text
        assert text.endswith("\n")


# -- the serving stack under telemetry ---------------------------------------


class TestServerTelemetry:
    def test_snapshot_covers_every_layer(self, server):
        telemetry = Telemetry()
        telemetry.observe(server)
        with telemetry.instrument_locks(server):
            server.top_k(1, 5)
            snapshot = telemetry.snapshot()
            layers = {name.split(".", 1)[0] for name in snapshot}
        assert {"serving", "index", "backend", "concurrency",
                "telemetry"} <= layers
        backend = server.db.backend_name
        assert snapshot[f"backend.{backend}.statements_executed"] > 0
        assert snapshot["serving.server.reads"] == 1
        assert snapshot["serving.server.read_latency"]["count"] == 1

    def test_cold_read_traces_server_to_cache_to_backend(self, server):
        telemetry = Telemetry()
        telemetry.observe(server)
        server.top_k(1, 5)
        record = telemetry.traces.snapshot()[-1]
        assert record.name == "server.top_k"
        assert record.annotation("cache_hit") is False
        assert [child.name for child in record.children] == [
            "server.lock_wait", "sessions.get_or_create", "peps.top_k"]
        # The build reads the profile; the fold's id-list fetches are the
        # read's only other SQL: no pair is counted.
        build = record.find("sessions.get_or_create")
        assert build.sql_statements == 2 and build.children == ()
        assert record.find("peps.top_k").sql_statements > 0
        assert record.find("count_cache.backend_query") is None
        assert record.sql_statements > 0

    def test_warm_read_is_zero_sql_in_the_trace(self, server):
        telemetry = Telemetry()
        telemetry.observe(server)
        server.top_k(1, 5)
        server.top_k(1, 5)
        warm = telemetry.traces.snapshot()[-1]
        assert warm.annotation("cache_hit") is True
        assert warm.sql_statements == 0

    def test_slow_threshold_captures_request(self, serving_db):
        telemetry = Telemetry(slow_threshold=0.0)  # everything is "slow"
        with TopKServer(serving_db) as engine:
            telemetry.observe(engine)
            engine.update_profile(1, make_profile(1))
            engine.top_k(1, 5)
        slow = telemetry.traces.slow()
        assert [record.name for record in slow] == [
            "server.update_profile", "server.top_k"]

    def test_mutations_are_traced(self, server):
        telemetry = Telemetry()
        telemetry.observe(server)
        server.insert_tuples(
            [Paper(pid=90_000, title="telemetry paper", venue="VLDB",
                   year=2012)],
            paper_authors=[(90_000, 1)])
        record = telemetry.traces.snapshot()[-1]
        assert record.name == "server.insert_tuples"
        assert record.annotation("papers") == 1
        assert record.find("server.on_data_mutation") is not None


# -- satellite: reversible lock instrumentation -------------------------------


class TestLockInstrumentation:
    def test_roundtrip_restores_every_original(self, server):
        cache = server.sessions.runner.count_cache
        originals = (server._lock, server.sessions._lock,
                     cache._lock, cache._cond, server.results._lock)
        handle = instrument_locks(server)
        assert handle.active
        assert all(isinstance(lock.stats(), dict) for lock in handle.locks)
        # The server lock is wrapped around its *original* inner lock (a
        # thread mid-acquire keeps working).
        assert isinstance(server._lock, TimedRLock)
        assert server._lock._inner is originals[0]
        # The count cache's condition must ride the wrapper lock while
        # instrumented, or in-flight coalescing would deadlock.
        assert cache._cond._lock is cache._lock
        server.top_k(1, 5)
        handle.uninstrument()
        assert not handle.active
        restored = (server._lock, server.sessions._lock,
                    cache._lock, cache._cond, server.results._lock)
        assert restored == originals
        server.top_k(2, 5)  # engine still serves after restore

    def test_reinstrumenting_returns_active_handle(self, server):
        handle = instrument_locks(server)
        assert instrument_locks(server) is handle
        handle.uninstrument()
        handle.uninstrument()  # idempotent
        fresh = instrument_locks(server)
        assert fresh is not handle
        fresh.uninstrument()

    def test_registry_adapter_lifecycle(self, server):
        registry = MetricsRegistry()
        with instrument_locks(server, registry=registry):
            server.top_k(1, 5)
            snapshot = registry.snapshot()
            assert snapshot["concurrency.lock.server.acquisitions"] > 0
        assert "concurrency" not in {name.split(".", 1)[0]
                                     for name in registry.snapshot()}


# -- the load harness under telemetry -----------------------------------------


class TestLoadgenTelemetry:
    def test_load_run_report_carries_snapshot(self, server):
        telemetry = Telemetry()
        config = LoadConfig(threads=2, duration_seconds=0.3,
                            k=5, audit_interval=0.2)
        report = LoadGenerator(config).run(server, telemetry=telemetry)
        assert report.clean
        document = report.telemetry
        assert validate_snapshot(document)
        layers = {name.split(".", 1)[0] for name in document["metrics"]}
        assert {"serving", "index", "backend", "concurrency", "loadgen",
                "telemetry"} <= layers
        assert document["metrics"]["loadgen.audit.mismatches"] == 0
        # The runner restored the locks after assembling the report.
        assert not isinstance(server._lock, TimedRLock)
        assert "locks" not in telemetry.registry.adapter_names()

    def test_load_run_without_telemetry_is_unchanged(self, server):
        config = LoadConfig(threads=1, duration_seconds=0.2,
                            k=5, audit_interval=None)
        report = LoadGenerator(config).run(server)
        assert report.telemetry == {}
        assert report.as_dict()["telemetry"] == {}


# -- the whole stack end to end -----------------------------------------------


class TestEndToEnd:
    def test_replay_snapshot_covers_four_layers(self, serving_db):
        telemetry = Telemetry(slow_threshold=0.0)
        load_population(serving_db, 8)
        with TopKServer(serving_db) as engine:
            document = LoadGenerator(LoadConfig(
                threads=1, requests=40, k=5, seed=3, audit_interval=None,
            )).run(engine, telemetry=telemetry).telemetry
        layers = {name.split(".", 1)[0] for name in document["metrics"]}
        assert {"serving", "index", "backend", "concurrency"} <= layers
        slow = document["traces"]["slow"]
        reads = [record for record in slow
                 if record["name"] == "server.top_k"
                 and not record["annotations"].get("cache_hit")]
        assert reads, "expected at least one captured cold read"
        # Every cold read attributes its time to the build and the fold.
        for record in reads:
            assert {"sessions.get_or_create", "peps.top_k"} <= {
                child["name"] for child in record["children"]}
