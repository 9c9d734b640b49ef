"""Concurrency guarantees of :mod:`repro.telemetry` (satellite: ISSUE 7).

Three families of guarantees, proven rather than assumed:

* **exact instruments** — counters (and histogram sample counts) lose no
  increments under real thread contention, property-tested over arbitrary
  per-thread workloads with Hypothesis;
* **span integrity** — concurrent traced requests never contaminate each
  other's trees (contextvars isolation per thread), and the cluster's
  parallel fan-out attaches every worker-thread span to the broadcasting
  request's root;
* **bounded, untorn traces** — however many threads record, the trace ring
  never exceeds its capacity and only complete span trees are ever
  observable.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings, strategies as st

from repro.core.preference import UserProfile
from repro.serving import ShardedTopKServer
from repro.sqldb.database import Database
from repro.telemetry import (
    MetricsRegistry,
    Span,
    Telemetry,
    TraceBuffer,
    span,
)
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import load_dataset

VENUES = ("VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM")


def _run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- exact instruments under contention ---------------------------------------


class TestExactCounters:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200),
                    min_size=2, max_size=6))
    def test_counter_loses_no_increment(self, per_thread):
        registry = MetricsRegistry()
        counter = registry.counter("telemetry.test.events")
        barrier = threading.Barrier(len(per_thread))

        def work(amount):
            barrier.wait()
            for _ in range(amount):
                counter.inc()

        _run_all([threading.Thread(target=work, args=(amount,))
                  for amount in per_thread])
        assert counter.value == sum(per_thread)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=100),
                    min_size=2, max_size=4))
    def test_histogram_counts_every_sample(self, per_thread):
        registry = MetricsRegistry()
        histogram = registry.histogram("telemetry.test.latency")
        barrier = threading.Barrier(len(per_thread))

        def work(amount):
            barrier.wait()
            for index in range(amount):
                histogram.record_us(1 + index)

        _run_all([threading.Thread(target=work, args=(amount,))
                  for amount in per_thread])
        assert histogram.count == sum(per_thread)
        assert histogram.summary()["count"] == sum(per_thread)

    def test_get_or_create_races_to_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            counter = registry.counter("telemetry.test.races")
            counter.inc()
            seen.append(counter)

        _run_all([threading.Thread(target=work) for _ in range(8)])
        assert len(set(map(id, seen))) == 1
        assert registry.counter("telemetry.test.races").value == 8


# -- span isolation across threads --------------------------------------------


class TestSpanIsolation:
    def test_concurrent_roots_stay_separate_trees(self):
        buffer = TraceBuffer(capacity=64)
        barrier = threading.Barrier(6)

        def request(index):
            barrier.wait()
            with Span(f"request_{index}", sink=buffer) as root:
                root.annotate("index", index)
                with span("stage_a"):
                    with span("stage_b"):
                        pass
                with span("stage_c"):
                    pass

        _run_all([threading.Thread(target=request, args=(index,))
                  for index in range(6)])
        records = buffer.snapshot()
        assert len(records) == 6
        for record in records:
            index = record.annotation("index")
            assert record.name == f"request_{index}"
            # Each tree holds exactly its own stages, never a neighbour's.
            assert sorted(child.name for child in record.children) == [
                "stage_a", "stage_c"]
            assert record.find("stage_b") is not None
            assert record.span_count() == 4

    def test_parallel_fanout_attaches_worker_spans_to_root(self):
        db = Database(":memory:")
        load_dataset(db, generate_dblp(
            DblpConfig(n_papers=150, n_authors=50, n_venues=6, seed=7)))
        telemetry = Telemetry()
        try:
            with ShardedTopKServer(db, shards=3, capacity=8,
                                   parallel_fanout=True) as cluster:
                telemetry.observe(cluster)
                for uid in range(1, 7):
                    profile = UserProfile(uid=uid)
                    profile.add_quantitative(
                        f"dblp.venue = '{VENUES[uid % len(VENUES)]}'", 0.9)
                    profile.add_quantitative(
                        "dblp.year >= 2008 AND dblp.year <= 2009", 0.5)
                    cluster.update_profile(uid, profile)
                telemetry.traces.clear()
                for round_ in range(3):
                    cluster.insert_tuples(
                        [Paper(pid=91_000 + round_, title="fanout",
                               venue="VLDB", year=2012)],
                        paper_authors=[(91_000 + round_, 1)])
                records = telemetry.traces.snapshot()
                assert len(records) == 3
                for record in records:
                    assert record.name == "cluster.insert_tuples"
                    handled = [child for child in record.children
                               if child.name == "server.on_data_mutation"]
                    # Every shard's pool-thread handler landed under the
                    # broadcasting request's root, none went astray.
                    assert len(handled) == cluster.shards
        finally:
            db.close()


# -- bounded, untorn trace ring -----------------------------------------------


class TestTraceBufferUnderContention:
    def test_ring_never_exceeds_capacity(self):
        buffer = TraceBuffer(capacity=16, slow_capacity=4, slow_threshold=0.0)
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                if len(buffer) > 16 or len(buffer.slow()) > 4:
                    violations.append(buffer.stats())

        def writer(index):
            for request in range(200):
                with Span(f"w{index}_r{request}", sink=buffer):
                    with span("inner"):
                        pass

        watcher = threading.Thread(target=reader)
        watcher.start()
        _run_all([threading.Thread(target=writer, args=(index,))
                  for index in range(4)])
        stop.set()
        watcher.join()
        assert not violations
        stats = buffer.stats()
        assert stats["recorded"] == 800
        assert stats["retained"] == 16
        assert stats["slow_recorded"] == 800
        assert stats["slow_retained"] == 4

    def test_no_torn_spans_visible(self):
        buffer = TraceBuffer(capacity=32)
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for record in buffer.snapshot():
                    # A complete tree always renders and carries its child.
                    if record.find("inner") is None or record.seconds < 0:
                        torn.append(record)

        def writer(index):
            for request in range(300):
                with Span(f"w{index}_r{request}", sink=buffer) as root:
                    root.annotate("writer", index)
                    with span("inner"):
                        pass

        watcher = threading.Thread(target=reader)
        watcher.start()
        _run_all([threading.Thread(target=writer, args=(index,))
                  for index in range(3)])
        stop.set()
        watcher.join()
        assert not torn
