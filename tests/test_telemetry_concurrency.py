"""Concurrency guarantees of :mod:`repro.telemetry` (satellite: ISSUE 7).

Three families of guarantees, proven rather than assumed:

* **exact instruments** — counters (and histogram sample counts) lose no
  increments under real thread contention, property-tested over arbitrary
  per-thread workloads with Hypothesis;
* **span integrity** — concurrent traced requests never contaminate each
  other's trees (contextvars isolation per thread);
* **bounded, untorn traces** — however many threads record, the trace ring
  never exceeds its capacity and only complete span trees are ever
  observable.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    MetricsRegistry,
    Span,
    TraceBuffer,
    span,
)


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
