"""Property-based tests (hypothesis) for the load-harness latency statistics.

The load generator's SLO numbers are only as trustworthy as the histogram
math underneath them, so the three guarantees the report relies on are
pinned down as properties over arbitrary sample sets:

* merging per-worker histograms is *exactly* recording every sample into
  one histogram (bucket counts, count, sum, min, max — all of it);
* quantiles are monotone in ``q`` (p50 <= p95 <= p99 for every sample set);
* quantiles are *exact* (no bucketing error) for samples inside the
  unit-bucket range, and within the documented ≈3.1% relative error bound
  everywhere else.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.histogram import (
    REPORT_QUANTILES,
    SUB_BUCKET_BITS,
    LatencyHistogram,
    bucket_index,
    bucket_lower_bound,
)

#: Latencies from 0 µs up to ~1.2 h — every magnitude the harness can see.
samples_us = st.lists(st.integers(min_value=0, max_value=2**32),
                      min_size=1, max_size=200)
#: Samples that stay inside the exact unit-wide buckets.
unit_samples_us = st.lists(
    st.integers(min_value=0, max_value=(1 << SUB_BUCKET_BITS) - 1),
    min_size=1, max_size=200)


def _fill(values):
    histogram = LatencyHistogram()
    for value in values:
        histogram.record_us(value)
    return histogram


def _nearest_rank(values, q):
    """Reference nearest-rank quantile over the raw samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# -- bucket geometry ---------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**40))
def test_bucket_roundtrip_bounds_value(value):
    """Every value lands in a bucket whose lower bound is <= the value."""
    index = bucket_index(value)
    lower = bucket_lower_bound(index)
    assert lower <= value
    # ...and the next bucket starts strictly above the value.
    assert bucket_lower_bound(index + 1) > value


@given(st.integers(min_value=0, max_value=2**40))
def test_bucket_relative_error_bound(value):
    """Reporting the lower bound under-reports by at most 1/2**BITS."""
    lower = bucket_lower_bound(bucket_index(value))
    assert value - lower <= max(value / (1 << SUB_BUCKET_BITS), 0)


def test_bucket_index_rejects_negative():
    with pytest.raises(ValueError):
        bucket_index(-1)


# -- merge == concatenate ----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**32),
                         min_size=0, max_size=60),
                min_size=1, max_size=6))
def test_merge_equals_concatenated_recording(worker_samples):
    """Merging per-worker histograms == one histogram of all samples."""
    per_worker = [_fill(values) for values in worker_samples]
    merged = LatencyHistogram.merged(per_worker)
    concatenated = _fill([value for values in worker_samples
                          for value in values])
    assert merged == concatenated
    assert merged.count == sum(len(values) for values in worker_samples)
    # Merging must not have mutated the sources' counts.
    for histogram, values in zip(per_worker, worker_samples):
        assert histogram.count == len(values)


@given(samples_us, samples_us)
@settings(max_examples=50, deadline=None)
def test_merge_is_commutative_on_summaries(left_values, right_values):
    left_first = LatencyHistogram.merged([_fill(left_values),
                                          _fill(right_values)])
    right_first = LatencyHistogram.merged([_fill(right_values),
                                           _fill(left_values)])
    assert left_first == right_first


# -- quantile properties -----------------------------------------------------


@given(samples_us)
@settings(max_examples=80, deadline=None)
def test_report_quantiles_are_monotone(values):
    """p50 <= p95 <= p99 on any sample set (the report's sanity invariant)."""
    histogram = _fill(values)
    quantiles = [histogram.quantile_us(q) for q in REPORT_QUANTILES]
    assert quantiles == sorted(quantiles)
    summary = histogram.as_dict()
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    # Quantiles report bucket lower bounds, so they sit between the
    # (bucketed) minimum and the raw maximum.
    assert bucket_lower_bound(bucket_index(histogram.min_us)) \
        <= histogram.quantile_us(0.5)
    assert histogram.quantile_us(1.0) <= summary["max_ms"] * 1000


@given(unit_samples_us, st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_quantiles_exact_in_unit_bucket_range(values, q):
    """Below 2**SUB_BUCKET_BITS µs every bucket is unit-wide: quantiles
    equal the reference nearest-rank quantile over the raw samples."""
    histogram = _fill(values)
    assert histogram.quantile_us(q) == _nearest_rank(values, q)


@given(samples_us, st.floats(min_value=0.01, max_value=1.0,
                             allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_quantiles_within_error_bound_everywhere(values, q):
    """At any magnitude the reported quantile is the true nearest-rank
    value rounded down by at most one bucket width (≈3.1% relative)."""
    histogram = _fill(values)
    reported = histogram.quantile_us(q)
    true = _nearest_rank(values, q)
    assert reported <= true
    assert true - reported <= max(true / (1 << SUB_BUCKET_BITS), 0)


def test_known_distribution_quantiles():
    """Spot-check on a fixed distribution: 1..100 µs, all unit-exact? No —
    values above 31 µs are bucketed; check the documented behaviour."""
    histogram = _fill(range(1, 101))
    assert histogram.quantile_us(0.5) == bucket_lower_bound(bucket_index(50))
    assert histogram.quantile_us(0.01) == 1
    assert histogram.quantile_us(1.0) == bucket_lower_bound(bucket_index(100))
    assert histogram.count == 100
    assert histogram.min_us == 1 and histogram.max_us == 100
    assert histogram.mean_us == pytest.approx(50.5)


def test_empty_histogram_reports_zeroes():
    histogram = LatencyHistogram()
    assert histogram.quantile_us(0.99) == 0
    assert histogram.as_dict()["count"] == 0
    assert len(histogram) == 0


def test_record_seconds_converts_to_microseconds():
    histogram = LatencyHistogram()
    histogram.record(0.000_012)  # 12 µs — unit-bucket range, exact
    assert histogram.quantile_us(1.0) == 12


def test_quantile_rejects_out_of_range():
    with pytest.raises(ValueError):
        LatencyHistogram().quantile_us(1.5)
