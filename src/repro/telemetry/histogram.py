"""Mergeable latency histograms and quantile math.

Born in the load harness (:mod:`repro.loadgen`, which still re-exports the
whole surface as ``repro.loadgen.stats``), the histogram now lives at the
telemetry layer so the :class:`~repro.telemetry.MetricsRegistry` can carry
the same buckets without importing the serving stack.

:class:`LatencyHistogram` is an HDR-style log-linear histogram over integer
microseconds: values below ``2**SUB_BUCKET_BITS`` µs land in exact unit-wide
buckets, and every further power-of-two range is split into
``2**SUB_BUCKET_BITS`` linear sub-buckets, so the recorded-to-reported
relative error is bounded by ``1 / 2**SUB_BUCKET_BITS`` (≈3.1%) at any
magnitude — microseconds to minutes — with a few hundred buckets total.

Design constraints, in order:

* **lock-free recording** — each load-generator worker owns its own
  histogram and records without any synchronisation; nothing is shared
  until the run is over;
* **exact merging** — :meth:`LatencyHistogram.merge` adds bucket counts, so
  merging per-worker histograms is *exactly* equivalent to recording every
  sample into one histogram (the Hypothesis property
  ``tests/test_loadgen_stats.py`` pins down);
* **deterministic quantiles** — :meth:`LatencyHistogram.quantile_us` is the
  nearest-rank quantile over bucket lower bounds: monotone in ``q``, exact
  for values that fall in unit-wide buckets, and within the bucket-width
  error bound everywhere else.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Linear sub-buckets per power-of-two range (2**5 = 32 → ≈3.1% max error).
SUB_BUCKET_BITS = 5
_SUB_BUCKETS = 1 << SUB_BUCKET_BITS

#: The quantiles every load report carries.
REPORT_QUANTILES = (0.50, 0.95, 0.99)


def bucket_index(value_us: int) -> int:
    """The histogram bucket holding ``value_us`` (non-negative µs)."""
    if value_us < 0:
        raise ValueError(f"latency cannot be negative: {value_us}")
    if value_us < _SUB_BUCKETS:
        return value_us
    exponent = value_us.bit_length() - 1
    # Top SUB_BUCKET_BITS+1 bits select the linear sub-bucket within the
    # [2**exponent, 2**(exponent+1)) range.
    sub = value_us >> (exponent - SUB_BUCKET_BITS)
    group = exponent - SUB_BUCKET_BITS + 1
    return (group << SUB_BUCKET_BITS) + (sub - _SUB_BUCKETS)


def bucket_lower_bound(index: int) -> int:
    """The smallest value (µs) mapping to bucket ``index`` (its report value)."""
    if index < _SUB_BUCKETS:
        return index
    group = index >> SUB_BUCKET_BITS
    sub = (index & (_SUB_BUCKETS - 1)) + _SUB_BUCKETS
    return sub << (group - 1)


class LatencyHistogram:
    """Log-linear latency histogram over integer microseconds.

    One instance per worker thread: :meth:`record` touches only this
    instance's dict, so workers never contend; the coordinator merges the
    per-worker histograms after the run (see module docstring).
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.sum_us = 0
        self.min_us: Optional[int] = None
        self.max_us: Optional[int] = None

    # -- recording ----------------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Record one latency sample given in seconds."""
        self.record_us(int(seconds * 1_000_000))

    def record_us(self, value_us: int) -> None:
        """Record one latency sample given in integer microseconds."""
        index = bucket_index(value_us)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum_us += value_us
        if self.min_us is None or value_us < self.min_us:
            self.min_us = value_us
        if self.max_us is None or value_us > self.max_us:
            self.max_us = value_us

    # -- merging ------------------------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (exact; returns self)."""
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.sum_us += other.sum_us
        if other.min_us is not None:
            if self.min_us is None or other.min_us < self.min_us:
                self.min_us = other.min_us
        if other.max_us is not None:
            if self.max_us is None or other.max_us > self.max_us:
                self.max_us = other.max_us
        return self

    @classmethod
    def merged(cls, histograms: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        """A fresh histogram holding every input's samples."""
        total = cls()
        for histogram in histograms:
            total.merge(histogram)
        return total

    # -- quantiles ----------------------------------------------------------------

    def quantile_us(self, q: float) -> int:
        """Nearest-rank quantile in µs (bucket lower bound; see module docs)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0
        # Nearest-rank: the smallest value with at least ceil(q*n) samples
        # at or below it; q=0 degenerates to the minimum.
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                return bucket_lower_bound(index)
        return bucket_lower_bound(max(self._buckets))  # pragma: no cover

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile in seconds."""
        return self.quantile_us(q) / 1_000_000

    @property
    def mean_us(self) -> float:
        """Arithmetic mean of the raw (pre-bucketing) samples, in µs."""
        return (self.sum_us / self.count) if self.count else 0.0

    def percentiles_ms(self) -> Dict[str, float]:
        """The report quantiles (p50/p95/p99) in milliseconds."""
        return {f"p{int(q * 100)}_ms": self.quantile_us(q) / 1000
                for q in REPORT_QUANTILES}

    # -- introspection ------------------------------------------------------------

    def buckets(self) -> List[Tuple[int, int]]:
        """``(lower_bound_us, count)`` pairs, ascending (for plots/tests)."""
        return [(bucket_lower_bound(index), self._buckets[index])
                for index in sorted(self._buckets)]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary: count, min/mean/max and the report quantiles."""
        summary: Dict[str, Any] = {
            "count": self.count,
            "min_ms": (self.min_us or 0) / 1000,
            "mean_ms": self.mean_us / 1000,
            "max_ms": (self.max_us or 0) / 1000,
        }
        summary.update(self.percentiles_ms())
        return summary

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (self._buckets == other._buckets and self.count == other.count
                and self.sum_us == other.sum_us
                and self.min_us == other.min_us and self.max_us == other.max_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"LatencyHistogram(count={self.count}, "
                f"p50_us={self.quantile_us(0.5)}, "
                f"p99_us={self.quantile_us(0.99)})")
