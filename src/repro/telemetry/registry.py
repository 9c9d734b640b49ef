"""The unified, process-wide metrics registry.

Before this layer every subsystem grew its own ad-hoc introspection surface
(``TopKServer.stats()``, backend ``statements_executed``, lock
``stats()``, the load harness' bolt-on accounting) and answering "what
is this process doing?" meant knowing every one of them.
:class:`MetricsRegistry` centralises the vocabulary:

* **names** follow one scheme — lowercase dot-separated
  ``layer.component.metric`` (at least three segments of
  ``[a-z0-9_]+``), e.g. ``serving.server.reads``,
  ``index.count_cache.hits``, ``backend.sqlite.statements_executed``,
  ``concurrency.lock.server.wait_seconds``;
* **instruments** are registry-owned: :class:`Counter` (monotonic,
  exact under thread contention), :class:`Gauge` (a settable value or a
  zero-argument callable read at snapshot time) and :class:`Histogram`
  (the load harness' log-linear
  :class:`~repro.telemetry.histogram.LatencyHistogram` buckets behind a
  lock);
* **adapters** pull the *existing* sources in without duplicating their
  counters: an adapter is a zero-argument callable returning a mapping of
  unified names to numbers, re-read on every :meth:`MetricsRegistry.snapshot`
  — the server's ``metrics()`` surface, backend op accounting, lock
  contention, and the load harness' gate/audit sections all register this
  way (:mod:`repro.telemetry.adapters`).

One :meth:`MetricsRegistry.snapshot` therefore covers the whole process —
serving counters, cache behaviour, lock contention and backend work — as a
flat name→value mapping ready for the JSON and Prometheus exporters
(:mod:`repro.telemetry.export`).
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..exceptions import TelemetryError
from .histogram import LatencyHistogram

#: A metric name: >= 3 lowercase dot-separated ``layer.component.metric``
#: segments (letters, digits, underscores).
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")

#: An adapter: re-read at snapshot time, returns unified-name -> number.
MetricsAdapter = Callable[[], Mapping[str, Union[int, float]]]


def validate_metric_name(name: str) -> str:
    """``name`` if it follows the naming scheme, else :class:`TelemetryError`."""
    if not METRIC_NAME_RE.match(name):
        raise TelemetryError(
            f"metric name {name!r} does not follow the "
            f"'layer.component.metric' scheme (>= 3 lowercase "
            f"dot-separated [a-z0-9_]+ segments)")
    return name


def sanitize_component(raw: str) -> str:
    """A free-form label (e.g. a lock name) as one legal name segment."""
    cleaned = re.sub(r"[^a-z0-9_]+", "_", str(raw).lower()).strip("_")
    return cleaned or "unnamed"


class Counter:
    """A monotonically increasing counter, exact under thread contention."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value: set directly or computed by a callback."""

    __slots__ = ("name", "_lock", "_value", "_fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], Union[int, float]]] = None) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: Union[int, float] = 0
        self._fn = fn

    def set(self, value: Union[int, float]) -> None:
        """Set the gauge (only for gauges without a callback)."""
        if self._fn is not None:
            raise TelemetryError(
                f"gauge {self.name} is callback-backed; it cannot be set")
        with self._lock:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        """The current value (callback gauges re-evaluate on every read)."""
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A thread-safe latency histogram in the registry's vocabulary.

    Wraps :class:`~repro.telemetry.histogram.LatencyHistogram` (the load
    harness' log-linear buckets — exact merge, ≈3.1% bounded quantile
    error) behind a lock so many threads may record into one shared
    instrument; renders as the familiar count/min/mean/max + p50/p95/p99
    summary in snapshots.
    """

    __slots__ = ("name", "_lock", "_histogram")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._histogram = LatencyHistogram()

    def record(self, seconds: float) -> None:
        """Record one latency sample given in seconds."""
        with self._lock:
            self._histogram.record(seconds)

    def record_us(self, value_us: int) -> None:
        """Record one latency sample given in integer microseconds."""
        with self._lock:
            self._histogram.record_us(value_us)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        with self._lock:
            return self._histogram.count

    def summary(self) -> Dict[str, Any]:
        """JSON-ready summary (count, min/mean/max, p50/p95/p99)."""
        with self._lock:
            return self._histogram.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Thread-safe registry of named instruments and snapshot adapters.

    Instruments are get-or-create: asking for the same name twice returns
    the same object, asking for it as a different instrument kind raises
    :class:`~repro.exceptions.TelemetryError` (one name, one meaning).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._adapters: Dict[str, MetricsAdapter] = {}

    # -- instruments --------------------------------------------------------------

    def _get_or_create(self, name: str, kind: type, factory) -> Any:
        validate_metric_name(name)
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, kind):
                raise TelemetryError(
                    f"metric {name!r} is already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}")
            return instrument

    def counter(self, name: str) -> Counter:
        """The :class:`Counter` named ``name`` (created on first use)."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str,
              fn: Optional[Callable[[], Union[int, float]]] = None) -> Gauge:
        """The :class:`Gauge` named ``name`` (created on first use).

        ``fn`` makes it callback-backed: the value is recomputed on every
        read, so the gauge always reports the source's live state.
        """
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None and gauge._fn is None:
            raise TelemetryError(
                f"gauge {name!r} is already registered as settable; "
                f"it cannot become callback-backed")
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The :class:`Histogram` named ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram, lambda: Histogram(name))

    # -- adapters -----------------------------------------------------------------

    def register_adapter(self, name: str, adapter: MetricsAdapter) -> None:
        """Register a snapshot-time source under the unique key ``name``.

        Re-registering the same key replaces the adapter (so re-observing a
        rebuilt server is idempotent rather than an error).  The mapping the
        adapter returns is validated against the naming scheme on every
        snapshot.
        """
        with self._lock:
            self._adapters[name] = adapter

    def unregister_adapter(self, name: str) -> bool:
        """Remove one adapter; returns whether it was registered."""
        with self._lock:
            return self._adapters.pop(name, None) is not None

    def adapter_names(self) -> List[str]:
        """The registered adapter keys, sorted."""
        with self._lock:
            return sorted(self._adapters)

    # -- snapshots ----------------------------------------------------------------

    def names(self) -> List[str]:
        """Every directly registered instrument name, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """One flat unified-name → value mapping over the whole process.

        Counters and gauges render as numbers, histograms as their summary
        dicts; every registered adapter is re-read, so the snapshot reflects
        the live state of every adapted source.  Adapter values win over a
        same-named instrument (they are the source of truth for adapted
        subsystems).
        """
        with self._lock:
            instruments = list(self._instruments.values())
            adapters = list(self._adapters.values())
        snapshot: Dict[str, Any] = {}
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                snapshot[instrument.name] = instrument.summary()
            else:
                snapshot[instrument.name] = instrument.value
        for adapter in adapters:
            for name, value in adapter().items():
                snapshot[validate_metric_name(name)] = value
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MetricsRegistry(instruments={len(self)}, "
                f"adapters={len(self._adapters)})")
