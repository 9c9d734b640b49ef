"""Unified observability for the serving stack: metrics, traces, exporters.

Every earlier subsystem answered "what is this process doing?" in its own
dialect — the serving engine counted requests, the backends count
``statements_executed``, locks speak the contention vocabulary, the load
harness bolts timed wrappers on.  :mod:`repro.telemetry` gives the whole
stack one vocabulary (``layer.component.metric`` names), one request-scoped
tracing mechanism (:mod:`contextvars`-ambient spans, one tree per request
however many threads serve) and two wire formats (schema-versioned JSON,
Prometheus text).  It sits *below* the serving layer in the import order —
it imports only the standard library and :mod:`repro.exceptions` — so every
layer above can use it without cycles.

Public API
----------
:class:`Telemetry`
    The per-process bundle: a :class:`MetricsRegistry` plus a
    :class:`TraceBuffer`, with ``observe(server)`` to adopt a serving
    engine (registers its ``metrics()`` and its backend as snapshot
    adapters), ``observe_auditor`` for the load harness' equivalence
    auditor, ``instrument_locks`` for reversible lock wrapping,
    ``trace()`` to open a root span, and ``snapshot()`` /
    ``json_snapshot()`` / ``prometheus()`` to export.
:class:`MetricsRegistry`
    Thread-safe instrument registry + snapshot adapters; one flat
    unified-name mapping over the whole process.
:class:`Counter` / :class:`Gauge` / :class:`Histogram`
    The registry-owned instruments (exact counters, settable or
    callback-backed gauges, locked latency histograms).
:class:`LatencyHistogram`
    The log-linear mergeable histogram (born in the load harness, now
    shared; see :mod:`repro.telemetry.histogram`).
:func:`validate_metric_name` / :func:`sanitize_component`
    The ``layer.component.metric`` naming scheme: validation and making a
    free-form label (e.g. a lock name) one legal segment.
:class:`Span` / :class:`SpanRecord` / :class:`TraceBuffer`
    Live request stages, their immutable finished trees, and the bounded
    ring (+ slow-request captures) the trees land in.
:func:`span` / :func:`annotate` / :func:`current_span`
    The ambient helpers lower layers call: attach a child stage or a note
    to the current request's trace, or no-op when untraced.
:class:`LockInstrumentation` / :func:`instrument_locks`
    Reversible, idempotent timed-lock swapping with a restore handle.
:func:`json_snapshot` / :func:`validate_snapshot` / :data:`SNAPSHOT_SCHEMA_VERSION`
    The schema-versioned JSON snapshot document and its structural check.
:func:`prometheus_text`
    The same metrics in Prometheus text exposition format.
:func:`backend_metrics` / :func:`audit_metrics` / :func:`trace_buffer_metrics`
    Snapshot adapters translating the pre-telemetry sources (backend op
    accounting, equivalence auditor, the trace ring itself) into unified
    names.
"""

from functools import partial
from typing import Any, Dict, Optional

from .adapters import (
    audit_metrics,
    backend_metrics,
    trace_buffer_metrics,
)
from .export import (
    SNAPSHOT_SCHEMA_VERSION,
    json_snapshot,
    prometheus_text,
    validate_snapshot,
)
from .histogram import LatencyHistogram
from .locks import LockInstrumentation, instrument_locks
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    sanitize_component,
    validate_metric_name,
)
from .trace import Span, SpanRecord, TraceBuffer, annotate, current_span, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "LockInstrumentation",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "Telemetry",
    "TraceBuffer",
    "annotate",
    "audit_metrics",
    "backend_metrics",
    "current_span",
    "instrument_locks",
    "json_snapshot",
    "prometheus_text",
    "sanitize_component",
    "span",
    "trace_buffer_metrics",
    "validate_metric_name",
    "validate_snapshot",
]


class Telemetry:
    """One process' observability: a registry, a trace ring, the glue.

    Construct one per process (or per test), hand it to the serving engine
    via :meth:`observe`, and every layer lights up: the engine opens root
    spans through :meth:`trace` on its front doors, the ambient
    :func:`span` helpers attach the layers below, and :meth:`snapshot`
    reads the whole stack back in unified names.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 trace_capacity: int = 256, slow_capacity: int = 64,
                 slow_threshold: float = 0.25) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.traces = TraceBuffer(capacity=trace_capacity,
                                  slow_capacity=slow_capacity,
                                  slow_threshold=slow_threshold)
        self.registry.register_adapter(
            "traces", partial(trace_buffer_metrics, self.traces))

    # -- tracing -------------------------------------------------------------------

    def trace(self, name: str, db: Any = None) -> Span:
        """A root-capable span: sinks to the trace ring when it closes as a
        root, attaches as a child when a span is already open (so a request
        a caller already traces nests under the caller's span)."""
        return Span(name, db=db, sink=self.traces)

    # -- adoption ------------------------------------------------------------------

    def observe(self, server: Any) -> Any:
        """Adopt a serving engine.

        Sets ``server.telemetry = self`` so the front doors trace into this
        bundle, and registers the server's unified ``metrics()`` surface
        and its backend's op accounting as snapshot adapters.
        Re-observing (or observing a rebuilt server) replaces the
        adapters, so this is idempotent.  Returns the server.
        """
        server.telemetry = self
        self.registry.register_adapter("serving", server.metrics)
        self.registry.register_adapter(
            "backend", partial(backend_metrics, server.db))
        return server

    def observe_auditor(self, auditor: Any) -> Any:
        """Export an :class:`~repro.loadgen.audit.EquivalenceAuditor`'s events."""
        self.registry.register_adapter("audit",
                                       partial(audit_metrics, auditor))
        return auditor

    def instrument_locks(self, server: Any) -> LockInstrumentation:
        """Swap timed locks into an idle engine, exported to this registry."""
        return instrument_locks(server, registry=self.registry)

    # -- exports -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The registry's flat unified-name → value mapping, live."""
        return self.registry.snapshot()

    def json_snapshot(self, recent_limit: int = 5) -> Dict[str, Any]:
        """The schema-versioned JSON document (metrics + traces)."""
        return json_snapshot(self.snapshot(), self.traces,
                             recent_limit=recent_limit)

    def prometheus(self) -> str:
        """The metrics in Prometheus text exposition format."""
        return prometheus_text(self.snapshot())
