"""Snapshot adapters translating existing sources into unified names.

The registry's adapter contract (:data:`~repro.telemetry.registry.MetricsAdapter`)
is a zero-argument callable returning a unified-name → number mapping,
re-read on every snapshot.  The functions here wrap the pre-telemetry
introspection surfaces that predate the registry, so their counters appear
under ``layer.component.metric`` names without being duplicated or moved:

* :func:`backend_metrics` — a storage backend's op accounting
  (``backend.sqlite.statements_executed`` / ``backend.memory.rows_touched``;
  the component is the backend's own ``backend_name``);
* :func:`audit_metrics` — the load harness'
  :class:`~repro.loadgen.audit.EquivalenceAuditor` event counters
  (``loadgen.audit.audits``, ``loadgen.audit.mismatches``, ...);
* :func:`trace_buffer_metrics` — the trace ring's own occupancy and
  capture counters (``telemetry.traces.recorded``, ...).

Each returns a fresh dict per call (bind with ``functools.partial`` or a
lambda when registering), and the serving layer's ``metrics()`` surfaces
register directly — they already speak unified names.
"""

from __future__ import annotations

from typing import Any, Dict, Union

Number = Union[int, float]


def backend_metrics(db: Any) -> Dict[str, Number]:
    """A storage backend's op accounting under ``backend.<name>.*``."""
    component = db.backend_name
    return {
        f"backend.{component}.statements_executed": db.statements_executed,
        f"backend.{component}.rows_touched": db.rows_touched,
    }


def audit_metrics(auditor: Any) -> Dict[str, Number]:
    """An :class:`~repro.loadgen.audit.EquivalenceAuditor` under ``loadgen.audit.*``."""
    stats = auditor.stats()
    return {
        "loadgen.audit.audits": stats["audits"],
        "loadgen.audit.comparisons": stats["comparisons"],
        "loadgen.audit.mismatches": stats["mismatches"],
        "loadgen.audit.errors": len(stats["errors"]),
    }


def trace_buffer_metrics(buffer: Any) -> Dict[str, Number]:
    """A :class:`~repro.telemetry.trace.TraceBuffer` under ``telemetry.traces.*``."""
    stats = buffer.stats()
    return {
        "telemetry.traces.recorded": stats["recorded"],
        "telemetry.traces.retained": stats["retained"],
        "telemetry.traces.slow_recorded": stats["slow_recorded"],
        "telemetry.traces.slow_retained": stats["slow_retained"],
    }
