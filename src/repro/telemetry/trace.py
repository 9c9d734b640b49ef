"""Request-scoped tracing: spans, ambient context, and the trace ring.

Answers the question the metrics registry cannot: *where did this slow
request spend its time?*  A :class:`Span` measures one named stage of a
request — wall time plus the backend work done while it was open
(``statements_executed`` / ``rows_touched`` deltas) and free-form
annotations (cache outcomes, uids, row counts).  Spans nest: the active
span lives in a :mod:`contextvars` context variable, so concurrent requests
on different threads each see their own span tree.

The ambient design keeps instrumentation cheap and local:

* a **root** span is opened by the serving front doors via
  :meth:`repro.telemetry.Telemetry.trace`; when it closes, the finished
  immutable :class:`SpanRecord` tree lands in the :class:`TraceBuffer`;
* any layer below (session registry, count cache, result cache) calls the
  module-level :func:`span` / :func:`annotate` helpers, which attach to the
  current span when a request is being traced and are near-zero-cost no-ops
  otherwise — no telemetry object is plumbed through the stack, and a
  server built without telemetry pays one context-variable read per helper
  call;
* the :class:`TraceBuffer` is a bounded ring (`collections.deque` with
  ``maxlen``) holding complete root records only — a reader can never see a
  torn, in-progress span — plus a second bounded ring capturing **slow**
  requests above a configurable threshold, so the interesting traces
  survive long after the ring has cycled.

Statement/row deltas are read from the backend's process-wide counters, so
with concurrent writers a span's attribution includes statements other
threads issued while it was open; single-request traces (the replay driver,
the slow-request captures of a mostly-warm workload) attribute exactly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: The innermost open span of the current logical request (None = untraced).
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_telemetry_span", default=None)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: immutable, with its finished children.

    Records are built bottom-up as spans close, so a record visible anywhere
    (a parent's ``children``, the trace buffer) is always complete.
    """

    name: str
    seconds: float
    sql_statements: int
    rows_touched: int
    annotations: Tuple[Tuple[str, Any], ...] = ()
    children: Tuple["SpanRecord", ...] = ()

    def annotation(self, key: str, default: Any = None) -> Any:
        """The value of one annotation (first win), or ``default``."""
        for name, value in self.annotations:
            if name == key:
                return value
        return default

    def walk(self) -> Iterator["SpanRecord"]:
        """This record and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def span_count(self) -> int:
        """Total spans in the tree (the root included)."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Nesting depth of the tree (a leaf root is depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def find(self, name: str) -> Optional["SpanRecord"]:
        """The first descendant (or self) named ``name``, depth-first."""
        for record in self.walk():
            if record.name == name:
                return record
        return None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering of the whole tree."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "sql_statements": self.sql_statements,
            "rows_touched": self.rows_touched,
            "annotations": {key: value for key, value in self.annotations},
            "children": [child.as_dict() for child in self.children],
        }

    def tree(self) -> str:
        """A human-readable indented rendering (for reports and docs)."""
        lines: List[str] = []

        def render(record: "SpanRecord", indent: int) -> None:
            notes = "".join(f" {key}={value}"
                            for key, value in record.annotations)
            lines.append(f"{'  ' * indent}{record.name} "
                         f"{record.seconds * 1000:.2f}ms "
                         f"sql={record.sql_statements}"
                         f"{notes}")
            for child in record.children:
                render(child, indent + 1)

        render(self, 0)
        return "\n".join(lines)


class Span:
    """One live, open stage of a traced request (a context manager).

    ``db`` (any object with ``statements_executed`` / ``rows_touched``)
    provides the work counters the span diffs; ``sink`` is the
    :class:`TraceBuffer` a *root* span delivers its finished record to —
    when the span finds an enclosing span on entry it attaches there as a
    child instead, so the same constructor serves both roles.
    """

    __slots__ = ("name", "_db", "_sink", "_parent", "_token", "_start",
                 "_statements_before", "_rows_before", "_annotations",
                 "_children")

    def __init__(self, name: str, db: Any = None,
                 sink: Optional["TraceBuffer"] = None) -> None:
        self.name = name
        self._db = db
        self._sink = sink
        self._parent: Optional["Span"] = None
        self._token = None
        self._start = 0.0
        self._statements_before = 0
        self._rows_before = 0
        self._annotations: List[Tuple[str, Any]] = []
        self._children: List[SpanRecord] = []

    def annotate(self, key: str, value: Any) -> "Span":
        """Attach one ``key=value`` note to this span; returns self."""
        self._annotations.append((key, value))
        return self

    def __enter__(self) -> "Span":
        self._parent = _CURRENT_SPAN.get()
        self._token = _CURRENT_SPAN.set(self)
        db = self._db
        if db is not None:
            self._statements_before = db.statements_executed
            self._rows_before = db.rows_touched
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        seconds = time.perf_counter() - self._start
        db = self._db
        record = SpanRecord(
            name=self.name,
            seconds=seconds,
            sql_statements=(db.statements_executed - self._statements_before
                            if db is not None else 0),
            rows_touched=(db.rows_touched - self._rows_before
                          if db is not None else 0),
            annotations=tuple(self._annotations),
            children=tuple(self._children),
        )
        _CURRENT_SPAN.reset(self._token)
        if self._parent is not None:
            self._parent._children.append(record)
        elif self._sink is not None:
            self._sink.record(record)


class _NullSpan:
    """The shared no-op returned when nothing is being traced."""

    __slots__ = ()

    def annotate(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def current_span() -> Optional[Span]:
    """The innermost open span of this logical request, or ``None``."""
    return _CURRENT_SPAN.get()


def span(name: str, db: Any = None):
    """Open a child stage of the current request, if one is being traced.

    The instrumentation helper for the layers below the front door: when the
    request carries no trace (no root span), this returns a shared no-op
    context manager — one context-variable read of overhead — so call sites
    never need a telemetry object or an enabled/disabled flag.
    """
    if _CURRENT_SPAN.get() is None:
        return _NULL_SPAN
    return Span(name, db=db)


def annotate(key: str, value: Any) -> None:
    """Attach ``key=value`` to the current span (no-op when untraced)."""
    current = _CURRENT_SPAN.get()
    if current is not None:
        current.annotate(key, value)


class TraceBuffer:
    """Bounded in-memory ring of finished request traces.

    Two rings: ``capacity`` most recent roots, plus the ``slow_capacity``
    most recent roots slower than ``slow_threshold`` seconds (the captures
    that answer "where did the p99 go?" long after the main ring cycled).
    Only complete :class:`SpanRecord` trees are ever stored, so no reader
    observes a torn span; both rings are `deque(maxlen=...)`, so neither
    can exceed its bound however many threads record concurrently.
    """

    def __init__(self, capacity: int = 256, slow_capacity: int = 64,
                 slow_threshold: float = 0.25) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("trace buffer capacities must be >= 1")
        if slow_threshold < 0:
            raise ValueError("slow threshold cannot be negative")
        self.capacity = capacity
        self.slow_capacity = slow_capacity
        self.slow_threshold = slow_threshold
        self._ring: "deque[SpanRecord]" = deque(maxlen=capacity)
        self._slow: "deque[SpanRecord]" = deque(maxlen=slow_capacity)
        self._lock = threading.Lock()
        self._recorded = 0
        self._slow_recorded = 0

    def record(self, record: SpanRecord) -> None:
        """Store one finished root record (and capture it if slow)."""
        with self._lock:
            self._recorded += 1
            self._ring.append(record)
            if record.seconds >= self.slow_threshold:
                self._slow_recorded += 1
                self._slow.append(record)

    # -- reads --------------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total root records ever recorded (beyond what the ring holds)."""
        with self._lock:
            return self._recorded

    def snapshot(self) -> List[SpanRecord]:
        """The retained recent traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def slow(self) -> List[SpanRecord]:
        """The retained slow-request captures, oldest first."""
        with self._lock:
            return list(self._slow)

    def clear(self) -> None:
        """Drop every retained trace and reset the counters."""
        with self._lock:
            self._ring.clear()
            self._slow.clear()
            self._recorded = 0
            self._slow_recorded = 0

    def stats(self) -> Dict[str, Any]:
        """Buffer counters for snapshots and reports."""
        with self._lock:
            return {
                "recorded": self._recorded,
                "retained": len(self._ring),
                "capacity": self.capacity,
                "slow_recorded": self._slow_recorded,
                "slow_retained": len(self._slow),
                "slow_capacity": self.slow_capacity,
                "slow_threshold_ms": self.slow_threshold * 1000,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
