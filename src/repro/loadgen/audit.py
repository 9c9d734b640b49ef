"""Background equivalence auditing for concurrent load runs.

The serving layer's standing guarantee is that every materialised answer
equals a from-scratch recomputation (:func:`~repro.serving.server.fresh_top_k`).
A one-worker run can assert it inline, between serial operations; under
concurrent load the assertion only makes sense against a **quiesced
snapshot** — a moment with no request in flight, so the caches and the
relation are mutually consistent.

:class:`TrafficGate` provides that moment without stopping the world for
long: workers wrap every request in :meth:`TrafficGate.request`, and the
auditor's :meth:`TrafficGate.quiesce` raises a pause flag, waits for the
in-flight count to drain to zero, runs the check and lowers the flag.
Workers blocked at the gate resume immediately afterwards; the measured
pause is reported (``paused_seconds``) so a load report can attribute the
latency the audits themselves injected.

:class:`EquivalenceAuditor` is the daemon thread that periodically quiesces
and compares a sample of the server's materialised answers against
``fresh_top_k``; with ``interval=0`` it is never started, and the one worker
calls :meth:`EquivalenceAuditor.check` after every op instead.  Mismatches
are collected (not raised across threads); the run fails afterwards if any
audit saw a divergence.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Sequence

from ..serving.ops import audit_materialised


class TrafficGate:
    """Pause-and-drain gate between load workers and the auditor."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._inflight = 0
        self._paused = False
        #: Requests that passed the gate / audits that quiesced it.
        self.passed = 0
        self.quiesces = 0
        self.paused_seconds = 0.0

    class _Request:
        __slots__ = ("_gate",)

        def __init__(self, gate: "TrafficGate") -> None:
            self._gate = gate

        def __enter__(self) -> "TrafficGate":
            gate = self._gate
            with gate._cond:
                while gate._paused:
                    gate._cond.wait()
                gate._inflight += 1
                gate.passed += 1
            return gate

        def __exit__(self, *exc_info: object) -> None:
            gate = self._gate
            with gate._cond:
                gate._inflight -= 1
                if gate._inflight == 0:
                    gate._cond.notify_all()

    def request(self) -> "TrafficGate._Request":
        """``with gate.request():`` around one load-generator request."""
        return TrafficGate._Request(self)

    class _Quiesce:
        __slots__ = ("_gate", "_start")

        def __init__(self, gate: "TrafficGate") -> None:
            self._gate = gate
            self._start = 0.0

        def __enter__(self) -> "TrafficGate":
            gate = self._gate
            self._start = time.perf_counter()
            with gate._cond:
                gate._paused = True
                while gate._inflight:
                    gate._cond.wait()
                gate.quiesces += 1
            return gate

        def __exit__(self, *exc_info: object) -> None:
            gate = self._gate
            with gate._cond:
                gate._paused = False
                gate.paused_seconds += time.perf_counter() - self._start
                gate._cond.notify_all()

    def quiesce(self) -> "TrafficGate._Quiesce":
        """``with gate.quiesce():`` — drain traffic, hold it out, run a check."""
        return TrafficGate._Quiesce(self)

    def stats(self) -> Dict[str, Any]:
        """Gate counters for the load report."""
        with self._cond:
            return {"requests_gated": self.passed,
                    "quiesces": self.quiesces,
                    "paused_seconds": self.paused_seconds}


class EquivalenceAuditor(threading.Thread):
    """Daemon thread auditing materialised answers against ``fresh_top_k``.

    ``server`` is a :class:`~repro.serving.server.TopKServer`: its
    ``results`` (with ``cached_users``/``peek``) and its ``db``.
    Every ``interval`` seconds the auditor quiesces the gate, samples up to
    ``sample`` cached users (round-robin over the cached population, so
    successive audits cover different users) and verifies each materialised
    ``(uid, k)`` answer.  ``interval=0`` is the inline auditor: not started,
    driven through :meth:`check`.  Divergences land in :attr:`mismatches`;
    the backend statements the recomputations issued in
    :attr:`sql_statements`, so a run can keep them out of its own count.
    """

    def __init__(self, server: Any, gate: TrafficGate, k: int,
                 interval: float = 0.5, sample: int = 8) -> None:
        super().__init__(name="loadgen-auditor", daemon=True)
        if interval < 0:
            raise ValueError("audit interval must not be negative")
        self.server = server
        self.gate = gate
        self.k = k
        self.interval = interval
        self.sample = max(1, sample)
        self._stop_event = threading.Event()
        self._cursor = 0
        #: Audit outcome counters.
        self.audits = 0
        self.comparisons = 0
        self.sql_statements = 0
        self.mismatches: List[Dict[str, Any]] = []
        self.errors: List[str] = []

    # -- one audit pass -----------------------------------------------------------

    def check(self, uids: Sequence[int]) -> int:
        """Quiesce and verify the materialised answers of ``uids``; returns
        the comparisons made."""
        with self.gate.quiesce():
            return self._compare(uids)

    def _compare(self, uids: Sequence[int]) -> int:
        self.audits += 1
        db = self.server.db
        statements_before = db.statements_executed
        checked, mismatches = audit_materialised(self.server, uids, self.k)
        self.sql_statements += db.statements_executed - statements_before
        self.comparisons += checked
        self.mismatches.extend(mismatches)
        return checked

    def audit_once(self) -> int:
        """Quiesce, verify a sample of cached answers; returns comparisons made."""
        with self.gate.quiesce():
            cached = self.server.results.cached_users()
            # Round-robin window over the cached population.
            start = self._cursor % len(cached) if cached else 0
            window = [cached[(start + offset) % len(cached)]
                      for offset in range(min(self.sample, len(cached)))]
            self._cursor += self.sample
            return self._compare(window)

    # -- thread lifecycle ---------------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via start()/stop()
        while not self._stop_event.wait(self.interval):
            try:
                self.audit_once()
            except Exception as exc:
                # Surface, don't kill the run: the report fails it afterwards.
                self.errors.append(f"{type(exc).__name__}: {exc}")
                return

    def stop(self) -> None:
        """Signal the thread to exit and wait for it."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=10.0)

    @property
    def clean(self) -> bool:
        """True when every comparison matched and no audit pass errored."""
        return not self.mismatches and not self.errors

    def stats(self) -> Dict[str, Any]:
        """Audit counters for the load report."""
        return {"audits": self.audits,
                "comparisons": self.comparisons,
                "mismatches": len(self.mismatches),
                "errors": list(self.errors)}
