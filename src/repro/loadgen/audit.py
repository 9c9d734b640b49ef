"""Background equivalence auditing for concurrent load runs.

The serving layer's standing guarantee is that every materialised answer
equals a from-scratch recomputation (:func:`~repro.serving.server.fresh_top_k`).
A one-worker run can assert it inline, between serial operations; under
concurrent load the assertion only makes sense against a **quiesced
point** — a moment when the caches and the relation are mutually
consistent.  The server's one lock is that point: every state change (cold
read, profile update, mutation, sweep, close) runs under it, and
:func:`~repro.serving.ops.audit_materialised` compares while holding it.
Warm hits take no lock and change nothing, so they carry on during an
audit; an op that needs the lock queues behind it like behind any other
holder, and that wait is part of its measured latency.

:class:`EquivalenceAuditor` is the daemon thread that periodically compares
a sample of the server's materialised answers against ``fresh_top_k``; with
``interval=0`` it is never started, and the one worker calls
:meth:`EquivalenceAuditor.check` after every op instead.  Mismatches are
collected (not raised across threads); the run fails afterwards if any
audit saw a divergence.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence

from ..serving.ops import audit_materialised


class EquivalenceAuditor(threading.Thread):
    """Daemon thread auditing materialised answers against ``fresh_top_k``.

    ``server`` is a :class:`~repro.serving.server.TopKServer`: its
    ``results`` (with ``cached_users``/``peek``) and its ``db``.
    Every ``interval`` seconds the auditor samples up to ``sample`` cached
    users (round-robin over the cached population, so successive audits
    cover different users) and verifies each one's materialised answer at
    its own ``k``.  ``interval=0`` is the inline
    auditor: not started, driven through :meth:`check`.  Divergences land
    in :attr:`mismatches`; the backend statements the recomputations issued
    in :attr:`sql_statements`, so a run can keep them out of its own count.
    """

    def __init__(self, server: Any, interval: float = 0.5,
                 sample: int = 8) -> None:
        super().__init__(name="loadgen-auditor", daemon=True)
        if interval < 0:
            raise ValueError("audit interval must not be negative")
        self.server = server
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
        """Verify the materialised answers of ``uids`` under the server
        lock; returns the comparisons made."""
        self.audits += 1
        checked, mismatches, statements = audit_materialised(self.server,
                                                             uids)
        self.sql_statements += statements
        self.comparisons += checked
        self.mismatches.extend(mismatches)
        return checked

    def audit_once(self) -> int:
        """Verify a sample of cached answers; returns comparisons made."""
        cached = self.server.results.cached_users()
        # Round-robin window over the cached population.
        start = self._cursor % len(cached) if cached else 0
        window = [cached[(start + offset) % len(cached)]
                  for offset in range(min(self.sample, len(cached)))]
        self._cursor += self.sample
        return self.check(window)

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
