"""The one lock shape of the serving and storage layers.

Every lock in the serving stack is a plain re-entrant lock
(:class:`threading.RLock`); :class:`TimedRLock` is the drop-in wrapper that
accounts contention — how many acquisitions there were, how many had to
wait, how long they waited and how long the lock was held.
:func:`repro.telemetry.instrument_locks` swaps it around every tracked lock
of a live server so a load report can name the hot lock instead of
guessing, and reads the numbers back through ``stats()``
(``acquisitions`` / ``contended`` / ``wait_seconds`` / ``hold_seconds``).

Lock order across the system, outermost first: *server lock → build
counter → count cache / result cache → backend* (the protocol is one
sentence in the :mod:`repro.serving.server` docstring).  Notifications are
always delivered with no backend-side lock held (see
:mod:`repro.backend.memory`), which is what keeps the server→backend order
acyclic.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional


class TimedRLock:
    """A re-entrant lock that accounts waits and holds.

    Drop-in for :class:`threading.RLock` wherever the lock is used through
    ``acquire`` / ``release`` / ``with`` — which is how every lock in the
    serving layer is used — so the load harness can swap it into a live
    server (``server._lock = TimedRLock("server")``) and read contention
    numbers back out after the run.

    A "contended" acquisition is one that could not take the lock on the
    first non-blocking attempt; its wait time is measured.  Hold time is
    measured from the outermost acquisition to the matching release, per
    thread, so re-entrant nesting is not double-counted.
    """

    def __init__(self, name: str = "lock",
                 lock: Optional[threading.RLock] = None) -> None:
        self.name = name
        self._inner = lock if lock is not None else threading.RLock()
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self.acquisitions = 0
        self.contended = 0
        self.wait_seconds = 0.0
        self.hold_seconds = 0.0
        self.max_wait_seconds = 0.0

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not blocking:
            acquired = self._inner.acquire(blocking=False)
            if acquired:
                self._note_acquired(contended=False, waited=0.0)
            return acquired
        if self._inner.acquire(blocking=False):
            self._note_acquired(contended=False, waited=0.0)
            return True
        start = time.perf_counter()
        acquired = self._inner.acquire(timeout=timeout) if timeout >= 0 \
            else self._inner.acquire()
        waited = time.perf_counter() - start
        if acquired:
            self._note_acquired(contended=True, waited=waited)
        return acquired

    def _note_acquired(self, contended: bool, waited: float) -> None:
        depth = self._depth()
        self._local.depth = depth + 1
        if depth == 0:
            self._local.acquired_at = time.perf_counter()
        with self._stats_lock:
            self.acquisitions += 1
            if contended:
                self.contended += 1
                self.wait_seconds += waited
                if waited > self.max_wait_seconds:
                    self.max_wait_seconds = waited

    def release(self) -> None:
        depth = self._depth()
        if depth == 1:
            held = time.perf_counter() - self._local.acquired_at
            with self._stats_lock:
                self.hold_seconds += held
        self._local.depth = depth - 1
        self._inner.release()

    def __enter__(self) -> "TimedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    # -- Condition-variable support ----------------------------------------------
    # threading.Condition(lock) calls these to park/resume around wait();
    # delegating to the inner RLock keeps ``Condition(TimedRLock(...))``
    # working (the count cache's in-flight coalescing relies on it).  Time
    # spent parked in wait() stays inside the surrounding hold measurement —
    # acceptable for a contention report, documented here so nobody chases
    # the discrepancy.

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        return self._inner._release_save()

    def _acquire_restore(self, state) -> None:
        self._inner._acquire_restore(state)

    def stats(self) -> Dict[str, Any]:
        """Contention counters in the shared lock-report vocabulary."""
        with self._stats_lock:
            return {
                "kind": "rlock",
                "name": self.name,
                "acquisitions": self.acquisitions,
                "contended": self.contended,
                "wait_seconds": self.wait_seconds,
                "hold_seconds": self.hold_seconds,
                "max_wait_seconds": self.max_wait_seconds,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TimedRLock({self.name!r}, acquisitions={self.acquisitions}, "
                f"contended={self.contended})")
