"""Reversible lock instrumentation with registry integration.

The load harness answers "name the hot lock" by swapping
:class:`~repro.concurrency.TimedRLock` wrappers into a live serving engine.
A one-way swap is fine for a load run that owns the server, wrong for a
long-lived process that wants contention numbers for a while and then its
plain locks back.  This module makes the swap a *handle*:

* :func:`instrument_locks` covers the two locks a request can queue on:
  the server lock and the result cache's — ``server`` / ``result-cache``.
  Every swap is recorded as ``(owner, attribute, original)`` in the
  returned :class:`LockInstrumentation`;
* :meth:`LockInstrumentation.uninstrument` restores every original lock in
  reverse order;
* instrumenting an already-instrumented server returns the **same active
  handle** instead of stacking wrappers on wrappers, so repeated
  instrumentation is idempotent;
* given a :class:`~repro.telemetry.registry.MetricsRegistry`, the handle
  registers a snapshot adapter exporting every tracked lock under
  ``concurrency.lock.<name>.<metric>`` (the wrapper names are sanitised
  into legal segments, e.g. ``result-cache`` → ``result_cache``), and
  unregisters it again on restore.

The swap still requires an **idle** engine: a thread blocked inside an old
lock object at swap time would hold a lock nobody else looks at.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

from ..concurrency import TimedRLock
from .registry import MetricsRegistry, sanitize_component

#: The attribute the active handle parks on, making repeats idempotent.
_HANDLE_ATTR = "_telemetry_lock_instrumentation"

#: The stats() keys exported per lock (the shared lock-report vocabulary).
LOCK_METRIC_KEYS = ("acquisitions", "contended", "wait_seconds",
                    "hold_seconds")


class LockInstrumentation:
    """A reversible record of one engine-wide lock swap.

    ``locks`` is the uniform trackable list (every entry answers
    ``stats()``); :meth:`uninstrument` puts every original object back and
    deregisters the registry adapter.
    """

    def __init__(self, server: Any) -> None:
        self._server = server
        self._swaps: List[Tuple[Any, str, Any]] = []
        self._registry: Union[MetricsRegistry, None] = None
        self._active = True
        self.locks: List[Any] = []

    # -- building (module-internal) ------------------------------------------------

    def _swap(self, owner: Any, attribute: str, replacement: Any) -> Any:
        """Replace ``owner.attribute``, remembering the original."""
        self._swaps.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)
        return replacement

    def _export(self, registry: MetricsRegistry) -> None:
        """Register the per-lock adapter on ``registry``."""
        registry.register_adapter("locks", self._adapter)
        self._registry = registry

    def _adapter(self) -> Dict[str, float]:
        """Live ``concurrency.lock.<name>.<metric>`` values for snapshots."""
        values: Dict[str, float] = {}
        for lock in self.locks:
            stats = lock.stats()
            component = sanitize_component(stats["name"])
            for key in LOCK_METRIC_KEYS:
                values[f"concurrency.lock.{component}.{key}"] = stats[key]
        return values

    # -- lifecycle -----------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the timed wrappers are currently installed."""
        return self._active

    def report(self) -> List[Dict[str, Any]]:
        """Uniform per-lock contention records, hottest first."""
        records = [lock.stats() for lock in self.locks]
        records.sort(key=lambda record: record.get("wait_seconds", 0.0),
                     reverse=True)
        return records

    def uninstrument(self) -> None:
        """Restore every swapped lock (idempotent; engine must be idle)."""
        if not self._active:
            return
        self._active = False
        for owner, attribute, original in reversed(self._swaps):
            setattr(owner, attribute, original)
        if getattr(self._server, _HANDLE_ATTR, None) is self:
            delattr(self._server, _HANDLE_ATTR)
        if self._registry is not None:
            self._registry.unregister_adapter("locks")

    def __enter__(self) -> "LockInstrumentation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstrument()


def _wrap(handle: LockInstrumentation, owner: Any, name: str) -> TimedRLock:
    """Swap ``owner._lock`` for a timed wrapper around the *original* lock,
    so a thread idling between requests never races a fresh lock object."""
    lock = handle._swap(owner, "_lock", TimedRLock(name, lock=owner._lock))
    handle.locks.append(lock)
    return lock


def instrument_locks(server: Any,
                     registry: Union[MetricsRegistry, None] = None
                     ) -> LockInstrumentation:
    """Swap timed locks into ``server``; it must be idle.

    Returns the :class:`LockInstrumentation` handle.  Calling this on a
    server whose handle is still active returns that handle unchanged (no
    wrapper stacking); after :meth:`~LockInstrumentation.uninstrument` a new
    call instruments afresh.  With ``registry``, the handle's lock metrics
    join every snapshot until the handle is restored.  A target with no
    lock of its own (the uncached arm) gets a handle that tracks nothing.
    """
    existing = getattr(server, _HANDLE_ATTR, None)
    if existing is not None and existing.active:
        if registry is not None and existing._registry is None:
            existing._export(registry)
        return existing
    handle = LockInstrumentation(server)
    if getattr(server, "_lock", None) is None:
        return handle
    _wrap(handle, server, "server")
    _wrap(handle, server.results, "result-cache")
    setattr(server, _HANDLE_ATTR, handle)
    if registry is not None:
        handle._export(registry)
    return handle
