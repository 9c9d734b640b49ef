"""Storage-backend abstraction: one protocol, one served engine.

The engine seam of the reproduction: every layer above storage — count
cache, query runner, serving engine, load runner — consumes the narrow
:class:`~repro.backend.protocol.StorageBackend` surface instead of a
concrete engine.  The engine a user, the CLI or a world builder gets is
SQLite, :class:`~repro.sqldb.database.Database`: the relational substrate
of the paper's prototype.  The columnar engine stays only as a
differential arm (see ``docs/ARCHITECTURE.md``, "Why there is one served
engine").

Public API
----------
:class:`StorageBackend`
    The structural protocol: query surface over the canonical joined view
    (``count_matching`` / ``count_many`` / ``matching_paper_ids`` /
    ``joined_rows``), the mutation surface with pre-/post-image capture,
    data-mutation subscriptions, op accounting (``statements_executed``,
    ``rows_touched``) and the workload-shape helpers schedules are built
    from.
:class:`MemoryBackend`
    The pure in-memory columnar engine: dict-of-columns over the joined
    view with a per-attribute inverted index, answering predicates by set
    algebra under the same SQLite-faithful comparison rules.  Reached only
    by name; nothing serves it by default.
:func:`create_backend`
    Factory: engine name (``"sqlite"`` / ``"memory"``) → a fresh backend
    instance.  ``"sqlite"`` is :class:`~repro.sqldb.database.Database`.
``BACKEND_NAMES``
    The registered engine names, in factory order.
"""

from __future__ import annotations

from ..exceptions import RelationalError
from ..sqldb.database import Database
from .memory import MemoryBackend
from .protocol import StorageBackend

#: Engine name -> backend class.
_REGISTRY = {
    "sqlite": Database,
    "memory": MemoryBackend,
}

#: The registered engine names, in factory order.
BACKEND_NAMES = tuple(_REGISTRY)


def create_backend(name: str, path: str = ":memory:") -> StorageBackend:
    """Build a fresh storage backend by engine name.

    ``name`` is ``"sqlite"`` or ``"memory"``.  ``path`` is the storage
    location for engines that persist; the memory engine accepts only
    ``":memory:"``.
    """
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        raise RelationalError(
            f"unknown backend {name!r}; pick one of {', '.join(BACKEND_NAMES)}")
    return _REGISTRY[key](path)


__all__ = [
    "BACKEND_NAMES",
    "MemoryBackend",
    "StorageBackend",
    "create_backend",
]
