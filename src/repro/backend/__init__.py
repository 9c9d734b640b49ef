"""Storage-backend abstraction: one protocol, interchangeable engines.

The engine seam of the reproduction (see ``docs/BACKENDS.md``): every layer
above storage — count cache, query runner, serving engine, replay driver,
experiment context, CLI — consumes the narrow
:class:`~repro.backend.protocol.StorageBackend` surface instead of a
concrete engine, so the relational substrate of the paper's prototype is one
implementation among several rather than the floor of the hot path.

Public API
----------
:class:`StorageBackend`
    The structural protocol: query surface over the canonical joined view
    (``count_matching`` / ``count_many`` / ``matching_paper_ids`` /
    ``joined_rows``), the mutation surface with pre-/post-image capture,
    data-mutation subscriptions, op accounting (``statements_executed``,
    ``rows_touched``) and the replay driver's workload-shape helpers.
:class:`MemoryBackend`
    The pure in-memory columnar engine: dict-of-columns over the joined
    view with a per-attribute inverted index, answering predicates by set
    algebra under the same SQLite-faithful comparison rules.
:func:`create_backend`
    Factory: engine name (``"sqlite"`` / ``"memory"`` or ``None`` for the
    environment default) → a fresh backend instance.  ``"sqlite"`` is the
    relational engine, :class:`~repro.sqldb.database.Database`.
:func:`default_backend_name`
    The process-wide default engine name: the ``REPRO_BACKEND`` environment
    variable when set (this is how the CI matrix re-runs the tier-1 suite
    on the memory engine), ``"sqlite"`` otherwise.
``BACKEND_NAMES``
    The registered engine names, in factory order.
"""

from __future__ import annotations

import os
from typing import Optional

from ..exceptions import RelationalError
from ..sqldb.database import Database
from .memory import MemoryBackend
from .protocol import StorageBackend

#: Engine name -> backend class (extend here to register a third engine).
_REGISTRY = {
    "sqlite": Database,
    "memory": MemoryBackend,
}

#: The registered engine names, in factory order.
BACKEND_NAMES = tuple(_REGISTRY)


def default_backend_name() -> str:
    """The default engine name for this process.

    Reads the ``REPRO_BACKEND`` environment variable (validated against
    :data:`BACKEND_NAMES`) and falls back to ``"sqlite"`` — the knob the CI
    matrix uses to replay the whole tier-1 suite on the memory engine.
    """
    name = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not name:
        return "sqlite"
    if name not in _REGISTRY:
        raise RelationalError(
            f"REPRO_BACKEND={name!r} is not a registered backend; "
            f"pick one of {', '.join(BACKEND_NAMES)}")
    return name


def create_backend(name: Optional[str] = None,
                   path: str = ":memory:") -> StorageBackend:
    """Build a fresh storage backend by engine name.

    ``name`` is ``"sqlite"``, ``"memory"`` or ``None`` (the
    :func:`default_backend_name` environment default).  ``path`` is the
    storage location for engines that persist; the memory engine accepts
    only ``":memory:"``.
    """
    if name is None:
        name = default_backend_name()
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
    "default_backend_name",
]
