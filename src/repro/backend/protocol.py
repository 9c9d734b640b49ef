"""The :class:`StorageBackend` protocol — the engine seam of the repro.

Every serving layer above the storage engine (count cache, query runner,
serving engine, load runner) consumes exactly the narrow surface written
down here, never a concrete engine class.  The protocol is *structural*
(:class:`typing.Protocol`): any object with these members is a backend —
:class:`~repro.sqldb.database.Database` (the SQLite engine, the one that is
served) and :class:`repro.backend.MemoryBackend` (the columnar engine, kept
as a differential arm) both satisfy it.  Members outside the serving
surface (``total_papers`` and ``distinct_count`` for the experiments,
``commit`` for the loader bodies) live on
:class:`~repro.sqldb.database.Database` alone.

The surface has five groups:

* **query** — :meth:`~StorageBackend.count_matching` /
  :meth:`~StorageBackend.count_many` /
  :meth:`~StorageBackend.matching_paper_ids` over the canonical
  ``dblp JOIN dblp_author`` view, plus :meth:`~StorageBackend.joined_rows`
  (the raw view scan image capture and differential tests use);
* **mutation** — the loader front doors with pre-/post-image capture:
  :meth:`~StorageBackend.load_dataset`, :meth:`~StorageBackend.append_papers`,
  :meth:`~StorageBackend.delete_papers`, :meth:`~StorageBackend.update_papers`
  and the profile staging round-trip
  (:meth:`~StorageBackend.load_profiles` /
  :meth:`~StorageBackend.read_profiles`, and
  :meth:`~StorageBackend.profile_rows`, one user's rows as plain tuples —
  what a cold read builds from);
* **events** — :meth:`~StorageBackend.subscribe` /
  :meth:`~StorageBackend.unsubscribe` / :meth:`~StorageBackend.notify` for
  :class:`~repro.sqldb.events.DataMutation` delivery (notify after close is
  always a caller bug and raises);
* **op accounting** — :attr:`~StorageBackend.statements_executed` (round
  trips, whatever a "statement" means to the engine) and
  :attr:`~StorageBackend.rows_touched` (rows written — the cross-backend
  comparable measure of real work);
* **workload shape** — the scalar helpers the replay driver builds its
  deterministic schedules from.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import-free at runtime
    from ..core.preference import ProfileRegistry
    from ..sqldb.events import DataMutation
    from ..workload.dblp import DblpDataset, Paper

#: A data-mutation subscriber as registered via ``subscribe``.
MutationListener = Callable[["DataMutation"], None]

#: Anything accepted where a predicate is expected: a
#: :class:`~repro.core.predicate.PredicateExpr` or its SQL text.
PredicateLike = Any


@runtime_checkable
class StorageBackend(Protocol):
    """Structural protocol of a workload storage engine (see module docs).

    ``backend_name`` is the engine's factory name
    (:func:`repro.backend.create_backend` key); ``statements_executed`` and
    ``rows_touched`` are monotonically increasing counters every public
    operation updates.
    """

    backend_name: str
    statements_executed: int
    rows_touched: int

    # -- lifecycle ----------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        """``True`` once :meth:`close` has been called."""
        ...

    def close(self) -> None:
        """Release the engine (idempotent).  Every later operation — including
        :meth:`notify` — raises :class:`~repro.exceptions.RelationalError`,
        and the listener list is cleared."""
        ...

    # -- data-mutation events -----------------------------------------------------

    def subscribe(self, listener: MutationListener) -> MutationListener:
        """Register ``listener`` for every :class:`DataMutation`; returns it."""
        ...

    def unsubscribe(self, listener: MutationListener) -> None:
        """Remove a previously registered listener (idempotent)."""
        ...

    @property
    def has_subscribers(self) -> bool:
        """Whether any listener is registered (image capture is skipped
        when nobody would consume the payload)."""
        ...

    def notify(self, mutation: "DataMutation") -> None:
        """Deliver ``mutation`` to every subscriber, in registration order."""
        ...

    # -- query surface ------------------------------------------------------------

    def count_matching(self, predicate: Optional[PredicateLike] = None) -> int:
        """Distinct papers matching ``predicate`` (whole relation on ``None``)."""
        ...

    def count_many(self, predicates: Sequence[PredicateLike]) -> List[int]:
        """One count per predicate, in order."""
        ...

    def matching_paper_ids(self, predicate: Optional[PredicateLike] = None,
                           limit: Optional[int] = None) -> List[int]:
        """Distinct matching paper ids, ascending, optionally limited."""
        ...

    def joined_rows(self, pids: Optional[Sequence[int]] = None
                    ) -> List[Dict[str, Any]]:
        """The ``dblp JOIN dblp_author`` view rows (restricted to ``pids``)."""
        ...

    # -- schema / statistics ------------------------------------------------------

    def table_counts(self) -> Dict[str, int]:
        """Row counts for every workload table (Table 10 statistics)."""
        ...

    # -- workload shape (replay-driver surface) -----------------------------------

    def workload_shape(self) -> Tuple[List[str], int, int]:
        """``(sorted venues, min year, max year)``; ``([], 0, 0)`` if empty."""
        ...

    def paper_ids(self) -> List[int]:
        """Every pid in the relation, ascending."""
        ...

    def max_paper_id(self) -> int:
        """Largest pid (0 when the relation is empty)."""
        ...

    def max_author_id(self) -> int:
        """Largest aid referenced by an author link (0 when none)."""
        ...

    # -- mutation surface (image capture behind the protocol) ---------------------

    def load_dataset(self, dataset: "DblpDataset") -> Dict[str, int]:
        """Bulk-load a generated dataset; notify; return per-table counts."""
        ...

    def append_papers(self, papers: Sequence["Paper"],
                      paper_authors: Iterable[Tuple[int, int]] = (),
                      citations: Iterable[Tuple[int, int]] = ()) -> Dict[str, int]:
        """Insert (REPLACE semantics), then notify with post- and pre-image."""
        ...

    def delete_papers(self, pids: Iterable[int]) -> Dict[str, int]:
        """Remove papers/links/citations, then notify with the pre-image."""
        ...

    def update_papers(self, papers: Sequence["Paper"]) -> Dict[str, int]:
        """In-place attribute update, then notify with both images."""
        ...

    def load_profiles(self, registry: "ProfileRegistry") -> Dict[str, int]:
        """Append profiles to the staging tables; return rows per table."""
        ...

    def read_profiles(self, uids: Optional[Iterable[int]] = None
                      ) -> "ProfileRegistry":
        """Rebuild profiles from the staging tables, in insertion order."""
        ...

    def profile_rows(self, uid: int) -> Tuple[List[Tuple[str, float]],
                                              List[Tuple[str, str, float]]]:
        """``uid``'s staged rows as plain tuples, in insertion order:
        ``([(predicate, intensity)], [(left, right, intensity)])`` — both
        empty for an unknown user.  Two statements."""
        ...
