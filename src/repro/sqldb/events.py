"""Data-update events emitted by the relational substrate.

The serving layer (:mod:`repro.serving`) keeps materialised Top-K answers and
persistent predicate counts alive across requests, so it must learn about the
changes the preference graph can never signal: **the workload relation
itself mutating**.  :class:`~repro.sqldb.database.Database` therefore
notifies its subscribers with a :class:`DataMutation` whenever the loader's
mutation API inserts (:func:`~repro.workload.loader.append_papers`), deletes
(:func:`~repro.workload.loader.delete_papers`) or updates in place
(:func:`~repro.workload.loader.update_papers`) workload tuples.

The rows carried by the event are *joined-view* dictionaries — one per
``dblp JOIN dblp_author`` result row (the FROM clause every
preference-enhanced query runs over).  ``rows`` is the **post-image** (what
the change added or left behind), ``old_rows`` the **pre-image** (what it
removed or overwrote).  That makes the selective-invalidation check exact
across the whole update spectrum: a cached count or Top-K answer is stale
**iff** one of its predicates can match one of the event's
:meth:`~DataMutation.invalidation_rows` — pre-image for deletes, post-image
for inserts, either image for updates — which
:func:`repro.index.selectivity.may_match_row` decides without touching the
database.  This mirrors the incremental view-maintenance framing of
Berkholz/Keppeler/Schweikardt ("Answering FO+MOD queries under updates"):
the update is the delta, the syntactic match is the relevance test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Tuple

#: Rows were appended to the workload relation.
TUPLES_INSERTED = "tuples_inserted"

#: Rows were removed from the workload relation.
TUPLES_DELETED = "tuples_deleted"

#: Existing rows' attribute values were changed in place.
TUPLES_UPDATED = "tuples_updated"

#: All data-event kinds, the full update spectrum.
DATA_MUTATION_KINDS = (TUPLES_INSERTED, TUPLES_DELETED, TUPLES_UPDATED)


@dataclass(frozen=True)
class DataMutation:
    """One observable change to the workload relation.

    ``rows`` and ``old_rows`` are joined-view tuple dictionaries (``pid``,
    ``title``, ``venue``, ``year``, ``abstract``, ``aid``) — the unit every
    enhanced query's FROM clause produces, so predicate evaluation over them
    answers "can this change affect that cached result?" exactly:

    * ``TUPLES_INSERTED`` — ``rows`` holds the new joined rows; ``old_rows``
      holds the pre-image of any tuple an ``INSERT OR REPLACE`` overwrote.
    * ``TUPLES_DELETED`` — ``old_rows`` holds the pre-image of the removed
      joined rows; ``rows`` is empty (nothing remains).
    * ``TUPLES_UPDATED`` — ``old_rows`` holds the pre-image, ``rows`` the
      post-image of the changed tuples.

    ``pids`` lists the affected paper ids for cheap logging/metrics.
    """

    kind: str
    table: str
    rows: Tuple[Mapping[str, Any], ...] = field(default_factory=tuple)
    old_rows: Tuple[Mapping[str, Any], ...] = field(default_factory=tuple)
    pids: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "old_rows", tuple(self.old_rows))
        object.__setattr__(self, "pids", tuple(self.pids))

    def invalidation_rows(self) -> Tuple[Mapping[str, Any], ...]:
        """Every row a sound invalidation check must consider (pre ∪ post).

        A cached entry may only be spared when none of its predicates can
        match *any* of these rows: a delete can remove a tuple from a result
        (pre-image), an insert can add one (post-image) and an in-place
        update can do both at once.

        The union is memoised on the (frozen) event: every listener
        subscribed to the database is handed the same event — each server
        on a shared connection, a result cache listening on its own — and
        each asks for these rows, so the tuple is built once per event.
        """
        cached = getattr(self, "_invalidation_rows", None)
        if cached is None:
            cached = self.rows + self.old_rows
            object.__setattr__(self, "_invalidation_rows", cached)
        return cached

    def __len__(self) -> int:
        return len(self.rows) + len(self.old_rows)


def deliver(listeners: Iterable[Callable[[DataMutation], None]],
            mutation: DataMutation) -> None:
    """Call every listener with ``mutation``, then re-raise the first error.

    The write behind ``mutation`` has already committed, so a listener that
    raises must not keep the ones behind it from hearing about it: a cache
    that missed the event would serve answers the write made stale.
    """
    first: Optional[BaseException] = None
    for listener in tuple(listeners):
        try:
            listener(mutation)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            if first is None:
                first = exc
    if first is not None:
        raise first
