"""Conflict detection for qualitative preference insertion.

The paper distinguishes two conflict families (Section 6.2.3):

* **Conflicting behaviour** — the new edge would close a directed cycle in
  the PREFERS subgraph (``A`` preferred over ``B`` and ``B`` preferred over
  ``A``).  Such edges are inserted but labelled ``CYCLE`` and never traversed.
* **Incompatible intensities** — the edge ``left -> right`` implies
  ``intensity(left) >= intensity(right)`` but both nodes already carry
  user-provided values violating that.  When one endpoint is attached to the
  graph only through the new edge its value can be recomputed (Figures 14/15);
  otherwise the edge is labelled ``DISCARD``.

:func:`check_conflict` is the reproduction of Algorithm 7, generalised with
provenance awareness: a missing or system-computed intensity never blocks the
insertion because the builder is free to (re)compute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .graph import HypreGraph


class ConflictKind(Enum):
    """Classification of the outcome of a conflict check."""

    NONE = "none"
    CYCLE = "cycle"
    INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class ConflictReport:
    """Outcome of checking one candidate qualitative edge."""

    kind: ConflictKind
    left_intensity: Optional[float] = None
    right_intensity: Optional[float] = None

    @property
    def is_conflict(self) -> bool:
        """``True`` when the edge cannot be inserted as a plain PREFERS edge."""
        return self.kind is not ConflictKind.NONE


def check_conflict(left_intensity: Optional[float],
                   right_intensity: Optional[float],
                   left_user_provided: bool,
                   right_user_provided: bool) -> bool:
    """Algorithm 7 — ``True`` when the intensities are irreconcilable.

    The edge direction requires ``left >= right``.  A conflict exists only
    when both values are present, both were provided by the user (so the
    system must not silently overwrite them) and the ordering is violated.
    """
    if left_intensity is None or right_intensity is None:
        return False
    if not (left_user_provided and right_user_provided):
        return False
    return left_intensity < right_intensity


def classify_edge(hypre: HypreGraph, left_id: int, right_id: int) -> ConflictReport:
    """Classify the candidate edge ``left -> right`` against the current graph.

    Section 4.4 semantics: a cycle is always a conflict; incompatible
    intensities (``left < right`` with both values present) are a conflict
    *unless* one of the two endpoints is attached to the PREFERS subgraph only
    through the new edge, in which case its value can be recomputed without
    propagating the conflict (Figures 14/15).
    """
    left_intensity = hypre.intensity_of(left_id)
    right_intensity = hypre.intensity_of(right_id)
    return ConflictReport(edge_conflict(hypre, left_id, right_id),
                          left_intensity, right_intensity)


def edge_conflict(hypre: HypreGraph, left_id: int, right_id: int) -> ConflictKind:
    """:func:`classify_edge`'s verdict alone, for two existing node ids (the
    builder asks once per qualitative row).

    A ``PREFERS`` path ``right -> left`` needs a ``PREFERS`` edge out of
    ``right`` and one into ``left``, so it is searched for only when both
    endpoints have some; the same degrees decide whether incompatible
    intensities can be repaired.
    """
    if left_id == right_id:
        return ConflictKind.CYCLE
    nodes = hypre._nodes
    left, right = nodes[left_id], nodes[right_id]
    if not (left.prefers_degree and right.prefers_degree):
        return ConflictKind.NONE
    if hypre._reaches(right_id, left_id):
        return ConflictKind.CYCLE
    if not intensities_consistent(left.intensity, right.intensity):
        return ConflictKind.INCOMPATIBLE
    return ConflictKind.NONE


def intensities_consistent(left_intensity: Optional[float],
                           right_intensity: Optional[float]) -> bool:
    """``True`` when the pair already satisfies ``left >= right`` (or is incomplete)."""
    if left_intensity is None or right_intensity is None:
        return True
    return left_intensity >= right_intensity
