"""HYPRE graph construction (paper Algorithm 1, Sections 4.5 and 6.3).

The builder turns one user's staged preference rows — or a
:class:`~repro.core.preference.UserProfile`, or a whole registry of them —
into nodes and edges of a :class:`HypreGraph`:

* **Step 1** inserts every quantitative preference as a node; duplicate
  predicates for the same user are merged by averaging their intensities.
* **Step 2** inserts every qualitative preference.  For each one the builder
  resolves/creates the two endpoint nodes (Scenarios 1–3 of Section 6.3),
  detects cycles and incompatible intensities, assigns DEFAULT_VALUE seeds
  when both endpoints are new, and (re)computes intensities with
  Equations 4.1/4.2 so that the converted qualitative preference becomes two
  ordered quantitative preferences.

Both steps run in :meth:`HypreGraphBuilder.build_rows`, one row at a time;
the serving cold read hands it the staged rows as plain tuples.  The
per-step wall-clock times are recorded so Table 11 and Figure 13 can be
regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..intensity import (
    intensity_left,
    intensity_right,
    validate_qualitative,
    validate_quantitative,
)
from ..predicate import PredicateExpr, ensure_predicate
from ..preference import ProfileRegistry, QualitativePreference, QuantitativePreference, UserProfile
from .conflict import ConflictKind, edge_conflict
from .defaults import DefaultValueStrategy
from .graph import (
    CYCLE,
    DISCARD,
    PREFERS,
    SOURCE_COMPUTED,
    SOURCE_DEFAULT,
    SOURCE_USER,
    HypreGraph,
)

#: A staged predicate: its SQL text or its parsed tree.
PredicateLike = Union[str, PredicateExpr]


@dataclass
class BuildReport:
    """Counters and timings collected while building the graph."""

    quantitative_nodes: int = 0
    quantitative_merged: int = 0
    qualitative_edges: int = 0
    cycle_edges: int = 0
    discarded_edges: int = 0
    nodes_created_by_qualitative: int = 0
    intensities_computed: int = 0
    intensities_recomputed: int = 0
    defaults_assigned: int = 0
    quantitative_seconds: float = 0.0
    qualitative_seconds: float = 0.0

    def merge(self, other: "BuildReport") -> "BuildReport":
        """Accumulate another report into this one (returns ``self``)."""
        for name in (
            "quantitative_nodes", "quantitative_merged", "qualitative_edges",
            "cycle_edges", "discarded_edges", "nodes_created_by_qualitative",
            "intensities_computed", "intensities_recomputed", "defaults_assigned",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.quantitative_seconds += other.quantitative_seconds
        self.qualitative_seconds += other.qualitative_seconds
        return self

    def as_dict(self) -> Dict[str, float]:
        """Return the report as a plain dictionary (for reporting/benchmarks)."""
        return {
            "quantitative_nodes": self.quantitative_nodes,
            "quantitative_merged": self.quantitative_merged,
            "qualitative_edges": self.qualitative_edges,
            "cycle_edges": self.cycle_edges,
            "discarded_edges": self.discarded_edges,
            "nodes_created_by_qualitative": self.nodes_created_by_qualitative,
            "intensities_computed": self.intensities_computed,
            "intensities_recomputed": self.intensities_recomputed,
            "defaults_assigned": self.defaults_assigned,
            "quantitative_seconds": self.quantitative_seconds,
            "qualitative_seconds": self.qualitative_seconds,
        }


class HypreGraphBuilder:
    """Create and incrementally extend a :class:`HypreGraph` from profiles.

    Algorithm 1 has one body, :meth:`build_rows`, over staged rows (SQL
    text or parsed trees); :meth:`build_profile`, :meth:`add_quantitative`,
    :meth:`add_all_quantitative` and :meth:`add_qualitative` are adapters
    onto its two per-row helpers.
    """

    def __init__(self,
                 hypre: Optional[HypreGraph] = None,
                 default_strategy: str = "avg_pos") -> None:
        self.hypre = hypre if hypre is not None else HypreGraph()
        self.default_strategy = DefaultValueStrategy.by_name(default_strategy)

    # ------------------------------------------------------------------
    # Algorithm 1 over staged rows
    # ------------------------------------------------------------------

    def build_rows(self, uid: int,
                   quantitative: Iterable[Tuple[PredicateLike, float]],
                   qualitative: Sequence[Tuple[PredicateLike, PredicateLike, float]]
                   ) -> BuildReport:
        """Insert one user's staged rows — Step 1 then Step 2 — into one
        :class:`BuildReport`.

        ``quantitative`` rows are ``(predicate, intensity)``, ``qualitative``
        rows ``(left, right, intensity)`` with a raw (possibly negative)
        strength, each in staging order.  A predicate is SQL text, parsed
        once here (:class:`~repro.exceptions.PredicateParseError` on a bad
        one), or an already parsed tree.  Every intensity is validated in
        its domain.
        """
        report = BuildReport()
        start = time.perf_counter()
        for predicate, intensity in quantitative:
            self._quantitative_row(uid, ensure_predicate(predicate), intensity,
                                   report)
        middle = time.perf_counter()
        report.quantitative_seconds += middle - start
        if qualitative:
            default_value = self.user_default(uid)
            for left, right, intensity in qualitative:
                self._qualitative_row(uid, ensure_predicate(left),
                                      ensure_predicate(right), intensity,
                                      default_value, report)
            report.qualitative_seconds += time.perf_counter() - middle
        return report

    def _quantitative_row(self, uid: int, expr: PredicateExpr,
                          intensity: float, report: BuildReport) -> int:
        """Step 1 for one row: a new node, or a duplicate merged by
        averaging (a node Step 2 created without a score takes the row's)."""
        intensity = validate_quantitative(intensity)
        hypre = self.hypre
        node_id, created = hypre._node_for(uid, expr)
        node = hypre._nodes[node_id]
        if created:
            report.quantitative_nodes += 1
        else:
            if node.intensity is not None:
                intensity = validate_quantitative((node.intensity + intensity) / 2.0)
            report.quantitative_merged += 1
        node.intensity = intensity
        node.source = SOURCE_USER
        return node_id

    def _qualitative_row(self, uid: int, left: PredicateExpr,
                         right: PredicateExpr, intensity: float,
                         default_value: Optional[float],
                         report: BuildReport) -> None:
        """Step 2 for one row (Scenarios 1–3 of Section 6.3).

        A negative strength means the right side is preferred: the sides
        swap and the absolute value is the edge's (Proposition 7).  A self
        preference or an edge closing a ``PREFERS`` cycle is kept typed
        ``CYCLE``; incompatible intensities on two endpoints that both have
        other ``PREFERS`` edges make it ``DISCARD`` (§6.2.3).  Otherwise the
        ``PREFERS`` edge goes in and the endpoint intensities are filled in
        or repaired.
        """
        intensity = float(intensity)
        if intensity < 0.0:
            left, right, intensity = right, left, -intensity
        validate_qualitative(intensity)
        hypre = self.hypre
        left_id, left_created = hypre._node_for(uid, left)
        right_id, right_created = hypre._node_for(uid, right)
        report.nodes_created_by_qualitative += left_created + right_created
        conflict = edge_conflict(hypre, left_id, right_id)
        if conflict is ConflictKind.CYCLE:
            hypre._add_edge(left_id, right_id, CYCLE, intensity)
            report.cycle_edges += 1
            return
        if conflict is ConflictKind.INCOMPATIBLE:
            hypre._add_edge(left_id, right_id, DISCARD, intensity)
            report.discarded_edges += 1
            return
        left_node, right_node = hypre._nodes[left_id], hypre._nodes[right_id]
        left_value, right_value = left_node.intensity, right_node.intensity
        hypre._add_edge(left_id, right_id, PREFERS, intensity)
        report.qualitative_edges += 1
        if left_value is None and right_value is None:
            # Scenario 3: two brand-new nodes; seed the right node and derive
            # the left one so the edge direction holds by construction.
            seed = validate_quantitative(
                default_value if default_value is not None else self.user_default(uid))
            right_node.intensity, right_node.source = seed, SOURCE_DEFAULT
            report.defaults_assigned += 1
            left_node.intensity = validate_quantitative(intensity_left(intensity, seed))
            left_node.source = SOURCE_COMPUTED
            report.intensities_computed += 1
        elif left_value is None:
            left_node.intensity = validate_quantitative(
                intensity_left(intensity, right_value))
            left_node.source = SOURCE_COMPUTED
            report.intensities_computed += 1
        elif right_value is None:
            right_node.intensity = validate_quantitative(
                intensity_right(intensity, left_value))
            right_node.source = SOURCE_COMPUTED
            report.intensities_computed += 1
        elif left_value < right_value:
            # Incompatible values but repairable: recompute the endpoint
            # whose only PREFERS connection is the edge just inserted
            # (Figures 14/15), so no other edge's ordering constraint can be
            # violated; edge_conflict guarantees one endpoint is.
            if right_node.prefers_degree <= 1:
                right_node.intensity = validate_quantitative(
                    intensity_right(intensity, left_value))
                right_node.source = SOURCE_COMPUTED
            else:
                left_node.intensity = validate_quantitative(
                    intensity_left(intensity, right_value))
                left_node.source = SOURCE_COMPUTED
            report.intensities_recomputed += 1

    # ------------------------------------------------------------------
    # Adapters: one preference (or one step) at a time
    # ------------------------------------------------------------------

    def add_quantitative(self, preference: QuantitativePreference) -> Tuple[int, BuildReport]:
        """Insert one quantitative preference node (merging duplicates)."""
        report = BuildReport()
        node_id = self._quantitative_row(preference.uid, preference.predicate,
                                         preference.intensity, report)
        return node_id, report

    def add_all_quantitative(self, uid: int,
                             preferences: Iterable[QuantitativePreference]) -> BuildReport:
        """Insert all quantitative preferences for ``uid`` (Step 1 alone)."""
        return self.build_rows(
            uid, [(pref.predicate, pref.intensity) for pref in preferences], ())

    def add_qualitative(self, preference: QualitativePreference,
                        default_value: Optional[float] = None) -> BuildReport:
        """Insert one qualitative preference (Algorithm 1 body).

        ``default_value`` is the per-user DEFAULT_VALUE seed; when omitted it
        is computed from the user's current intensities with the configured
        strategy.
        """
        report = BuildReport()
        start = time.perf_counter()
        self._qualitative_row(preference.uid, preference.left, preference.right,
                              preference.intensity, default_value, report)
        report.qualitative_seconds += time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # Profile-level entry points
    # ------------------------------------------------------------------

    def user_default(self, uid: int) -> float:
        """DEFAULT_VALUE seed for ``uid`` from the user's current intensities."""
        intensities = [value for _, value in
                       self.hypre.quantitative_preferences(uid, include_negative=True)]
        return self.default_strategy(intensities)

    def build_profile(self, profile: UserProfile) -> BuildReport:
        """Insert all preferences of ``profile`` (Step 1 then Step 2), into
        one :class:`BuildReport` — :meth:`build_rows` over its parsed rows."""
        return self.build_rows(
            profile.uid,
            [(pref.predicate, pref.intensity) for pref in profile.quantitative],
            [(pref.left, pref.right, pref.intensity) for pref in profile.qualitative])

    def build_registry(self, registry: ProfileRegistry) -> BuildReport:
        """Insert every profile of ``registry`` into the shared graph."""
        total = BuildReport()
        for profile in registry:
            total.merge(self.build_profile(profile))
        return total


def build_hypre_graph(profile_or_registry,
                      default_strategy: str = "avg_pos") -> Tuple[HypreGraph, BuildReport]:
    """Convenience wrapper: build a fresh graph from a profile or a registry."""
    builder = HypreGraphBuilder(default_strategy=default_strategy)
    if isinstance(profile_or_registry, UserProfile):
        report = builder.build_profile(profile_or_registry)
    elif isinstance(profile_or_registry, ProfileRegistry):
        report = builder.build_registry(profile_or_registry)
    else:
        raise TypeError(
            "expected a UserProfile or ProfileRegistry, "
            f"got {type(profile_or_registry).__name__}")
    return builder.hypre, report
