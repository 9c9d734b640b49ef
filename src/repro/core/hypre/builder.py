"""HYPRE graph construction (paper Algorithm 1, Sections 4.5 and 6.3).

The builder turns a :class:`~repro.core.preference.UserProfile` (or a whole
registry of them) into nodes and edges of a :class:`HypreGraph`:

* **Step 1** inserts every quantitative preference as a node; duplicate
  predicates for the same user are merged by averaging their intensities.
* **Step 2** inserts every qualitative preference.  For each one the builder
  resolves/creates the two endpoint nodes (Scenarios 1–3 of Section 6.3),
  detects cycles and incompatible intensities, assigns DEFAULT_VALUE seeds
  when both endpoints are new, and (re)computes intensities with
  Equations 4.1/4.2 so that the converted qualitative preference becomes two
  ordered quantitative preferences.

The per-step wall-clock times are recorded so Table 11 and Figure 13 can be
regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..intensity import LEFT, RIGHT, compute_intensity
from ..preference import ProfileRegistry, QualitativePreference, QuantitativePreference, UserProfile
from .conflict import ConflictKind, classify_edge, intensities_consistent
from .defaults import DefaultValueStrategy
from .graph import SOURCE_COMPUTED, SOURCE_DEFAULT, SOURCE_USER, HypreGraph


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
    """Create and incrementally extend a :class:`HypreGraph` from profiles."""

    def __init__(self,
                 hypre: Optional[HypreGraph] = None,
                 default_strategy: str = "avg_pos") -> None:
        self.hypre = hypre if hypre is not None else HypreGraph()
        self.default_strategy = DefaultValueStrategy.by_name(default_strategy)

    # ------------------------------------------------------------------
    # Step 1 — quantitative preferences
    # ------------------------------------------------------------------

    def add_quantitative(self, preference: QuantitativePreference) -> Tuple[int, BuildReport]:
        """Insert one quantitative preference node (merging duplicates)."""
        report = BuildReport()
        return self._add_quantitative(preference, report), report

    def _add_quantitative(self, preference: QuantitativePreference,
                          report: BuildReport) -> int:
        """:meth:`add_quantitative`'s body, counting into ``report``."""
        node_id = self.hypre.find_node_id(preference.uid, preference.predicate)
        if node_id is not None:
            existing = self.hypre.intensity_of(node_id)
            if existing is None:
                self.hypre.set_intensity(node_id, preference.intensity, SOURCE_USER)
            else:
                merged = (existing + preference.intensity) / 2.0
                self.hypre.set_intensity(node_id, merged, SOURCE_USER)
            report.quantitative_merged += 1
            return node_id
        node_id, _ = self.hypre.create_or_return_node(
            preference.uid, preference.predicate, preference.intensity, SOURCE_USER)
        report.quantitative_nodes += 1
        return node_id

    def add_all_quantitative(self, uid: int,
                             preferences: Iterable[QuantitativePreference]) -> BuildReport:
        """Insert all quantitative preferences for ``uid``.

        When the predicates are unique and new to the user, insertion uses
        the fast batched path (paper Step 1); otherwise each preference goes
        through duplicate detection.
        """
        report = BuildReport()
        self._add_all_quantitative(uid, preferences, report)
        return report

    def _add_all_quantitative(self, uid: int,
                              preferences: Iterable[QuantitativePreference],
                              report: BuildReport) -> None:
        """:meth:`add_all_quantitative`'s body, counting into ``report``."""
        preferences = list(preferences)
        start = time.perf_counter()
        sqls = [pref.predicate_sql for pref in preferences]
        unique = len(set(sqls)) == len(sqls)
        no_existing = all(
            self.hypre.find_node_id(uid, sql) is None for sql in sqls)
        if unique and no_existing:
            self.hypre.add_quantitative_batch(
                uid, [(pref.predicate_sql, pref.intensity) for pref in preferences])
            report.quantitative_nodes += len(preferences)
        else:
            for preference in preferences:
                self._add_quantitative(preference, report)
        report.quantitative_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Step 2 — qualitative preferences
    # ------------------------------------------------------------------

    def add_qualitative(self, preference: QualitativePreference,
                        default_value: Optional[float] = None) -> BuildReport:
        """Insert one qualitative preference (Algorithm 1 body).

        ``default_value`` is the per-user DEFAULT_VALUE seed; when omitted it
        is computed from the user's current intensities with the configured
        strategy.
        """
        report = BuildReport()
        self._add_qualitative(preference, default_value, report)
        return report

    def _add_qualitative(self, preference: QualitativePreference,
                         default_value: Optional[float],
                         report: BuildReport) -> None:
        """:meth:`add_qualitative`'s body, counting into ``report``."""
        start = time.perf_counter()
        preference = preference.normalised()
        uid = preference.uid
        hypre = self.hypre

        left_id, left_created = hypre.create_or_return_node(uid, preference.left)
        right_id, right_created = hypre.create_or_return_node(uid, preference.right)
        report.nodes_created_by_qualitative += int(left_created) + int(right_created)

        if left_id == right_id:
            # A preference of a predicate over itself is a degenerate cycle.
            hypre.add_cycle_edge(left_id, right_id, preference.intensity)
            report.cycle_edges += 1
            report.qualitative_seconds += time.perf_counter() - start
            return

        verdict = classify_edge(hypre, left_id, right_id)
        if verdict.kind is ConflictKind.CYCLE:
            hypre.add_cycle_edge(left_id, right_id, preference.intensity)
            report.cycle_edges += 1
        elif verdict.kind is ConflictKind.INCOMPATIBLE:
            hypre.add_discard_edge(left_id, right_id, preference.intensity)
            report.discarded_edges += 1
        else:
            hypre.add_prefers_edge(left_id, right_id, preference.intensity)
            report.qualitative_edges += 1
            self._assign_intensities(uid, left_id, right_id, preference.intensity,
                                     default_value, report)

        report.qualitative_seconds += time.perf_counter() - start

    def _assign_intensities(self, uid: int, left_id: int, right_id: int,
                            edge_intensity: float,
                            default_value: Optional[float],
                            report: BuildReport) -> None:
        """Fill in / repair node intensities after inserting a PREFERS edge."""
        hypre = self.hypre
        left_intensity = hypre.intensity_of(left_id)
        right_intensity = hypre.intensity_of(right_id)

        if left_intensity is None and right_intensity is None:
            # Scenario 3: two brand-new nodes; seed the right node and derive
            # the left one so the edge direction holds by construction.
            seed = default_value if default_value is not None else self.user_default(uid)
            hypre.set_intensity(right_id, seed, SOURCE_DEFAULT)
            report.defaults_assigned += 1
            derived = compute_intensity(LEFT, edge_intensity, seed)
            hypre.set_intensity(left_id, derived, SOURCE_COMPUTED)
            report.intensities_computed += 1
            return

        if left_intensity is None:
            derived = compute_intensity(LEFT, edge_intensity, right_intensity)
            hypre.set_intensity(left_id, derived, SOURCE_COMPUTED)
            report.intensities_computed += 1
            return

        if right_intensity is None:
            derived = compute_intensity(RIGHT, edge_intensity, left_intensity)
            hypre.set_intensity(right_id, derived, SOURCE_COMPUTED)
            report.intensities_computed += 1
            return

        if intensities_consistent(left_intensity, right_intensity):
            return

        # Incompatible values but repairable: recompute the endpoint whose
        # only PREFERS connection is the edge just inserted (Figures 14/15),
        # so no other edge's ordering constraint can be violated.  classify_edge
        # guarantees one of the two endpoints satisfies that condition.
        if hypre.prefers_degree(right_id) <= 1:
            derived = compute_intensity(RIGHT, edge_intensity, left_intensity)
            hypre.set_intensity(right_id, derived, SOURCE_COMPUTED)
        else:
            derived = compute_intensity(LEFT, edge_intensity, right_intensity)
            hypre.set_intensity(left_id, derived, SOURCE_COMPUTED)
        report.intensities_recomputed += 1

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
        one :class:`BuildReport`."""
        report = BuildReport()
        self._add_all_quantitative(profile.uid, profile.quantitative, report)
        default_value = self.user_default(profile.uid)
        for preference in profile.qualitative:
            self._add_qualitative(preference, default_value, report)
        return report

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
