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

A build can leave a :class:`BuildOutline`: what Algorithm 1 needs to insert
more quantitative rows into the same user's build without the graph (see
:meth:`BuildOutline.extend`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ...exceptions import ReproError

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

#: :meth:`BuildOutline.extend`'s outcome labels (the second element of its
#: return pair): the extended outline, or why only a full build is exact.
EXTENDED = "extended"
#: A new row is qualitative: Step 2 would run again.
EXTEND_QUALITATIVE = "qualitative"
#: The outlined build seeded a DEFAULT_VALUE, which reads every node.
EXTEND_SEEDED = "seeded"
#: A new row does not parse or its intensity is out of its domain: the
#: full build raises the error.
EXTEND_INVALID = "invalid"
#: A new row's predicate is a node some qualitative row touches.
EXTEND_ENDPOINT = "endpoint"
#: Every :meth:`BuildOutline.extend` fallback, in the order it checks them.
EXTENSION_FALLBACKS = (EXTEND_QUALITATIVE, EXTEND_SEEDED, EXTEND_INVALID,
                       EXTEND_ENDPOINT)


def merged_intensity(current: Optional[float], intensity: float) -> float:
    """Step 1's rule for one row on its node: the row's (already validated)
    ``intensity`` for a node with none yet, else the average of the node's
    ``current`` intensity and the row's."""
    if current is None:
        return intensity
    return validate_quantitative((current + intensity) / 2.0)


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
            report.quantitative_merged += 1
        node.intensity = merged_intensity(node.intensity, intensity)
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


class BuildOutline:
    """What one user's build leaves to take more quantitative rows without
    its graph: not a graph, and no preference object.

    * ``endpoints`` — the rendered texts of the nodes some qualitative row
      touches (an edge of any type ends on each);
    * ``finals`` — ``(−intensity, text, tree)`` of each endpoint whose final
      intensity is positive (the only endpoints that rank), sorted: the
      algorithms' order;
    * ``step1`` — every other node's text -> ``(tree, intensity)`` as Step 1
      left it, non-positive ones included: a later row may average one up;
    * ``seeded`` — whether Step 2 seeded a DEFAULT_VALUE.

    Built by :meth:`of` after :meth:`HypreGraphBuilder.build_rows`, and by
    :meth:`extend` from another outline.
    """

    __slots__ = ("endpoints", "finals", "step1", "seeded")

    def __init__(self, endpoints: FrozenSet[str],
                 finals: Tuple[Tuple[float, str, PredicateExpr], ...],
                 step1: Dict[str, Tuple[PredicateExpr, float]],
                 seeded: bool) -> None:
        self.endpoints = endpoints
        self.finals = finals
        self.step1 = step1
        self.seeded = seeded

    @classmethod
    def of(cls, hypre: HypreGraph, uid: int,
           report: BuildReport) -> "BuildOutline":
        """The outline of ``uid``'s build in ``hypre``; ``report`` is that
        build's (it says whether Step 2 seeded a default)."""
        nodes = hypre._nodes
        ids = hypre._uid_index.get(uid, ())
        touched = {end for node_id in ids for edge in nodes[node_id].out_edges
                   for end in (edge.source, edge.target)}
        finals: List[Tuple[float, str, PredicateExpr]] = []
        step1: Dict[str, Tuple[PredicateExpr, float]] = {}
        for node_id in ids:
            node = nodes[node_id]
            if node_id not in touched:
                step1[node.predicate] = (node.expr, node.intensity)
            elif node.intensity is not None and node.intensity > 0.0:
                finals.append((-node.intensity, node.predicate, node.expr))
        finals.sort()
        return cls(frozenset([nodes[node_id].predicate for node_id in touched]),
                   tuple(finals), step1, report.defaults_assigned > 0)

    def preferences(self) -> List[Tuple[PredicateExpr, float]]:
        """The positive ``(tree, intensity)`` pairs in the algorithms' order
        (:func:`~repro.index.pair_index.preference_sort_key`: descending
        intensity, ties by text) — what
        :meth:`~repro.core.hypre.graph.HypreGraph.scored_predicates` reads
        off the built graph."""
        ranked = [(-intensity, text, expr)
                  for text, (expr, intensity) in self.step1.items()
                  if intensity > 0.0]
        ranked.extend(self.finals)
        ranked.sort()
        return [(expr, -negated) for negated, _, expr in ranked]

    def extend(self, quantitative: Iterable[Tuple[PredicateLike, float]],
               qualitative: Sequence[Tuple[PredicateLike, PredicateLike, float]]
               ) -> Tuple[Optional["BuildOutline"], str]:
        """The outline of the build over the outlined rows followed by these
        staged rows (the shapes :meth:`HypreGraphBuilder.build_rows`
        takes), without building it.

        Each row is a new node or merges into a node outside ``endpoints``
        by Step 1's rule (:func:`merged_intensity`).  That is the whole
        build, exactly, because Step 2 reads only endpoint nodes — their
        intensities, ``PREFERS`` degrees and edges — and the DEFAULT_VALUE
        only for a row whose two endpoints have no intensity yet: it meets
        the endpoints in the state the outlined build met them, so a build
        that seeded no default seeds none, and a node outside the endpoints
        keeps the intensity Step 1 gives it.

        Returns ``(outline, EXTENDED)``, or ``(None, reason)`` when only a
        full build is exact, checked in :data:`EXTENSION_FALLBACKS` order:
        a qualitative row, a seeded build, a row that does not parse or
        whose intensity is out of its domain (the full build raises), a row
        on an endpoint.
        """
        if qualitative:
            return None, EXTEND_QUALITATIVE
        if self.seeded:
            return None, EXTEND_SEEDED
        endpoints, step1 = self.endpoints, dict(self.step1)
        on_endpoint = False
        try:
            for predicate, intensity in quantitative:
                expr = ensure_predicate(predicate)
                intensity = validate_quantitative(intensity)
                text = expr.to_sql()
                if text in endpoints:
                    on_endpoint = True
                    continue
                held = step1.get(text)
                step1[text] = (expr, intensity) if held is None else \
                    (held[0], merged_intensity(held[1], intensity))
        except (ReproError, TypeError, ValueError):
            return None, EXTEND_INVALID
        if on_endpoint:
            return None, EXTEND_ENDPOINT
        return BuildOutline(endpoints, self.finals, step1, False), EXTENDED


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
