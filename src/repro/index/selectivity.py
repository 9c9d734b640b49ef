"""Cheap selectivity estimation and provable-emptiness pre-filtering.

Before the pair index pays for a database count it asks two much cheaper
questions about a candidate AND pair:

1. **Is the pair provably empty?**  Two equality/IN conditions on the same
   attribute with disjoint constants (``venue='SIGMOD' AND venue='VLDB'``)
   can never be satisfied together, and a predicate already known to match
   zero tuples annihilates any conjunction it joins.  Both facts are *sound*:
   when :meth:`SelectivityEstimator.pair_estimate` returns exactly ``0.0``
   the combination is empty and no query is needed.
2. **How selective is it likely to be?**  A heuristic per-operator estimate
   (equality ≈ 0.1, IN ≈ 0.02 per constant, range ≈ 0.5 — the classic
   textbook constants) multiplied over the conjunction.  The estimate is
   advisory: it orders work and feeds statistics, it never skips a count on
   its own.

The split matters: only the provable-zero path may suppress database work,
because the incremental index must produce results identical to a full
rebuild.

Nothing in this module touches a storage engine: the estimator consults at
most an in-memory :class:`~repro.index.count_cache.CountCache`, and
:func:`may_match_row` evaluates predicates over event-carried rows — which
is why the same sound relevance test serves every
:class:`~repro.backend.protocol.StorageBackend` unchanged.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from ..core.predicate import (
    And,
    Condition,
    Or,
    PredicateExpr,
    are_and_compatible,
    attribute_names_match,
    ensure_predicate,
)

#: Heuristic selectivity of one equality condition.
EQUALITY_SELECTIVITY = 0.1
#: Heuristic selectivity contributed per constant of an IN condition.
IN_PER_VALUE_SELECTIVITY = 0.02
#: Cap on the selectivity of an IN condition regardless of list length.
IN_MAX_SELECTIVITY = 0.2
#: Heuristic selectivity of one range/inequality condition.
RANGE_SELECTIVITY = 0.5


def estimate_condition(condition: Condition) -> float:
    """Heuristic selectivity of a single comparison in ``(0, 1]``."""
    if condition.op == "=":
        return EQUALITY_SELECTIVITY
    if condition.op == "IN":
        return min(IN_MAX_SELECTIVITY,
                   max(IN_PER_VALUE_SELECTIVITY,
                       IN_PER_VALUE_SELECTIVITY * len(condition.value)))
    if condition.op in ("<", ">", "<=", ">="):
        return RANGE_SELECTIVITY
    # "!=" filters almost nothing.
    return 1.0 - EQUALITY_SELECTIVITY


def estimate_selectivity(predicate: PredicateExpr) -> float:
    """Heuristic selectivity of an arbitrary predicate expression.

    Conjunctions multiply their children's estimates, disjunctions add them
    (capped at 1.0) — the standard independence assumptions.  The result is
    clamped to stay strictly positive: a heuristic may never claim certainty,
    that is :func:`pair_provably_empty`'s job.
    """
    predicate = ensure_predicate(predicate)
    if isinstance(predicate, Condition):
        estimate = estimate_condition(predicate)
    elif isinstance(predicate, And):
        estimate = 1.0
        for child in predicate.children:
            estimate *= estimate_selectivity(child)
    elif isinstance(predicate, Or):
        estimate = min(1.0, sum(estimate_selectivity(child)
                                for child in predicate.children))
    else:  # pragma: no cover - no other node types exist
        estimate = 1.0
    return min(1.0, max(1e-9, estimate))


def pair_provably_empty(first: PredicateExpr, second: PredicateExpr) -> bool:
    """``True`` when ``first AND second`` is unsatisfiable by syntax alone."""
    return not are_and_compatible(first, second)


def _row_has_attribute(row: Mapping[str, Any], attribute: str) -> bool:
    """Whether ``row`` carries a value for ``attribute`` (qualified or bare)."""
    if attribute in row:
        return True
    if "." in attribute and attribute.split(".", 1)[1] in row:
        # Qualified predicate attribute, bare-keyed row — the hot case.
        return True
    return any(attribute_names_match(attribute, key) for key in row)


def exact_match_row(predicate: Union[str, PredicateExpr],
                    row: Mapping[str, Any]) -> Optional[bool]:
    """Three-valued membership test: does the tuple ``row`` satisfy ``predicate``?

    Returns ``True``/``False`` — an **exact** in-memory verdict — when the
    row carries every attribute the predicate references, and ``None`` when
    some referenced attribute is absent, i.e. the question cannot be decided
    from the row alone.  The repair path of the result cache distinguishes
    the two: a ``None`` forces fallback to invalidation (the delta cannot be
    scored exactly), whereas :func:`may_match_row` folds it into a
    conservative ``True`` because invalidation only needs soundness.
    """
    predicate = ensure_predicate(predicate)
    if not all(_row_has_attribute(row, attribute)
               for attribute in predicate.attributes()):
        return None
    return predicate.evaluate(row)


def may_match_row(predicate: Union[str, PredicateExpr],
                  row: Mapping[str, Any]) -> bool:
    """Sound check: can the tuple ``row`` satisfy ``predicate``?

    This is the relevance test data-update invalidation runs for every newly
    inserted joined-view row: a cached count or materialised Top-K answer can
    only change if one of its predicates *may* match the new tuple.  The
    check is exact when the row carries every attribute the predicate
    references (plain in-memory evaluation) and falls back to ``True`` —
    conservative, never unsound — when some referenced attribute is absent
    from the row, so a ``False`` always proves the tuple irrelevant.
    """
    verdict = exact_match_row(predicate, row)
    return True if verdict is None else verdict


class SelectivityEstimator:
    """Pair-level estimates, optionally sharpened by known exact counts.

    When constructed with a :class:`~repro.index.count_cache.CountCache` the
    estimator also consults *already cached* exact counts: a sub-predicate
    with a known count of zero proves the pair empty, and known counts rescale
    the heuristic toward reality.  The estimator never issues queries itself.
    """

    def __init__(self, count_cache: Optional[object] = None) -> None:
        self.count_cache = count_cache

    def known_empty(self, predicate: PredicateExpr) -> bool:
        """``True`` when the cache already holds a zero count for ``predicate``.

        One peek, no query: the pair indexes ask this once per *preference*
        and reuse the answer for every pair the preference joins.
        """
        return (self.count_cache is not None
                and self.count_cache.peek(predicate) == 0)

    def estimate(self, predicate: PredicateExpr) -> float:
        """Selectivity estimate for one predicate (cached count wins)."""
        if self.known_empty(predicate):
            return 0.0
        return estimate_selectivity(predicate)

    def pair_estimate(self, first: PredicateExpr, second: PredicateExpr) -> float:
        """Estimated selectivity of ``first AND second``.

        Exactly ``0.0`` if and only if the pair is *provably* empty — via
        syntactic incompatibility or a cached zero count of either side.
        """
        if pair_provably_empty(first, second):
            return 0.0
        first_estimate = self.estimate(first)
        second_estimate = self.estimate(second)
        if first_estimate == 0.0 or second_estimate == 0.0:
            return 0.0
        return max(1e-9, first_estimate * second_estimate)

    def proves_empty(self, first: PredicateExpr, second: PredicateExpr) -> bool:
        """Sound emptiness check: safe to record a zero count without a query."""
        return self.pair_estimate(first, second) == 0.0

    def may_match_row(self, predicate: Union[str, PredicateExpr],
                      row: Mapping[str, Any]) -> bool:
        """Sound tuple-relevance check (see module-level :func:`may_match_row`)."""
        return may_match_row(predicate, row)
