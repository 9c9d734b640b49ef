"""Preference-aware query enhancement (paper Section 4.6).

Given a base query and a list of ``(predicate, intensity)`` preferences the
enhancer rewrites the query with a *mixed clause*: predicates on the same
attribute are OR-combined (otherwise the query could never return anything —
a paper cannot be published in two venues), predicates on different attributes
are AND-combined (to stay selective).  The combined intensity follows the
same structure: :func:`~repro.core.intensity.f_or` inside a group,
:func:`~repro.core.intensity.f_and` across groups.

:func:`rank_tuples` additionally reproduces the per-tuple combined-intensity
ranking of Section 4.6.1 (Table 9): every tuple's score is the inflationary
combination of the intensities of all the preferences it matches.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.intensity import combine_and, combine_or, f_and
from ..core.predicate import PredicateExpr, conjunction, disjunction, ensure_predicate
from ..exceptions import EmptyPreferenceListError
from .database import Database
from .query_builder import SelectQuery, matching_paper_ids
from .schema import BASE_FROM

#: A preference as consumed by the enhancer: predicate plus intensity.
ScoredPredicate = Tuple[Union[str, PredicateExpr], float]


@dataclass(frozen=True)
class EnhancedQuery:
    """Result of enhancing a base query with a preference combination.

    ``sql`` binds the predicate's literals as ``?`` placeholders; run it
    with ``parameters`` (``db.query(enhanced.sql, enhanced.parameters)``).
    """

    sql: str
    parameters: Tuple[Any, ...]
    predicate: PredicateExpr
    combined_intensity: float
    preference_count: int

    def __str__(self) -> str:
        return self.sql


def _normalise(preferences: Iterable[ScoredPredicate]) -> List[Tuple[PredicateExpr, float]]:
    normalised = [(ensure_predicate(pred), float(intensity))
                  for pred, intensity in preferences]
    if not normalised:
        raise EmptyPreferenceListError("no preferences supplied")
    return normalised


def group_by_attribute(
        preferences: Iterable[ScoredPredicate]) -> Dict[FrozenSet[str], List[Tuple[PredicateExpr, float]]]:
    """Group preferences by the (frozen) set of attributes they reference."""
    groups: Dict[FrozenSet[str], List[Tuple[PredicateExpr, float]]] = defaultdict(list)
    for predicate, intensity in _normalise(preferences):
        groups[predicate.attributes()].append((predicate, intensity))
    return dict(groups)


def mixed_clause(preferences: Iterable[ScoredPredicate]) -> Tuple[PredicateExpr, float]:
    """Build the AND_OR (mixed) clause and its combined intensity.

    Same-attribute preferences are OR-ed (reserved combination, ordered by
    descending intensity); the resulting groups are AND-ed (inflationary
    combination).  Returns ``(predicate expression, combined intensity)``.
    """
    groups = group_by_attribute(preferences)
    group_predicates: List[PredicateExpr] = []
    group_intensities: List[float] = []
    for _, members in sorted(groups.items(), key=lambda item: sorted(item[0])):
        members = sorted(members, key=lambda pair: -pair[1])
        group_predicates.append(disjunction([pred for pred, _ in members]))
        group_intensities.append(combine_or([intensity for _, intensity in members]))
    predicate = conjunction(group_predicates)
    return predicate, combine_and(group_intensities)


def conjunctive_clause(preferences: Iterable[ScoredPredicate]) -> Tuple[PredicateExpr, float]:
    """AND-combine every preference (inflationary intensity)."""
    normalised = _normalise(preferences)
    predicate = conjunction([pred for pred, _ in normalised])
    return predicate, combine_and([intensity for _, intensity in normalised])


def disjunctive_clause(preferences: Iterable[ScoredPredicate]) -> Tuple[PredicateExpr, float]:
    """OR-combine every preference (reserved intensity, descending order)."""
    normalised = sorted(_normalise(preferences), key=lambda pair: -pair[1])
    predicate = disjunction([pred for pred, _ in normalised])
    return predicate, combine_or([intensity for _, intensity in normalised])


def enhance_query(preferences: Iterable[ScoredPredicate],
                  columns: Sequence[str] = ("*",),
                  from_clause: str = BASE_FROM,
                  semantics: str = "mixed",
                  limit: Optional[int] = None) -> EnhancedQuery:
    """Rewrite the base SELECT with the given preferences.

    ``semantics`` selects how predicates are combined: ``"mixed"`` (AND_OR,
    the default used by the system), ``"and"`` or ``"or"``.
    """
    normalised = _normalise(preferences)
    if semantics == "mixed":
        predicate, intensity = mixed_clause(normalised)
    elif semantics == "and":
        predicate, intensity = conjunctive_clause(normalised)
    elif semantics == "or":
        predicate, intensity = disjunctive_clause(normalised)
    else:
        raise ValueError(f"unknown semantics {semantics!r}; use mixed, and, or")
    query = SelectQuery(columns=columns, from_clause=from_clause).where(predicate)
    if limit is not None:
        query.limit(limit)
    sql, parameters = query.statement()
    return EnhancedQuery(
        sql=sql,
        parameters=parameters,
        predicate=predicate,
        combined_intensity=intensity,
        preference_count=len(normalised),
    )


def rank_tuples(db: Database,
                preferences: Iterable[ScoredPredicate],
                top_k: Optional[int] = None,
                include_negative: bool = False) -> List[Tuple[int, float]]:
    """Rank papers by the combined intensity of the preferences they match.

    Every preference is evaluated independently (one enhanced query per
    predicate); a paper matching several preferences receives the
    inflationary combination of their intensities (Section 4.6.1, Table 9).
    Negative preferences are excluded by default, matching the system's
    behaviour of never adding them as soft constraints.

    Returns ``(pid, combined intensity)`` pairs sorted by descending
    intensity (ties broken by pid), truncated to ``top_k`` when given.
    """
    normalised = _normalise(preferences)
    scores: Dict[int, float] = {}
    for predicate, intensity in normalised:
        if intensity <= 0.0 and not include_negative:
            continue
        for pid in matching_paper_ids(db, predicate):
            if pid in scores:
                scores[pid] = f_and(scores[pid], intensity)
            else:
                scores[pid] = intensity
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    if top_k is not None:
        ranked = ranked[:top_k]
    return ranked


def covered_paper_ids(db: Database,
                      preferences: Iterable[ScoredPredicate]) -> List[int]:
    """Distinct paper ids matched by *any* of the preferences (coverage input)."""
    covered: set[int] = set()
    for predicate, _ in _normalise(preferences):
        covered.update(matching_paper_ids(db, predicate))
    return sorted(covered)
