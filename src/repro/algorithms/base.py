"""Shared building blocks for the preference-combination algorithms.

All algorithms in Chapter 5 consume the same input — a list of preferences for
one user, ordered descending by intensity — and produce records of the form
``<number of predicates, number of tuples returned, combined intensity>``.
This module defines those records (:class:`ScoredPreference`,
:class:`CombinationRecord`), the memoising query runner that executes
preference-enhanced queries against the relational substrate, and the glue
that extracts an algorithm-ready preference list from a HYPRE graph.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.hypre import HypreGraph
from ..core.intensity import combine_and, combine_or
from ..core.metrics import utility as utility_metric
from ..core.predicate import (
    PredicateExpr,
    are_and_compatible,
    conjunction,
    disjunction,
    ensure_predicate,
)
from ..backend.protocol import StorageBackend
from ..exceptions import EmptyPreferenceListError
from ..index.count_cache import CountCache
from ..index.pair_index import preference_sort_key
from ..index.selectivity import ConjunctIndex, RowMatch


@dataclass(frozen=True)
class ScoredPreference:
    """One preference as consumed by the combination algorithms."""

    predicate: PredicateExpr
    intensity: float

    @property
    def attributes(self) -> FrozenSet[str]:
        """Attributes referenced by the predicate."""
        return self.predicate.attributes()

    @property
    def sql(self) -> str:
        """SQL rendering of the predicate (the tree renders it once and
        keeps it)."""
        return self.predicate.to_sql()

    def __repr__(self) -> str:
        return f"ScoredPreference({self.sql!r}, {self.intensity:.4f})"


@dataclass(frozen=True)
class CombinationRecord:
    """One row of the output list ``L`` produced by every algorithm.

    ``size`` is the number of predicates combined, ``tuple_count`` the number
    of distinct tuples the enhanced query returned and ``intensity`` the
    combined intensity value.  ``predicate`` keeps the actual combination so
    callers can re-run or inspect it.
    """

    size: int
    tuple_count: int
    intensity: float
    predicate: PredicateExpr
    label: str = ""

    @property
    def is_applicable(self) -> bool:
        """Definition 15 — the combination returns at least one tuple."""
        return self.tuple_count > 0

    def utility(self, tuple_cap: Optional[int] = 25) -> float:
        """Utility metric (Eq. 5.2) of this combination."""
        return utility_metric(self.tuple_count, self.size, self.intensity, tuple_cap)

    def as_tuple(self) -> Tuple[int, int, float]:
        """The paper's ``<#predicates, #tuples, combined intensity>`` triple."""
        return (self.size, self.tuple_count, self.intensity)


def make_preferences(pairs: Iterable[Tuple[Union[str, PredicateExpr], float]],
                     positive_only: bool = True,
                     ordered: bool = True) -> List[ScoredPreference]:
    """Build a :class:`ScoredPreference` list from ``(predicate, intensity)`` pairs.

    Negative and zero-intensity preferences are dropped by default because the
    algorithms only ever add positive preferences as soft constraints; the
    list is returned ordered descending by intensity.
    """
    preferences = [ScoredPreference(ensure_predicate(pred), float(intensity))
                   for pred, intensity in pairs]
    if positive_only:
        preferences = [pref for pref in preferences if pref.intensity > 0.0]
    if ordered:
        preferences.sort(key=preference_sort_key)
    return preferences


def preferences_from_graph(hypre: HypreGraph, uid: int,
                           positive_only: bool = True) -> List[ScoredPreference]:
    """Extract the ordered preference list for ``uid`` from a HYPRE graph.

    Every node with an intensity (user provided, computed or defaulted) is a
    quantitative preference the algorithms can use — this is exactly the
    coverage increase the unified model provides.  The nodes' parsed trees
    are used as they are: nothing is parsed or rendered again.
    """
    return [ScoredPreference(predicate, intensity) for predicate, intensity
            in hypre.scored_predicates(uid, include_negative=not positive_only)]


class PreferenceQueryRunner:
    """Executes preference-enhanced count/id queries with memoisation.

    The combination algorithms issue the same sub-combination queries over and
    over (every applicability check is a count query).  Counts are delegated
    to the runner's own :class:`~repro.index.count_cache.CountCache`; share
    one count store between PEPS, Combine-Two, Partially-Combine-All, the TA
    baseline and the pair indexes by sharing the runner.  Id lists are
    memoised beside it.

    ``db`` is any :class:`~repro.backend.protocol.StorageBackend`; the
    runner only consumes the protocol's count/id query surface, so the
    algorithms never know which engine answers them.
    """

    def __init__(self, db: StorageBackend) -> None:
        self.db = db
        self.count_cache = CountCache(db)
        self._ids_cache: Dict[FrozenSet[str], Tuple[int, ...]] = {}
        #: Every memoised key; a server's result cache adds its own.
        self.conjunct_index = ConjunctIndex()
        self.queries_executed = 0
        #: Stale id lists :meth:`invalidate_matching` patched / dropped;
        #: cumulative — :meth:`clear` keeps them, a server exports them.
        self.id_lists_patched = 0
        self.id_lists_dropped = 0

    def count(self, predicate: PredicateExpr) -> int:
        """Number of distinct papers matching ``predicate`` (cached)."""
        misses_before = self.count_cache.misses
        value = self.count_cache.count(predicate)
        self.queries_executed += self.count_cache.misses - misses_before
        return value

    def count_many(self, predicates: Sequence[PredicateExpr]) -> List[int]:
        """Counts for many predicates at once, batching every cache miss.

        Misses are resolved with one compound statement per cache chunk —
        this is what keeps a pair-index build at O(1) round-trips instead of
        O(n²).
        """
        misses_before = self.count_cache.misses
        values = self.count_cache.count_many(predicates)
        self.queries_executed += self.count_cache.misses - misses_before
        return values

    def ids(self, predicate: PredicateExpr) -> Tuple[int, ...]:
        """Distinct paper ids matching ``predicate`` (cached)."""
        key = CountCache.key(predicate)
        ids = self._ids_cache.get(key)
        if ids is None:
            ids = self._ids_cache[key] = tuple(
                self.db.matching_paper_ids(predicate))
            self.conjunct_index.add(key)
            self.queries_executed += 1
        return ids

    def memoised(self, key: FrozenSet[str]) -> Optional[Tuple[int, ...]]:
        """The memoised id list under conjunct key ``key``, or ``None``
        when none is held; never fetches."""
        return self._ids_cache.get(key)

    def is_applicable(self, predicate: PredicateExpr) -> bool:
        """Definition 15 — the enhanced query returns at least one tuple."""
        return self.count(predicate) > 0

    def invalidate_matching(self, match: RowMatch) -> Dict[str, int]:
        """Bring the id lists and counts up to date after a data mutation.

        A list is keyed by its conjuncts (:meth:`CountCache.key`) and is
        stale iff ``match.shared(key)`` is non-zero: some mutation row (pre
        ∪ post image) may match every conjunct.  Only the stale keys
        :attr:`conjunct_index` names (``stale(match)``, memoised on
        ``match`` for every store sharing the index) are visited.  Counts
        are the count cache's own (:meth:`CountCache.invalidate_matching`).

        A stale list is *patched* from ``match``'s pid images
        (:attr:`~repro.index.selectivity.RowMatch.images`): every pid a
        mutation row carries leaves it, and re-enters when one of its
        post-image rows surely matches every conjunct (``match.exact``) —
        exact under the producer obligation ``images`` states.  A list is
        dropped only when a post row may match it but cannot be decided.
        Lists stay pid-ordered, and one is copied only when some pid's
        membership flips.  Returns this store's share of the sweep's impact,
        ``index_entries_patched`` and ``index_entries_dropped``, which
        :attr:`id_lists_patched` and :attr:`id_lists_dropped` accumulate.
        """
        self.count_cache.invalidate_matching(match)
        stale = [key for key in self.conjunct_index.stale(match)
                 if key in self._ids_cache]
        dropped: Set[FrozenSet[str]] = set()
        for key in stale:
            post = match.shared(key) & match.post_rows
            surely = match.exact(key) & post
            if post != surely:
                dropped.add(key)
                continue
            ids = self._ids_cache[key]
            patched: Optional[List[int]] = None
            for pid, image in match.images:
                current = ids if patched is None else patched
                at = bisect_left(current, pid)
                member = bool(image & surely)
                if (at < len(current) and current[at] == pid) == member:
                    continue
                if patched is None:
                    patched = list(ids)
                if member:
                    patched.insert(at, pid)
                else:
                    del patched[at]
            if patched is not None:
                self._ids_cache[key] = tuple(patched)
        for key in dropped:
            del self._ids_cache[key]
            self.conjunct_index.remove(key)
        self.id_lists_patched += len(stale) - len(dropped)
        self.id_lists_dropped += len(dropped)
        return {"index_entries_patched": len(stale) - len(dropped),
                "index_entries_dropped": len(dropped)}

    def clear(self) -> None:
        """Drop both memos, counts and id lists (used between benchmark
        reps).  The patch/drop counters are cumulative and stay."""
        self.count_cache.clear()
        for key in self._ids_cache:
            self.conjunct_index.remove(key)
        self._ids_cache.clear()
        self.queries_executed = 0


# ---------------------------------------------------------------------------
# Combination helpers shared by the algorithms
# ---------------------------------------------------------------------------


def and_combine(preferences: Sequence[ScoredPreference]) -> Tuple[PredicateExpr, float]:
    """AND-combine preferences; intensity via the inflationary fold (Eq. 4.3)."""
    if not preferences:
        raise EmptyPreferenceListError("cannot combine an empty preference list")
    predicate = conjunction([pref.predicate for pref in preferences])
    intensity = combine_and([pref.intensity for pref in preferences])
    return predicate, intensity


def or_combine(preferences: Sequence[ScoredPreference]) -> Tuple[PredicateExpr, float]:
    """OR-combine preferences; intensity via the reserved fold (Eq. 4.4)."""
    if not preferences:
        raise EmptyPreferenceListError("cannot combine an empty preference list")
    ordered = sorted(preferences, key=lambda pref: -pref.intensity)
    predicate = disjunction([pref.predicate for pref in ordered])
    intensity = combine_or([pref.intensity for pref in ordered])
    return predicate, intensity


def mixed_combine(preferences: Sequence[ScoredPreference]) -> Tuple[PredicateExpr, float]:
    """AND_OR (mixed-clause) combination: OR inside an attribute, AND across.

    This mirrors :func:`repro.sqldb.enhancer.mixed_clause` but operates on
    :class:`ScoredPreference` groups, which is what the algorithms track.
    """
    if not preferences:
        raise EmptyPreferenceListError("cannot combine an empty preference list")
    groups: Dict[FrozenSet[str], List[ScoredPreference]] = {}
    for pref in preferences:
        groups.setdefault(pref.attributes, []).append(pref)
    group_predicates: List[PredicateExpr] = []
    group_intensities: List[float] = []
    for _, members in sorted(groups.items(), key=lambda item: sorted(item[0])):
        predicate, intensity = or_combine(members)
        group_predicates.append(predicate)
        group_intensities.append(intensity)
    return conjunction(group_predicates), combine_and(group_intensities)


def pairwise_compatible(first: ScoredPreference, second: ScoredPreference) -> bool:
    """Syntactic AND-compatibility of two preferences (paper's venue example)."""
    return are_and_compatible(first.predicate, second.predicate)


def ordered_by_intensity(preferences: Iterable[ScoredPreference]) -> List[ScoredPreference]:
    """Return preferences sorted descending by intensity (stable on SQL text).

    Uses the same :func:`~repro.index.pair_index.preference_sort_key` as the
    pair indexes — PEPS's positional lookups rely on the two orders agreeing.
    """
    return sorted(preferences, key=preference_sort_key)
