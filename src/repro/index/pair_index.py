"""The pairwise combination index: full-rebuild and incremental variants.

PEPS (paper Section 5.5) relies on a pre-computed index of all AND-compatible
preference *pairs* — their combined intensity and tuple count — and the paper
keeps that index "refreshed whenever the preference graph changes".  This
module provides both maintenance strategies:

* :class:`PairwiseCombinationIndex` rebuilds the whole table for a fixed
  preference list.  Counts go through one *batched* request
  (:meth:`CountCache.count_many`-style) instead of one query per pair, and a
  pre-filter (syntactic incompatibility, or a side the cache already
  :func:`~repro.index.selectivity.known_empty`) records provably-empty pairs
  without touching the database at all.
* :class:`IncrementalPairIndex` additionally *subscribes* to
  :class:`~repro.core.hypre.graph.HypreGraph` mutation events.  Pair counts
  are keyed by predicate SQL — they depend only on the predicates and the
  relation, never on intensities or list positions — so when a node is
  inserted only the pairs involving the new predicate need counting, and
  when an intensity is merged or recomputed no count is re-issued at all.
  The dirty set tracks exactly the affected predicates between refreshes.

Both variants expose the same read interface, so every consumer
(:class:`~repro.algorithms.peps.PEPSAlgorithm`, the figure reproductions,
the benchmarks) works with either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.hypre.events import (
    INTENSITY_CHANGED,
    NODE_INSERTED,
    NODES_MERGED,
    GraphMutation,
)
from ..core.intensity import combine_and
from ..core.predicate import (
    PredicateExpr,
    are_and_compatible,
    conjunction,
    ensure_predicate,
)
from .count_cache import CountCache
from .selectivity import RowMatch, known_empty


def _backing_cache(counter) -> Optional[CountCache]:
    """The :class:`CountCache` behind ``counter`` (itself, or its attribute).

    ``counter`` is the only storage coupling the pair indexes have: every
    count flows through it into whichever
    :class:`~repro.backend.protocol.StorageBackend` the cache/runner wraps,
    so the indexes are backend-agnostic by construction.
    """
    if isinstance(counter, CountCache):
        return counter
    return getattr(counter, "count_cache", None)


@dataclass(frozen=True)
class PairCombination:
    """One entry of the pre-computed list of combinations of two predicates."""

    first: int
    second: int
    intensity: float
    tuple_count: int

    @property
    def is_applicable(self) -> bool:
        return self.tuple_count > 0


@dataclass(frozen=True)
class IndexedPreference:
    """A scored preference as the index stores it (duck-compatible with
    :class:`~repro.algorithms.base.ScoredPreference`)."""

    predicate: PredicateExpr
    intensity: float

    @cached_property
    def sql(self) -> str:
        """SQL rendering of the predicate — the key of every count table.

        Rendered once per preference object: the ordering sort asks first,
        and the O(n²) pair loops of a refresh reuse that string.
        """
        return self.predicate.to_sql()

    @property
    def attributes(self) -> FrozenSet[str]:
        return self.predicate.attributes()


PreferenceLoader = Callable[[], Sequence[IndexedPreference]]
PairKey = FrozenSet[str]


def preference_sort_key(preference) -> Tuple[float, str]:
    """THE canonical preference ordering key: descending intensity, SQL tie-break.

    PEPS's positional lookups are correct only because the algorithms layer
    (:func:`repro.algorithms.base.ordered_by_intensity`) and the pair index
    sort with the *same* key — both import this function, so the invariant
    lives in exactly one place.
    """
    return (-preference.intensity, preference.sql)


def _ordered(preferences: Sequence[IndexedPreference]) -> List[IndexedPreference]:
    return sorted(preferences, key=preference_sort_key)


class PairIndexBase:
    """Shared read interface over a positional pair table.

    Besides the table itself two positional views are kept, both derived
    from it by :meth:`_set_pairs`: the applicable pairs grouped by their
    lower index (already in serving order) and, per index, the bitmask of
    its applicable partners.  PEPS's expansion reads only these, so ordering
    the combinations never scans the O(n²) table.
    """

    def __init__(self) -> None:
        self.preferences: List[IndexedPreference] = []
        self._set_pairs({})

    def _set_pairs(self, pairs: Dict[Tuple[int, int], PairCombination]) -> None:
        """Install a freshly built table and derive the positional views."""
        size = len(self.preferences)
        grouped: List[List[PairCombination]] = [[] for _ in range(size)]
        partners = [0] * size
        for (i, j), pair in pairs.items():
            if pair.tuple_count > 0:
                grouped[i].append(pair)
                partners[i] |= 1 << j
                partners[j] |= 1 << i
        for group in grouped:
            # Stable: equal intensities stay in table (ascending partner) order.
            group.sort(key=lambda pair: -pair.intensity)
        self._pairs = pairs
        self._pairs_from = grouped
        self._partners = partners

    def pair(self, i: int, j: int) -> PairCombination:
        """Return the stored pair record for indexes ``i`` and ``j``."""
        key = (i, j) if i < j else (j, i)
        return self._pairs[key]

    def is_applicable(self, i: int, j: int) -> bool:
        """``True`` when the AND of preferences ``i`` and ``j`` returns tuples."""
        return i == j or bool(self._partners[i] >> j & 1)

    def applicable_partners(self, i: int) -> int:
        """Bitmask of ``i``'s applicable partners: bit ``j`` is set exactly
        when the AND of preferences ``i`` and ``j`` returns tuples."""
        return self._partners[i]

    def applicable_pairs_from(self, i: int) -> List[PairCombination]:
        """All applicable pairs whose lower index is ``i``, best intensity first."""
        return list(self._pairs_from[i]) if i < len(self._pairs_from) else []

    def all_applicable(self) -> List[PairCombination]:
        """Every applicable pair, best intensity first."""
        pairs = [pair for pair in self._pairs.values() if pair.is_applicable]
        return sorted(pairs, key=lambda pair: -pair.intensity)

    def __len__(self) -> int:
        return len(self._pairs)


class PairwiseCombinationIndex(PairIndexBase):
    """Full-rebuild pairwise index (batched counts + emptiness pre-filter).

    ``counter`` is any object offering ``count(predicate) -> int`` and,
    optionally, ``count_many(predicates) -> List[int]`` — both
    :class:`~repro.algorithms.base.PreferenceQueryRunner` and
    :class:`~repro.index.count_cache.CountCache` qualify.
    """

    def __init__(self, counter, preferences: Sequence[IndexedPreference]) -> None:
        super().__init__()
        self.counter = counter
        self.preferences = list(preferences)
        #: Pairs whose emptiness the pre-filter proved without a query.
        self.pairs_prefiltered = 0
        #: Pair predicates actually submitted for counting.
        self.pairs_counted = 0
        self._build()

    def _build(self) -> None:
        pairs: Dict[Tuple[int, int], PairCombination] = {}
        pending: List[Tuple[int, int, float]] = []
        predicates: List[PredicateExpr] = []
        cache = _backing_cache(self.counter)
        empty = [known_empty(cache, pref.predicate) for pref in self.preferences]
        for i, first in enumerate(self.preferences):
            for j in range(i + 1, len(self.preferences)):
                second = self.preferences[j]
                if not are_and_compatible(first.predicate, second.predicate):
                    self.pairs_prefiltered += 1
                    pairs[(i, j)] = PairCombination(i, j, 0.0, 0)
                    continue
                intensity = combine_and([first.intensity, second.intensity])
                if empty[i] or empty[j]:
                    # Compatible but a side is already known to match zero
                    # tuples: the conjunction is empty, no query needed.
                    self.pairs_prefiltered += 1
                    pairs[(i, j)] = PairCombination(i, j, intensity, 0)
                    continue
                pending.append((i, j, intensity))
                predicates.append(conjunction([first.predicate, second.predicate]))
        counts = _count_many(self.counter, predicates)
        self.pairs_counted += len(predicates)
        for (i, j, intensity), count in zip(pending, counts):
            pairs[(i, j)] = PairCombination(i, j, intensity, count)
        self._set_pairs(pairs)


def _count_many(counter, predicates: Sequence[PredicateExpr]) -> List[int]:
    """Batch-count through ``counter``, falling back to per-predicate calls."""
    if not predicates:
        return []
    count_many = getattr(counter, "count_many", None)
    if count_many is not None:
        return list(count_many(predicates))
    return [counter.count(predicate) for predicate in predicates]


class IncrementalPairIndex(PairIndexBase):
    """Pairwise index maintained incrementally under graph mutations.

    The index keeps a *persistent* count table keyed by the unordered pair of
    predicate SQL texts.  Positions, orderings and intensities are derived
    views rebuilt cheaply (no queries) on :meth:`refresh`; only pairs whose
    count is genuinely unknown — i.e. pairs involving a newly inserted
    predicate — are counted, in one batched round-trip.

    Invalidation contract (asserted by the test suite):

    * **node insert** dirties exactly the pairs joining the new predicate
      with every existing preference;
    * **duplicate merge / intensity recompute** dirties the predicate for
      intensity purposes but never re-issues a count — counts do not depend
      on intensities;
    * **edge insert** by itself dirties nothing (any intensity consequence
      arrives as its own ``INTENSITY_CHANGED`` event).

    Reads (``pair`` / ``is_applicable`` / ...) always serve the *last
    refreshed snapshot*, never a half-applied one: consumers such as
    :class:`~repro.algorithms.peps.PEPSAlgorithm` capture ``preferences``
    positionally, so the positional view must not shift underneath them
    mid-run.  Pending mutations are folded in only by an explicit
    :meth:`refresh` — which the wiring points
    (:meth:`attach`, ``PEPSAlgorithm.for_graph_user``,
    ``ExperimentContext.pair_index``) perform before handing the index out.
    """

    def __init__(self, counter,
                 preferences: Optional[Sequence[IndexedPreference]] = None) -> None:
        super().__init__()
        self.counter = counter
        self._counts: Dict[PairKey, int] = {}
        self._loader: Optional[PreferenceLoader] = None
        self._hypre = None
        self._uid: Optional[int] = None
        self._listener = None
        self._dirty: Set[str] = set()
        self._stale = True
        #: Statistics: cumulative pair predicates counted / pre-filtered,
        #: number of refreshes, and the count volume of the last refresh.
        self.pairs_counted = 0
        self.pairs_prefiltered = 0
        self.refreshes = 0
        self.last_refresh_pair_counts = 0
        if preferences is not None:
            self.preferences = _ordered(preferences)
            self.refresh()

    # -- graph subscription -------------------------------------------------------

    def attach(self, hypre, uid: int,
               loader: Optional[PreferenceLoader] = None) -> "IncrementalPairIndex":
        """Subscribe to ``hypre`` mutations for ``uid`` and do a first refresh.

        ``loader`` overrides how the preference list is pulled from the graph
        (default: every positive-intensity quantitative preference of
        ``uid``, ordered descending by intensity).
        """
        self.detach()
        self._hypre = hypre
        self._uid = uid
        self._loader = loader or self._default_loader
        self._listener = hypre.subscribe(self._on_mutation)
        self._stale = True
        self.refresh()
        return self

    def detach(self) -> None:
        """Unsubscribe from the graph (safe to call when not attached)."""
        if self._hypre is not None and self._listener is not None:
            self._hypre.unsubscribe(self._listener)
        self._hypre = None
        self._listener = None

    def _default_loader(self) -> List[IndexedPreference]:
        pairs = self._hypre.quantitative_preferences(self._uid,
                                                     include_negative=False)
        return [IndexedPreference(ensure_predicate(sql), float(intensity))
                for sql, intensity in pairs]

    def _on_mutation(self, mutation: GraphMutation) -> None:
        if self._uid is not None and mutation.uid != self._uid:
            return
        if mutation.kind in (NODE_INSERTED, NODES_MERGED, INTENSITY_CHANGED):
            self._dirty.add(mutation.predicate)
            self._stale = True
        # EDGE_INSERTED alone changes neither counts nor intensities; the
        # builder's follow-up set_intensity calls arrive as INTENSITY_CHANGED.

    # -- dirty-set inspection -----------------------------------------------------

    @property
    def stale(self) -> bool:
        """``True`` when mutations arrived since the last refresh."""
        return self._stale

    @property
    def hypre(self):
        """The graph this index is attached to (``None`` when detached)."""
        return self._hypre

    @property
    def uid(self) -> Optional[int]:
        """The user whose profile this index tracks (``None`` when detached)."""
        return self._uid

    def dirty_predicates(self) -> FrozenSet[str]:
        """Predicate SQL keys touched by mutations since the last refresh."""
        return frozenset(self._dirty)

    def dirty_pairs(self) -> Set[PairKey]:
        """The exact pair keys the pending refresh will have to revisit."""
        current = {pref.sql for pref in self.preferences}
        universe = current | self._dirty
        pairs: Set[PairKey] = set()
        for dirty in self._dirty:
            for sql in universe:
                if sql != dirty:
                    pairs.add(frozenset((dirty, sql)))
        return pairs

    # -- relation-update invalidation ---------------------------------------------

    def invalidate_counts(self) -> None:
        """Drop every persistent pair count and mark the index stale.

        Graph mutations never require this — pair counts depend only on
        predicates and data — but a change to the *relation* itself does.
        Pair with :meth:`CountCache.clear` on the shared cache.
        """
        self._counts.clear()
        self._stale = True

    def invalidate_matching(self, match: RowMatch) -> int:
        """Drop pair counts whose conjunction may match a mutation row.

        The per-session half of a data-mutation sweep (see
        :meth:`CountCache.invalidate_matching`): a pair count is stale only
        if **all** its predicates can be satisfied by the same mutation row
        (pre ∪ post image) — i.e. their masks in the sweep's shared
        :class:`~repro.index.selectivity.RowMatch` intersect.  A one-member
        key (both preferences render the same SQL) is its own mask; a
        mutation that carries no rows visits no pair.  Returns the number of
        pairs dropped and marks the index stale so the next refresh
        re-counts them.
        """
        if not match.rows:
            return 0
        stale_keys = []
        for key in self._counts:
            shared = -1
            for sql in key:
                shared &= match.mask(sql)
            if shared:
                stale_keys.append(key)
        for key in stale_keys:
            del self._counts[key]
        if stale_keys:
            self._stale = True
        return len(stale_keys)

    # -- maintenance ---------------------------------------------------------------

    def refresh(self) -> "IncrementalPairIndex":
        """Bring the positional pair table up to date with the graph.

        Counts are issued only for pairs whose key is missing from the
        persistent count table (batched into one round-trip); everything
        else — ordering, intensities, applicability — is recomputed from
        memory.
        """
        if not self._stale:
            return self
        if self._loader is not None:
            self.preferences = _ordered(self._loader())
        self._rebuild_rows(self._recount_missing_pairs())
        self._dirty.clear()
        self._stale = False
        self.refreshes += 1
        return self

    def _recount_missing_pairs(self) -> Dict[PairKey, bool]:
        """Count every pair missing from the persistent table, in one batch.

        Returns the AND-compatibility verdict of each pair it had to look
        at, so :meth:`_rebuild_rows` decides no pair a second time.
        """
        preferences = self.preferences
        keys = [pref.sql for pref in preferences]
        cache = _backing_cache(self.counter)
        empty = [known_empty(cache, pref.predicate) for pref in preferences]
        compatible: Dict[PairKey, bool] = {}
        pending_keys: List[PairKey] = []
        predicates: List[PredicateExpr] = []
        for i, first in enumerate(preferences):
            for j in range(i + 1, len(preferences)):
                key = frozenset((keys[i], keys[j]))
                if key in self._counts or key in compatible:
                    continue
                second = preferences[j]
                verdict = compatible[key] = are_and_compatible(
                    first.predicate, second.predicate)
                if not verdict or empty[i] or empty[j]:
                    self.pairs_prefiltered += 1
                    self._counts[key] = 0
                    continue
                pending_keys.append(key)
                predicates.append(conjunction([first.predicate, second.predicate]))
        counts = _count_many(self.counter, predicates)
        self.pairs_counted += len(predicates)
        self.last_refresh_pair_counts = len(predicates)
        for key, count in zip(pending_keys, counts):
            self._counts[key] = count
        return compatible

    def _rebuild_rows(self, compatible: Dict[PairKey, bool]) -> None:
        preferences = self.preferences
        keys = [pref.sql for pref in preferences]
        pairs: Dict[Tuple[int, int], PairCombination] = {}
        for i, first in enumerate(preferences):
            for j in range(i + 1, len(preferences)):
                second = preferences[j]
                key = frozenset((keys[i], keys[j]))
                verdict = compatible.get(key)
                if verdict is None:
                    verdict = are_and_compatible(first.predicate, second.predicate)
                intensity = (combine_and([first.intensity, second.intensity])
                             if verdict else 0.0)
                pairs[(i, j)] = PairCombination(i, j, intensity, self._counts[key])
        self._set_pairs(pairs)
