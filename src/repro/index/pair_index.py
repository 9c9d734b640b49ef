"""The pairwise combination index.

PEPS (paper Section 5.5) relies on a pre-computed index of all AND-compatible
preference *pairs* — their combined intensity and tuple count.
:class:`IncrementalPairIndex` is that table for one fixed preference list:

* Counts go through one *batched* request
  (:meth:`CountCache.count_many`-style) instead of one query per pair, and a
  pre-filter (syntactic incompatibility, or a side the cache already
  :func:`~repro.index.selectivity.known_empty`) records provably-empty pairs
  without touching the database at all.
* It is incremental under **data mutations**: pair counts are kept by
  predicate SQL, :meth:`~IncrementalPairIndex.invalidate_matching` drops only
  the pairs a mutation's rows may have changed, and the next
  :meth:`~IncrementalPairIndex.refresh` re-counts exactly those.

The preference list never changes.  A profile update is *persist, drop,
rebuild*: the serving layer drops the user's session and the next read builds
a new index over the rebuilt graph's list — through the shared
:class:`CountCache`, so only pairs the cache has not seen are counted again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.intensity import combine_and
from ..core.predicate import PredicateExpr, are_and_compatible, conjunction
from .count_cache import CountCache
from .selectivity import RowMatch, known_empty


def _backing_cache(counter) -> Optional[CountCache]:
    """The :class:`CountCache` behind ``counter`` (itself, or its attribute).

    ``counter`` is the only storage coupling the pair index has: every
    count flows through it into whichever
    :class:`~repro.backend.protocol.StorageBackend` the cache/runner wraps,
    so the index is backend-agnostic by construction.
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


PairKey = FrozenSet[str]


def preference_sort_key(preference) -> Tuple[float, str]:
    """THE canonical preference ordering key: descending intensity, SQL tie-break.

    PEPS's positional lookups are correct only because the algorithms layer
    (:func:`repro.algorithms.base.ordered_by_intensity`) and the pair index
    sort with the *same* key — both import this function, so the invariant
    lives in exactly one place.
    """
    return (-preference.intensity, preference.sql)


def _count_many(counter, predicates: Sequence[PredicateExpr]) -> List[int]:
    """Batch-count through ``counter``, falling back to per-predicate calls."""
    if not predicates:
        return []
    count_many = getattr(counter, "count_many", None)
    if count_many is not None:
        return list(count_many(predicates))
    return [counter.count(predicate) for predicate in predicates]


class IncrementalPairIndex:
    """The pair table of one fixed preference list, incremental under data
    mutations.

    ``counter`` is any object offering ``count(predicate) -> int`` and,
    optionally, ``count_many(predicates) -> List[int]`` — both
    :class:`~repro.algorithms.base.PreferenceQueryRunner` and
    :class:`~repro.index.count_cache.CountCache` qualify.  ``preferences``
    (anything with ``predicate`` / ``intensity`` / ``sql``, e.g.
    :class:`~repro.algorithms.base.ScoredPreference`) are held in the
    canonical :func:`preference_sort_key` order.

    The index keeps a *persistent* count table keyed by the unordered pair of
    predicate SQL texts.  The positional table is a derived view rebuilt (no
    queries) on :meth:`refresh`; only pairs whose count is missing — every
    pair at construction, afterwards the ones :meth:`invalidate_matching` or
    :meth:`invalidate_counts` dropped — are counted, in one batched
    round-trip.

    Besides the table itself two positional views are kept, both derived
    from it by :meth:`_set_pairs`: the applicable pairs grouped by their
    lower index (already in serving order) and, per index, the bitmask of
    its applicable partners.  PEPS's expansion reads only these, so ordering
    the combinations never scans the O(n²) table.

    Reads (``pair`` / ``is_applicable`` / ...) always serve the *last
    refreshed snapshot*: an invalidation only marks the index :attr:`stale`,
    and the dropped counts are folded back in by an explicit :meth:`refresh`.
    """

    def __init__(self, counter, preferences: Sequence) -> None:
        self.counter = counter
        self.preferences = sorted(preferences, key=preference_sort_key)
        self._counts: Dict[PairKey, int] = {}
        self._stale = True
        #: Statistics: cumulative pair predicates counted / pre-filtered,
        #: number of refreshes, and the count volume of the last refresh.
        self.pairs_counted = 0
        self.pairs_prefiltered = 0
        self.refreshes = 0
        self.last_refresh_pair_counts = 0
        self.refresh()

    # -- reads -------------------------------------------------------------------

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

    @property
    def stale(self) -> bool:
        """``True`` when counts were dropped since the last refresh."""
        return self._stale

    # -- relation-update invalidation ---------------------------------------------

    def invalidate_counts(self) -> None:
        """Drop every persistent pair count and mark the index stale.

        For a change to the relation that arrived without a
        :class:`~repro.sqldb.events.DataMutation` to judge it by.  Pair with
        :meth:`CountCache.clear` on the shared cache.
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
        """Bring the positional pair table up to date with the relation.

        Counts are issued only for pairs whose key is missing from the
        persistent count table (batched into one round-trip); everything
        else — ordering, intensities, applicability — is recomputed from
        memory.
        """
        if not self._stale:
            return self
        self._rebuild_rows(self._recount_missing_pairs())
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
