"""The pairwise combination index.

PEPS (paper Section 5.5) relies on a pre-computed index of all AND-compatible
preference *pairs* — their combined intensity and tuple count.
:class:`IncrementalPairIndex` is that table for one fixed preference list — a
positional *view*: it stores no count of its own.

* Every pair count lives in the shared
  :class:`~repro.index.count_cache.CountCache` behind ``counter``, keyed by
  the pair's conjuncts, so two users holding the same two predicates share
  one count.  :meth:`~IncrementalPairIndex.refresh` asks for every
  AND-compatible pair in one batched ``count_many``; syntactically
  incompatible pairs are recorded empty without touching the database.
* It is incremental under **data mutations**:
  :meth:`~IncrementalPairIndex.invalidate_matching` marks the view stale only
  when one mutation row may match two of its preferences, and the next
  refresh re-reads the counts — those the cache's own sweep spared are hits,
  so only the dropped ones reach the backend.

The preference list never changes: a new profile means a new index over
the new graph's list — through the same shared cache, so only pairs the
cache has not seen are counted again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from ..core.intensity import combine_and
from ..core.predicate import are_and_compatible, conjunction
from .count_cache import CountCache
from .selectivity import RowMatch


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


def preference_sort_key(preference) -> Tuple[float, str]:
    """THE canonical preference ordering key: descending intensity, SQL tie-break.

    PEPS's positional lookups are correct only because the algorithms layer
    (:func:`repro.algorithms.base.ordered_by_intensity`) and the pair index
    sort with the *same* key — both import this function, so the invariant
    lives in exactly one place.
    """
    return (-preference.intensity, preference.sql)


class IncrementalPairIndex:
    """The pair table of one fixed preference list, incremental under data
    mutations.

    ``counter`` is a :class:`~repro.algorithms.base.PreferenceQueryRunner` or
    a :class:`~repro.index.count_cache.CountCache` — every count flows through
    its ``count_many`` into whichever
    :class:`~repro.backend.protocol.StorageBackend` it wraps, so the index is
    backend-agnostic by construction.  ``preferences`` (anything with
    ``predicate`` / ``intensity`` / ``sql``, e.g.
    :class:`~repro.algorithms.base.ScoredPreference`) are held in the
    canonical :func:`preference_sort_key` order.

    :meth:`refresh` builds the table and two positional views of it: the
    applicable pairs grouped by their lower index (already in serving order)
    and, per index, the bitmask of its applicable partners.  PEPS's expansion
    reads only these, so ordering the combinations never scans the O(n²)
    table.

    Reads (``pair`` / ``is_applicable`` / ...) always serve the *last
    refreshed snapshot*: an invalidation only marks the index :attr:`stale`,
    and the changed counts are folded back in by an explicit :meth:`refresh`.
    """

    def __init__(self, counter, preferences: Sequence) -> None:
        self.counter = counter
        self.preferences = sorted(preferences, key=preference_sort_key)
        #: Each preference's conjunct keys, in preference order — what the
        #: sweep's staleness rule reads, here and in the answers cached from
        #: this index's PEPS runs.
        self.conjuncts = [CountCache.key(pref.predicate)
                          for pref in self.preferences]
        self._stale = True
        #: Statistics: pair conjunctions asked of the counter, pairs recorded
        #: empty as incompatible, refreshes, pairs a sweep had to compare.
        self.pairs_counted = 0
        self.pairs_prefiltered = 0
        self.refreshes = 0
        self.pairs_visited = 0
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
        """``True`` when a mutation may have changed a count since the last
        refresh."""
        return self._stale

    # -- relation-update invalidation ---------------------------------------------

    def invalidate_matching(self, match: RowMatch) -> int:
        """Mark the index stale if a mutation row may match two preferences.

        The per-session half of a data-mutation sweep (see
        :meth:`CountCache.invalidate_matching`): a pair count can only have
        changed if the same mutation row (pre ∪ post image) may match both
        preferences — their masks in the sweep's shared
        :class:`~repro.index.selectivity.RowMatch` intersect.  One mask
        lookup per preference; only preferences some row may match are paired
        up, so an index the mutation cannot touch visits no pair.  Returns
        the number of pairs whose masks intersect.
        """
        if not match.rows:
            return 0
        touched = [mask for mask in map(match.shared, self.conjuncts) if mask]
        self.pairs_visited += len(touched) * (len(touched) - 1) // 2
        stale_pairs = sum(1 for first, second in combinations(touched, 2)
                          if first & second)
        if stale_pairs:
            self._stale = True
        return stale_pairs

    # -- maintenance ---------------------------------------------------------------

    def refresh(self) -> "IncrementalPairIndex":
        """Bring the positional pair table up to date with the relation.

        One pass decides AND-compatibility once per pair and asks the counter
        for every compatible pair in one batch — a count the shared cache
        still holds is a hit, so only pairs it has not seen, or a sweep
        dropped, reach the backend.
        """
        if not self._stale:
            return self
        preferences = self.preferences
        size = len(preferences)
        pairs: Dict[Tuple[int, int], PairCombination] = {}
        counted: List[Tuple[int, int]] = []
        predicates = []
        for i, first in enumerate(preferences):
            for j in range(i + 1, size):
                second = preferences[j]
                if are_and_compatible(first.predicate, second.predicate):
                    counted.append((i, j))
                    predicates.append(
                        conjunction([first.predicate, second.predicate]))
                else:
                    pairs[(i, j)] = PairCombination(i, j, 0.0, 0)
        self.pairs_prefiltered += len(pairs)
        self.pairs_counted += len(counted)
        grouped: List[List[PairCombination]] = [[] for _ in range(size)]
        partners = [0] * size
        for (i, j), count in zip(counted, self.counter.count_many(predicates)):
            pair = pairs[(i, j)] = PairCombination(
                i, j, combine_and([preferences[i].intensity,
                                   preferences[j].intensity]), count)
            if count > 0:
                grouped[i].append(pair)
                partners[i] |= 1 << j
                partners[j] |= 1 << i
        for group in grouped:
            # Stable: equal intensities stay in table (ascending partner) order.
            group.sort(key=lambda pair: -pair.intensity)
        self._pairs = pairs
        self._pairs_from = grouped
        self._partners = partners
        self._stale = False
        self.refreshes += 1
        return self
