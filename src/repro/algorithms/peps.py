"""PEPS — Practical and Efficient Preference Selection (paper Section 5.5).

PEPS is the dissertation's Top-K algorithm.  A tuple's score is the combined
intensity (``f_and``, Eq. 4.3) of the positive preferences it matches, and
the answer is the total order those scores define over every covered tuple.
:meth:`PEPSAlgorithm.top_k` computes exactly that with one fold: each
preference's id list is read once and walked once, and the ``k`` best tuples
are cut from the scores.

The paper's pre-computed pairwise combination index — every AND-compatible
pair's combined intensity and tuple count — and the ``ORDER`` list of
multi-predicate combinations it expands into (:meth:`order_combinations`) are
kept for the paper's figures.  They cannot change the answer, so Top-K never
builds them: :attr:`PEPSAlgorithm.pair_index`
(:class:`~repro.index.IncrementalPairIndex`) is built the first time
:meth:`order_combinations` asks for it.  Pass one in to reuse its table across
PEPS instances over the same preference list.

Two variants of the ``ORDER`` list exist (Sections 5.5.1 / 5.5.2):

* **Complete PEPS** keeps every pair that could still beat the current best
  intensity given enough additional predicates (Proposition 6).
* **Approximate PEPS** keeps only pairs that already beat the top
  preference's intensity, trading a little completeness for speed.

Both return the same Top-K; they differ only in the size of that list.
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import repeat
from operator import sub
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.intensity import combine_and, min_preferences_to_beat
from ..core.predicate import Or, conjunction
from ..exceptions import EmptyPreferenceListError, TopKError
from ..index.count_cache import CountCache
from ..index.pair_index import IncrementalPairIndex, PairCombination
from ..telemetry import annotate
from .base import (
    CombinationRecord,
    PreferenceQueryRunner,
    ScoredPreference,
    ordered_by_intensity,
)


class PEPSAlgorithm:
    """Practical and Efficient Preference Selection (complete or approximate)
    over a list of positive preferences."""

    def __init__(self, runner: PreferenceQueryRunner,
                 preferences: Sequence[ScoredPreference],
                 approximate: bool = False,
                 max_combination_size: int = 6,
                 max_combinations: int = 2000,
                 pair_index: Optional[IncrementalPairIndex] = None) -> None:
        self.runner = runner
        self.preferences = ordered_by_intensity(preferences)
        if not self.preferences:
            raise EmptyPreferenceListError("PEPS requires at least one preference")
        if self.preferences[-1].intensity <= 0.0:
            raise TopKError(
                f"PEPS scores positive preferences only, got "
                f"{self.preferences[-1]!r}")
        self.approximate = approximate
        self.max_combination_size = max(2, max_combination_size)
        self.max_combinations = max(1, max_combinations)
        self._pair_index = pair_index
        #: Each preference's conjunct keys, in preference order — what the
        #: sweep's staleness rule reads in the answers cached from this
        #: instance.
        self.conjuncts = [CountCache.key(pref.predicate)
                          for pref in self.preferences]
        #: Work done by the most recent :meth:`top_k` / :meth:`retrieved_above`
        #: call — machine-independent, so tests gate on these, not on a clock:
        #: tuples given a score and id-list entries folded into the scores.
        self.tuples_scored = 0
        self.memberships_folded = 0

    @property
    def pair_index(self) -> IncrementalPairIndex:
        """The pair table behind :meth:`order_combinations`, built on first use."""
        if self._pair_index is None:
            self._pair_index = IncrementalPairIndex(self.runner, self.preferences)
        return self._pair_index

    # ------------------------------------------------------------------
    # Combination ordering
    # ------------------------------------------------------------------

    def _candidate_pairs(self, start: int) -> List[PairCombination]:
        """Pairs used to seed the expansion from preference ``start``.

        Both variants keep every pair whose combined intensity already exceeds
        the top preference's intensity.  The complete variant additionally
        keeps pairs that Proposition 6 says could still beat it with the
        preferences that remain, so no useful combination is ever lost; the
        approximate variant drops them for speed (Section 5.5.2).
        """
        pairs = self.pair_index.applicable_pairs_from(start)
        if start == 0:
            return pairs
        top_intensity = self.preferences[0].intensity
        remaining = len(self.preferences) - 1
        selected: List[PairCombination] = []
        for pair in pairs:
            if pair.intensity > top_intensity:
                selected.append(pair)
                continue
            if self.approximate:
                continue
            base = self.preferences[pair.second].intensity
            needed = min_preferences_to_beat(top_intensity, base)
            if needed <= remaining:
                selected.append(pair)
        return selected

    def _expand(self, seed: FrozenSet[int],
                emitted: Set[FrozenSet[int]],
                combos: List[FrozenSet[int]]) -> None:
        """Stack-based expansion of one seed pair into larger AND combinations."""
        stack: List[FrozenSet[int]] = [seed]
        while stack and len(combos) < self.max_combinations:
            current = stack.pop()
            if current in emitted:
                continue
            emitted.add(current)
            combos.append(current)
            if len(current) >= self.max_combination_size:
                continue
            # Bit ``nxt`` survives when ``nxt`` lies above every member and
            # is applicable with each of them.
            common = -1 << (max(current) + 1)
            for member in current:
                common &= self.pair_index.applicable_partners(member)
            while common:
                lowest = common & -common
                extended = current | {lowest.bit_length() - 1}
                if extended not in emitted:
                    stack.append(extended)
                common ^= lowest

    def order_combinations(self, include_singletons: bool = True) -> List[CombinationRecord]:
        """Return AND combinations ordered by descending combined intensity.

        This is the ``ORDER`` list of Algorithm 6; every record carries the
        pre-computed combined intensity (tuple counts are filled lazily with
        the cached pairwise counts where available, otherwise -1 meaning
        "not yet executed").
        """
        emitted: Set[FrozenSet[int]] = set()
        combos: List[FrozenSet[int]] = []
        for start in range(len(self.preferences)):
            if len(combos) >= self.max_combinations:
                break
            for pair in self._candidate_pairs(start):
                self._expand(frozenset({pair.first, pair.second}), emitted, combos)

        if include_singletons:
            for index in range(len(self.preferences)):
                single = frozenset({index})
                if single not in emitted:
                    emitted.add(single)
                    combos.append(single)

        # How each preference reads inside a longer conjunction: its own
        # key, parenthesised when it is a disjunction.
        conjuncts = [f"({pref.sql})" if isinstance(pref.predicate, Or) else pref.sql
                     for pref in self.preferences]
        records: List[CombinationRecord] = []
        for combo in combos:
            indexes = sorted(combo)
            members = [self.preferences[index] for index in indexes]
            predicate = conjunction([member.predicate for member in members])
            if len(indexes) == 1:
                label = predicate.to_sql()
            else:
                label = " AND ".join([conjuncts[index] for index in indexes])
            records.append(CombinationRecord(
                size=len(indexes),
                tuple_count=(self.pair_index.pair(*indexes).tuple_count
                             if len(indexes) == 2 else -1),
                intensity=combine_and([member.intensity for member in members]),
                predicate=predicate,
                label=label,
            ))
        records.sort(key=lambda record: (-record.intensity, record.size, record.label))
        return records

    # ------------------------------------------------------------------
    # Top-K retrieval
    # ------------------------------------------------------------------

    def top_k_buffer(self, k: int, delta: int = 0
                     ) -> Tuple[List[Tuple[int, float]], bool]:
        """Over-fetched Top-K: the exact ``k + delta`` prefix plus completeness.

        Returns ``(buffer, complete)`` where ``buffer`` is :meth:`top_k`'s
        answer for depth ``k + delta`` — an exact prefix of the total order
        over all covered tuples — and ``complete`` is ``True`` when the
        buffer holds the *entire* covered universe (the fetch came back
        short), so a maintainer never needs floor reasoning.  Over-fetching
        is free here because scoring is one linear fold over the preferences'
        id lists that gives *every* covered tuple its exact score whatever
        the depth; ``delta`` only moves the truncation point.
        """
        depth = k + max(0, delta)
        buffer = self.top_k(depth)
        return buffer, len(buffer) < depth

    def top_k(self, k: int,
              min_intensity: Optional[float] = None) -> List[Tuple[int, float]]:
        """Return the ``k`` most preferred tuples as ``(pid, intensity)`` pairs.

        Every covered tuple is scored with the combined intensity of the
        preferences it matches, so the order is exactly the total order the
        intensity values define (ties broken by ascending pid).
        ``min_intensity`` cuts at a score threshold instead of a count,
        matching the Figure 37/38 experiment.
        """
        if k <= 0:
            raise TopKError("k must be positive")
        if min_intensity is not None:
            return self.retrieved_above(min_intensity)
        remainder = self._remainders()
        # A tuple's score is ``1.0 - m``; in IEEE arithmetic ``m - 1.0`` is
        # exactly ``-(1.0 - m)``, so ``(m - 1.0, pid)`` is the
        # ``(-score, pid)`` order, compared in C without a key call.
        ranked = nsmallest(k, zip(map(sub, remainder.values(), repeat(1.0)),
                                  remainder.keys()))
        return [(pid, 1.0 - remainder[pid]) for _, pid in ranked]

    def retrieved_above(self, min_intensity: float) -> List[Tuple[int, float]]:
        """All tuples whose combined intensity reaches ``min_intensity``,
        in :meth:`top_k`'s order."""
        remainder = self._remainders()
        ranked = sorted((missed - 1.0, pid) for pid, missed in remainder.items()
                        if 1.0 - missed >= min_intensity)
        return [(pid, 1.0 - remainder[pid]) for _, pid in ranked]

    def _remainders(self) -> Dict[int, float]:
        """Every covered tuple's ``prod(1 - intensity)``, in no particular
        order: its score is ``1.0`` less that remainder.

        A transient inverted map over the preferences matching each pid.
        Each id list is walked once, in preference order, so the product
        runs through exactly the factors, in exactly the order, of
        ``combine_and`` over the tuple's matched intensities — the scores
        are the same floats, for O(sum |ids|).
        """
        remainder: Dict[int, float] = {}
        memberships = 0
        for pref in self.preferences:
            miss = 1.0 - pref.intensity
            pids = self.runner.ids(pref.predicate)
            memberships += len(pids)
            for pid in pids:
                remainder[pid] = remainder.get(pid, 1.0) * miss
        self.tuples_scored = len(remainder)
        self.memberships_folded = memberships
        annotate("tuples_scored", self.tuples_scored)
        annotate("memberships_folded", memberships)
        return remainder


def peps_top_k(runner: PreferenceQueryRunner,
               preferences: Sequence[ScoredPreference],
               k: int,
               approximate: bool = False) -> List[Tuple[int, float]]:
    """Functional wrapper: run PEPS end-to-end and return the Top-K tuples."""
    algorithm = PEPSAlgorithm(runner, preferences, approximate=approximate)
    return algorithm.top_k(k)
