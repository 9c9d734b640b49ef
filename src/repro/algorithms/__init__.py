"""Preference-combination algorithms and Top-K baselines (paper Chapter 5).

Public API
----------
Shared building blocks (:mod:`repro.algorithms.base`)
    :class:`ScoredPreference` — one preference as the algorithms consume it.
    :class:`CombinationRecord` — one ``<size, #tuples, intensity>`` output row.
    :class:`PreferenceQueryRunner` — memoised count/id execution over a
    shared :class:`~repro.index.CountCache` (with batched ``count_many``).
    :func:`make_preferences` — ``(predicate, intensity)`` pairs → ordered list.
    :func:`preferences_from_graph` — extract a user's list from a HYPRE graph.
    :func:`and_combine` / :func:`or_combine` / :func:`mixed_combine` —
    combine a preference list under AND / OR / AND_OR semantics.
    :func:`ordered_by_intensity` — canonical descending-intensity ordering.
    :func:`pairwise_compatible` — syntactic AND-compatibility of two
    preferences.

Combination algorithms
    :class:`CombineTwoAlgorithm` / :func:`combine_two` — §5.3.1 exhaustive
    pairing; ``AND_SEMANTICS`` / ``AND_OR_SEMANTICS`` select the variant.
    :class:`PartiallyCombineAllAlgorithm` / :func:`partially_combine_all` —
    §5.3.2 single-pass mixed-clause combination.
    :class:`BiasRandomSelectionAlgorithm` / :func:`bias_random_selection` /
    :class:`BiasRandomRun` — §5.4 intensity-biased random selection.

Combination counting (Propositions 3/4)
    :func:`count_and_combinations` / :func:`count_and_or_combinations` —
    exact counts by enumeration.
    :func:`enumerate_and_combinations` / :func:`enumerate_and_or_combinations`
    — the combinations themselves.
    :func:`and_only_upper_bound` / :func:`and_or_upper_bound` /
    :func:`growth_table` — closed-form bounds and their growth series.

Top-K retrieval
    :class:`PEPSAlgorithm` / :func:`peps_top_k` — §5.5 Top-K: one fold over
    the positive preferences' id lists; the pairwise combination index (see
    :mod:`repro.index`) backs only its ``ORDER`` list.
    :class:`PairCombination` — the pair index's row type (re-exported from
    :mod:`repro.index`).
    :class:`ThresholdAlgorithm` / :func:`ta_top_k` — Fagin's TA baseline.
    :class:`GradeList` / :func:`build_grade_lists` — per-attribute grade
    lists feeding TA.
    :class:`NaiveTopK` — brute-force reference ranking.
    :class:`TopKResult` — ranking plus access statistics.
"""

from .base import (
    CombinationRecord,
    PreferenceQueryRunner,
    ScoredPreference,
    and_combine,
    make_preferences,
    mixed_combine,
    or_combine,
    ordered_by_intensity,
    pairwise_compatible,
    preferences_from_graph,
)
from .bias_random import BiasRandomRun, BiasRandomSelectionAlgorithm, bias_random_selection
from .combine_two import (
    AND_OR_SEMANTICS,
    AND_SEMANTICS,
    CombineTwoAlgorithm,
    combine_two,
)
from .counting import (
    and_only_upper_bound,
    and_or_upper_bound,
    count_and_combinations,
    count_and_or_combinations,
    enumerate_and_combinations,
    enumerate_and_or_combinations,
    growth_table,
)
from .fagin import (
    GradeList,
    NaiveTopK,
    ThresholdAlgorithm,
    TopKResult,
    build_grade_lists,
    ta_top_k,
)
from .partial import PartiallyCombineAllAlgorithm, partially_combine_all
from .peps import PairCombination, PEPSAlgorithm, peps_top_k

__all__ = [
    "AND_OR_SEMANTICS",
    "AND_SEMANTICS",
    "BiasRandomRun",
    "BiasRandomSelectionAlgorithm",
    "CombinationRecord",
    "CombineTwoAlgorithm",
    "GradeList",
    "NaiveTopK",
    "PEPSAlgorithm",
    "PairCombination",
    "PartiallyCombineAllAlgorithm",
    "PreferenceQueryRunner",
    "ScoredPreference",
    "ThresholdAlgorithm",
    "TopKResult",
    "and_combine",
    "and_only_upper_bound",
    "and_or_upper_bound",
    "bias_random_selection",
    "build_grade_lists",
    "combine_two",
    "count_and_combinations",
    "count_and_or_combinations",
    "enumerate_and_combinations",
    "enumerate_and_or_combinations",
    "growth_table",
    "make_preferences",
    "mixed_combine",
    "or_combine",
    "ordered_by_intensity",
    "pairwise_compatible",
    "partially_combine_all",
    "peps_top_k",
    "preferences_from_graph",
    "ta_top_k",
]
