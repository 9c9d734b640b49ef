"""Pairwise-combination index with a runner-owned count cache.

This subsystem replaces the throwaway per-run pair index of the seed
implementation: counts are memoised in one store per query runner, executed
in batched SQL round-trips, and maintained *incrementally* under data
mutations instead of rebuilt from scratch (see ``docs/ARCHITECTURE.md`` for
the layer diagram and the invalidation contract).

Public API
----------
:class:`CountCache`
    Single-threaded, invalidation-aware predicate-count memo that a
    :class:`~repro.algorithms.base.PreferenceQueryRunner` owns and every
    combination algorithm on that runner shares, keyed by a predicate's
    conjuncts; batches cache misses into compound statements.
:class:`IncrementalPairIndex`
    The pair index of one fixed preference list, a positional view that
    stores no count: one batched request per refresh, stale only when a
    data mutation's row may match two of its preferences.
:class:`PairCombination`
    One ``<first, second, intensity, tuple count>`` row of a pair index.
:class:`RowMatch`
    One data mutation's rows with each distinct predicate judged against
    them at most once (a may-match and a surely-matches row bitmask per
    predicate); the serving sweep builds one per mutation, every
    ``invalidate_matching`` consumes it and the result cache's repair
    scores from it.
:class:`ConjunctIndex`
    The conjunct texts one store holds, ``attr = literal`` ones bucketed by
    literal: a sweep takes those keys' verdicts from the bucket lookup of a
    mutation row's values, evaluates only the other keys, and visits only
    the entries held under the live ones.
:func:`may_match_row`
    Sound tuple-relevance check used by data-update invalidation across
    the full mutation spectrum: ``False`` proves that no image of an
    affected tuple — inserted post-image, deleted pre-image, either image
    of an in-place update — can satisfy a predicate, so the cached entry
    keyed by it may survive the mutation (the rules every consumer must
    follow are written down in ``docs/INVALIDATION.md``).
:func:`exact_match_row`
    Three-valued exact row evaluation: ``True``/``False`` when every
    attribute the predicate references is present on the row, ``None``
    when the verdict cannot be decided from the row alone.  Only
    :class:`RowMatch` calls it, once per (distinct predicate, row); the
    repair path re-scores cached answers from those verdicts without SQL,
    falling back to invalidation when a score hangs on a ``None``.
"""

from .count_cache import CountCache
from .pair_index import IncrementalPairIndex, PairCombination
from .selectivity import (ConjunctIndex, RowMatch, exact_match_row,
                          may_match_row)

__all__ = [
    "ConjunctIndex",
    "CountCache",
    "IncrementalPairIndex",
    "PairCombination",
    "RowMatch",
    "exact_match_row",
    "may_match_row",
]
