"""Incremental pairwise-combination index with a shared count cache.

This subsystem replaces the throwaway per-run pair index of the seed
implementation: counts are memoised in one shared store, executed in batched
SQL round-trips, and maintained *incrementally* under preference-graph
mutations instead of rebuilt from scratch (see ``docs/ARCHITECTURE.md`` for
the layer diagram and the invalidation contract).

Public API
----------
:class:`CountCache`
    Memoizing, invalidation-aware predicate-count store shared by all
    combination algorithms; batches cache misses into compound statements.
:class:`PairwiseCombinationIndex`
    Full-rebuild pairwise index with batched counts and an emptiness
    pre-filter (the drop-in successor of the seed class of the same name).
:class:`IncrementalPairIndex`
    Pair index that subscribes to :class:`~repro.core.hypre.graph.HypreGraph`
    mutations and updates only the affected pair rows on refresh.
:class:`PairCombination`
    One ``<first, second, intensity, tuple count>`` row of a pair index.
:class:`IndexedPreference`
    Lightweight scored preference record used by the index layer.
:class:`RowMatch`
    One data mutation's rows with each distinct predicate judged against
    them at most once (a row bitmask per predicate); the serving sweep
    builds one per mutation and every ``invalidate_matching`` consumes it.
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
    when the verdict cannot be decided from the row alone.  The repair
    path uses it to re-score cached answers without SQL, falling back to
    invalidation whenever it returns ``None``.
:class:`GraphMutation`
    The mutation event record emitted by the HYPRE graph (re-exported from
    :mod:`repro.core.hypre.events`).
``NODE_INSERTED``, ``NODES_MERGED``, ``EDGE_INSERTED``, ``INTENSITY_CHANGED``
    Event kinds carried by :class:`GraphMutation`.
"""

from ..core.hypre.events import (
    EDGE_INSERTED,
    INTENSITY_CHANGED,
    NODE_INSERTED,
    NODES_MERGED,
    GraphMutation,
)
from .count_cache import CountCache
from .pair_index import (
    IncrementalPairIndex,
    IndexedPreference,
    PairCombination,
    PairwiseCombinationIndex,
)
from .selectivity import RowMatch, exact_match_row, may_match_row

__all__ = [
    "CountCache",
    "EDGE_INSERTED",
    "GraphMutation",
    "INTENSITY_CHANGED",
    "IncrementalPairIndex",
    "IndexedPreference",
    "NODES_MERGED",
    "NODE_INSERTED",
    "PairCombination",
    "PairwiseCombinationIndex",
    "RowMatch",
    "exact_match_row",
    "may_match_row",
]
