"""HYPRE — unifying qualitative and quantitative database preferences.

A reproduction of Gheorghiu's hybrid preference model: a preference graph
that stores both preference types with their *intensity*, converts
qualitative preferences into quantitative ones without losing information,
and a family of combination algorithms (Combine-Two, Partially-Combine-All,
Bias-Random-Selection, PEPS) plus Fagin's TA baseline for Top-K retrieval.

Typical usage::

    from repro import (UserProfile, build_hypre_graph, Database,
                       preferences_from_graph, PreferenceQueryRunner,
                       PEPSAlgorithm)

    profile = UserProfile(uid=1)
    profile.add_quantitative("dblp.venue = 'VLDB'", 0.8)
    profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'SIGMOD'", 0.3)
    graph, report = build_hypre_graph(profile)

See ``README.md`` and ``examples/quickstart.py`` for end-to-end
walk-throughs and ``docs/ARCHITECTURE.md`` for the layer diagram.

Public API
----------
Model and graph construction
    :class:`UserProfile` — one user's quantitative + qualitative preferences.
    :class:`QuantitativePreference` — a predicate scored in ``[-1, 1]``.
    :class:`QualitativePreference` — *left over right* with a strength.
    :class:`ProfileRegistry` — a collection of user profiles.
    :class:`HypreGraph` — the unified preference graph (Definition 14); it
    keeps its own nodes, typed edges and per-user lookup (§4.3).
    :class:`HypreGraphBuilder` — Algorithm 1: profiles → graph.
    :func:`build_hypre_graph` — one-shot builder for a profile/registry.
    :class:`BuildReport` — counters and timings of a graph build.
    :class:`DefaultValueStrategy` — DEFAULT_VALUE seeding policies.

Predicates and intensity algebra
    :func:`parse_predicate` — textual SQL predicate → expression tree.
    :func:`equals` / :func:`in_set` — condition constructors.
    :func:`f_and` / :func:`f_or` — pairwise intensity combination functions.
    :func:`combine_and` / :func:`combine_or` — list folds (Eqs. 4.3/4.4).
    :func:`intensity_left` / :func:`intensity_right` — Eqs. 4.1/4.2.
    :func:`utility` — Eq. 5.2 combination utility.
    :func:`similarity` / :func:`overlap` / :func:`coverage` — §7 metrics.

Algorithms and Top-K
    :class:`PreferenceQueryRunner` — memoised count/id query execution.
    :func:`make_preferences` / :func:`preferences_from_graph` — build the
    intensity-ordered :class:`ScoredPreference` list the algorithms consume.
    :class:`CombineTwoAlgorithm` — §5.3.1 pairwise combination.
    :class:`PartiallyCombineAllAlgorithm` — §5.3.2 mixed-clause combination.
    :class:`BiasRandomSelectionAlgorithm` — §5.4 randomised selection.
    :class:`PEPSAlgorithm` — §5.5 Top-K: one fold over the preferences'
    id lists (the pairwise index backs only its ``ORDER`` list).
    :class:`ThresholdAlgorithm` / :class:`NaiveTopK` / :func:`ta_top_k` —
    Fagin's TA baseline and the brute-force reference.

Index subsystem (:mod:`repro.index`)
    :class:`CountCache` — a runner's batched, invalidation-aware count memo.
    :class:`IncrementalPairIndex` — the pairwise index, a view over the
    store's pair counts; stale only when a data mutation may change one.

Serving engine (:mod:`repro.serving`)
    :class:`TopKServer` — thread-safe multi-user Top-K front door with an
    update-aware result cache and per-request metrics.
    :class:`SessionRegistry` — a cold read's build path (staging tables →
    HYPRE graph → PEPS) and the id-list memo every build shares.
    :class:`ResultCache` — materialised Top-K answers, invalidated by
    profile events and selectively by data mutations (insert/delete/update).
    :class:`OpMix` / :func:`apply_op` — the one op vocabulary
    (:mod:`repro.serving.ops`): the relative op weights of a run, and the
    single dispatcher that applies a generated op to a server or an
    uncached world (:class:`repro.loadgen.LoadGenerator` runs the streams,
    serially or from N threads).
    :func:`fresh_top_k` — from-scratch recomputation (the serving oracle).

Storage backends (:mod:`repro.backend`)
    :class:`StorageBackend` — the narrow engine protocol every layer above
    storage is wired against (counts, id lists, joined-view scan, mutation
    surface with image capture, op accounting, event subscriptions).
    :func:`create_backend` — engine factory by name; ``"sqlite"`` is
    :class:`Database`, the one engine every world builder uses (the
    columnar ``"memory"`` engine is a differential arm, reached only by
    name or as :class:`repro.backend.MemoryBackend`).

Relational substrate and workload
    :class:`Database` — SQLite connection wrapper with the DBLP schema,
    emitting :class:`DataMutation` events on tuple mutations.
    :func:`enhance_query` / :func:`rank_tuples` — preference-enhanced SQL.
    :class:`DblpConfig` / :func:`generate_dblp` — synthetic workload.
    :func:`build_workload_database` — generate + load in one call.
    :func:`append_papers` / :func:`delete_papers` / :func:`update_papers` —
    the notifying workload-mutation API (insert / delete / in-place update).
    :class:`PreferenceExtractor` — profiles mined from the citation graph.
"""

from .core import (
    BuildReport,
    DefaultValueStrategy,
    HypreGraph,
    HypreGraphBuilder,
    ProfileRegistry,
    QualitativePreference,
    QuantitativePreference,
    UserProfile,
    build_hypre_graph,
    combine_and,
    combine_or,
    coverage,
    equals,
    f_and,
    f_or,
    in_set,
    intensity_left,
    intensity_right,
    overlap,
    parse_predicate,
    similarity,
    utility,
)
from .algorithms import (
    BiasRandomSelectionAlgorithm,
    CombineTwoAlgorithm,
    NaiveTopK,
    PEPSAlgorithm,
    PartiallyCombineAllAlgorithm,
    PreferenceQueryRunner,
    ScoredPreference,
    ThresholdAlgorithm,
    make_preferences,
    preferences_from_graph,
    ta_top_k,
)
from .backend import StorageBackend, create_backend
from .index import CountCache, IncrementalPairIndex
from .serving import (
    OpMix,
    ResultCache,
    SessionRegistry,
    TopKServer,
    apply_op,
    fresh_top_k,
)
from .sqldb import Database, DataMutation, enhance_query, rank_tuples
from .workload import (
    DblpConfig,
    PreferenceExtractor,
    append_papers,
    build_workload_database,
    delete_papers,
    generate_dblp,
    update_papers,
)

__version__ = "1.0.0"

__all__ = [
    "BiasRandomSelectionAlgorithm",
    "BuildReport",
    "CombineTwoAlgorithm",
    "CountCache",
    "Database",
    "DataMutation",
    "DblpConfig",
    "DefaultValueStrategy",
    "HypreGraph",
    "HypreGraphBuilder",
    "IncrementalPairIndex",
    "NaiveTopK",
    "OpMix",
    "PEPSAlgorithm",
    "PartiallyCombineAllAlgorithm",
    "PreferenceExtractor",
    "PreferenceQueryRunner",
    "ProfileRegistry",
    "ResultCache",
    "SessionRegistry",
    "StorageBackend",
    "QualitativePreference",
    "QuantitativePreference",
    "ScoredPreference",
    "ThresholdAlgorithm",
    "TopKServer",
    "UserProfile",
    "append_papers",
    "apply_op",
    "build_hypre_graph",
    "build_workload_database",
    "create_backend",
    "delete_papers",
    "fresh_top_k",
    "update_papers",
    "combine_and",
    "combine_or",
    "coverage",
    "enhance_query",
    "equals",
    "f_and",
    "f_or",
    "generate_dblp",
    "in_set",
    "intensity_left",
    "intensity_right",
    "make_preferences",
    "overlap",
    "parse_predicate",
    "preferences_from_graph",
    "rank_tuples",
    "similarity",
    "ta_top_k",
    "utility",
]
