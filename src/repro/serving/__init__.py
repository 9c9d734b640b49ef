"""Multi-user Top-K serving engine with an update-aware result cache.

This subsystem is the layer the ROADMAP's "heavy traffic from millions of
users" target plugs into: instead of rebuilding one user's state per query
(the seed behaviour), many users' HYPRE state stays **resident** behind an
LRU, all sessions share one batched
:class:`~repro.index.CountCache`, and finished Top-K answers are
**materialised** and kept exactly as fresh as one event stream proves
necessary — the full tuple-mutation spectrum (inserts, deletes, in-place
updates) from :mod:`repro.sqldb.events`; a profile update persists, drops
that user's session and answers, and the next read rebuilds them.  On top of the single-server engine,
:mod:`repro.serving.cluster` partitions users across N independent shards
behind the *same* front door: a server and a cluster are one
:class:`ServingSurface` — same doors, same report types, same ``metrics()``
names, one data-mutation pipeline (see ``docs/ARCHITECTURE.md`` for the
event flow, and ``docs/SERVING.md`` for the end-to-end tutorial).

Public API
----------
:class:`ServingSurface`
    The front door both engines are: ``top_k(uid, k)`` /
    ``update_profile(uid, profile)`` / ``insert_tuples(papers, ...)`` /
    ``delete_tuples(pids)`` / ``update_tuples(papers)`` / ``metrics()`` /
    ``close()``, plus ``shards`` / ``shard_of(uid)`` / ``shard_servers``
    (a plain server is its own single shard).  Owns the one data-mutation
    pipeline and the terminal ``close()``.
:class:`TopKServer`
    The thread-safe single-server engine; every door returns per-request
    metrics (cache hit, SQL statements, latency).
:class:`ShardedTopKServer`
    The sharded cluster: routes ``top_k``/``update_profile`` to the owning
    shard and delivers each data mutation to every shard.
:func:`create_server`
    The one construction call: a :class:`TopKServer`, or for ``shards >= 2``
    a :class:`ShardedTopKServer`.
:class:`ServeResult` / :class:`UpdateReport` / :class:`DataMutationReport` /
:class:`ShardMutationReport`
    The per-request metrics records; a data-mutation report carries the
    totals plus one per-shard record per shard.
:class:`Partitioner` / :class:`HashPartitioner` / :class:`ModuloPartitioner`
    The pluggable user→shard placement protocol and its deterministic
    built-in implementations.
:class:`ClusterResultsView`
    Read-only aggregate view over every shard's result cache.
:class:`SessionRegistry`
    Capacity-bounded LRU of resident user sessions sharing one count cache,
    with hit/miss/eviction statistics.
:class:`UserSession`
    One user's resident state, a snapshot of one persisted profile: HYPRE
    graph + pair index + PEPS instance.
:class:`ResultCache`
    Materialised ``(uid, k) -> ranking`` answers, invalidated per-user by
    profile updates and *selectively* by data-mutation events.
:class:`CachedResult`
    One materialised answer plus the predicates it depends on.
:class:`Op` / ``READ`` / ``UPDATE`` / ``INSERT`` / ``DELETE`` / ``DATA_UPDATE``
    The one operation vocabulary: a frozen op record and its five kinds
    (``OP_KINDS`` lists them, ``MUTATION_KINDS`` groups the data-side
    three).
:class:`OpMix` / ``MIXES``
    The five relative op weights, Zipf exponent and mutation-targeting
    policy of a run (``TARGET_ANY`` / ``TARGET_HOT`` / ``TARGET_BOUNDARY``).
    ``OpMix()`` is the benign default; ``MIXES`` names the hostile ones
    (hot-key mutation storms, delete-heavy churn, profile thrash,
    repair-boundary updates) and ``OpMix.named(name)`` looks one up — the
    CLI ``--mix`` flags go through it.
:class:`OpStream` / :func:`build_streams` / :func:`target_pool`
    The one generator: a deterministic endless op stream over an owned pid
    namespace.  A serial replay is the one-worker stream owning the whole
    relation; :func:`build_streams` partitions N for a concurrent run.
:func:`apply_op` / :class:`Uncached`
    ``apply_op(target, op)`` calls the front door an op names and returns
    its result; ``target`` is any :class:`ServingSurface` or
    ``Uncached(db)``, the same five doors over the bare loader and
    :func:`fresh_top_k` (the no-serving-layer arm).
:class:`ReplayDriver` / :class:`ReplayConfig` / :class:`ReplayReport`
    Deterministic Zipf-skewed multi-user workload replay (reads / profile
    updates / data inserts / deletes / in-place tuple updates) against any
    arm, with a no-cache baseline and equivalence verifiers — the engine
    behind ``benchmarks/bench_serving.py``,
    ``benchmarks/bench_serving_cluster.py`` and
    ``python -m repro.cli serve-replay``.
:func:`fresh_top_k`
    From-scratch recomputation of one user's Top-K — the serving oracle.
"""

from .cluster import (
    ClusterResultsView,
    HashPartitioner,
    ModuloPartitioner,
    Partitioner,
    ShardedTopKServer,
    create_server,
)
from .driver import ReplayConfig, ReplayDriver, ReplayReport
from .ops import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MIXES,
    MUTATION_KINDS,
    OP_KINDS,
    READ,
    TARGET_ANY,
    TARGET_BOUNDARY,
    TARGET_HOT,
    UPDATE,
    Op,
    OpMix,
    OpStream,
    Uncached,
    apply_op,
    build_streams,
    target_pool,
)
from .results import CachedResult, ResultCache
from .server import (
    DataMutationReport,
    ServeResult,
    ServingSurface,
    ShardMutationReport,
    TopKServer,
    UpdateReport,
    fresh_top_k,
)
from .sessions import SessionRegistry, UserSession

__all__ = [
    "CachedResult",
    "ClusterResultsView",
    "DATA_UPDATE",
    "DELETE",
    "DataMutationReport",
    "HashPartitioner",
    "INSERT",
    "MIXES",
    "MUTATION_KINDS",
    "ModuloPartitioner",
    "OP_KINDS",
    "Op",
    "OpMix",
    "OpStream",
    "Partitioner",
    "READ",
    "ReplayConfig",
    "ReplayDriver",
    "ReplayReport",
    "ResultCache",
    "ServeResult",
    "ServingSurface",
    "SessionRegistry",
    "ShardMutationReport",
    "ShardedTopKServer",
    "TARGET_ANY",
    "TARGET_BOUNDARY",
    "TARGET_HOT",
    "TopKServer",
    "UPDATE",
    "Uncached",
    "UpdateReport",
    "UserSession",
    "apply_op",
    "build_streams",
    "create_server",
    "fresh_top_k",
    "target_pool",
]
