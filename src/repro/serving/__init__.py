"""Multi-user Top-K serving engine with an update-aware result cache.

This subsystem is the layer the ROADMAP's "heavy traffic from millions of
users" target plugs into: instead of rebuilding one user's state per query
(the seed behaviour), many users' HYPRE state stays **resident** behind an
LRU, all sessions share one batched
:class:`~repro.index.CountCache`, and finished Top-K answers are
**materialised** and kept exactly as fresh as two event streams prove
necessary — profile mutations from :mod:`repro.core.hypre.events` and the
full tuple-mutation spectrum (inserts, deletes, in-place updates) from
:mod:`repro.sqldb.events`.  On top of the single-server engine,
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
    shard and delivers each data mutation to every shard (serially or via a
    concurrent fan-out pool).
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
    One user's resident state: HYPRE builder + incremental pair index +
    PEPS instance.
:class:`ResultCache`
    Materialised ``(uid, k) -> ranking`` answers, invalidated per-user by
    profile events and *selectively* by data-mutation events.
:class:`CachedResult`
    One materialised answer plus the predicates it depends on.
:class:`ReplayDriver` / :class:`ReplayConfig` / :class:`ReplayOp` /
:class:`ReplayReport`
    Deterministic Zipf-skewed multi-user workload replay (reads / profile
    updates / data inserts / deletes / in-place tuple updates) against any
    :class:`ServingSurface`, with a no-cache baseline arm and equivalence
    verifiers — the engine behind
    ``benchmarks/bench_serving.py``, ``benchmarks/bench_serving_cluster.py``
    and ``python -m repro.cli serve-replay``.
``READ`` / ``UPDATE`` / ``INSERT`` / ``DELETE`` / ``DATA_UPDATE``
    The replay operation kinds (``MUTATION_KINDS`` groups the data-side
    three).
:class:`AdversarialMix` / ``MIXES`` / :func:`resolve_mix`
    Named hostile replay mixes (hot-key mutation storms, delete-heavy
    churn, profile thrash, repair-boundary updates) selectable via
    ``ReplayConfig(mix=...)``, ``LoadMix.named(...)`` and the CLI
    ``--mix`` flags; ``TARGET_ANY`` / ``TARGET_HOT`` / ``TARGET_BOUNDARY``
    name the mutation-targeting policies.
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
from .driver import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MUTATION_KINDS,
    READ,
    UPDATE,
    ReplayConfig,
    ReplayDriver,
    ReplayOp,
    ReplayReport,
)
from .mixes import (
    MIXES,
    TARGET_ANY,
    TARGET_BOUNDARY,
    TARGET_HOT,
    AdversarialMix,
    resolve_mix,
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
    "AdversarialMix",
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
    "Partitioner",
    "READ",
    "ReplayConfig",
    "ReplayDriver",
    "ReplayOp",
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
    "UpdateReport",
    "UserSession",
    "create_server",
    "fresh_top_k",
    "resolve_mix",
]
