"""Sharded Top-K serving cluster: N independent shards behind one front door.

:class:`ShardedTopKServer` partitions **users** across N independent shards,
each a full :class:`~repro.serving.server.TopKServer` with its own session
LRU, count cache and result cache over the one shared workload database.  It
is the same :class:`~repro.serving.server.ServingSurface` a single server
is — same doors, same reports, same ``metrics()`` names — and adds only
*routing*:

* ``top_k`` / ``update_profile`` go to the owning shard — the deterministic
  :class:`Partitioner` (default :class:`HashPartitioner`) decides ownership,
  so a user's resident state lives on exactly one shard;
* ``insert_tuples`` / ``delete_tuples`` / ``update_tuples`` are the shared
  surface's doors: the loader mutation runs once against the shared
  database, and the cluster's ``_sweep`` delivers the resulting
  :class:`~repro.sqldb.events.DataMutation` — one batched event carrying
  every affected pre-/post-image row — to every shard in shard order, on
  the mutating thread (pure in-memory invalidation, no SQL).

Each shard reacts to a delivered event exactly as a standalone server would
— dropping only the cached answers, counts and pair-index entries the
mutation's images may affect — and reports its impact; the per-shard records
ride along in the :class:`~repro.serving.server.DataMutationReport`.
Because every shard sees every mutation and the relevance test is sound (see
``docs/INVALIDATION.md``), the cluster's answers stay identical to a single
server's and to a from-scratch recomputation after every mutation — the
equivalence :meth:`~repro.serving.driver.ReplayDriver.verify_cluster_equivalence`
verifies.

Under the GIL in-process shards buy partitioned state, not parallelism:
``BENCH_loadgen.json`` shows throughput falling as the shard count rises,
and a thread pool for the sweep measured no faster than this loop (see
``docs/ARCHITECTURE.md``).  The cluster is a partitioning abstraction until
a cross-process mode earns more (see ROADMAP).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from typing import Protocol, runtime_checkable

from ..backend.protocol import StorageBackend
from ..core.preference import UserProfile
from ..exceptions import ServingError
from ..sqldb.events import DataMutation
from .results import CachedResult
from .server import (
    ServeResult,
    ServingSurface,
    ShardMutationReport,
    TopKServer,
    UpdateReport,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF


@runtime_checkable
class Partitioner(Protocol):
    """Pluggable user→shard placement policy.

    Implementations must be **deterministic** (the same ``uid`` always lands
    on the same shard while the shard count is fixed) and **total** (return
    an int in ``range(shards)`` for every uid) — routing correctness and the
    cluster's equivalence guarantee rest on nothing else.
    """

    def shard_of(self, uid: int, shards: int) -> int:
        """The shard index in ``range(shards)`` owning ``uid``."""
        ...  # pragma: no cover - protocol signature


@dataclass(frozen=True)
class HashPartitioner:
    """Deterministic multiplicative-mix hash partitioner (the default).

    Uses a splitmix64-style avalanche instead of Python's builtin ``hash``
    so placement is stable across processes and interpreter versions (no
    hash randomisation), and so consecutive uids — the replay driver's
    synthetic populations are contiguous ranges — spread evenly instead of
    striping with ``uid % shards``.
    """

    seed: int = 0x9E3779B97F4A7C15

    def shard_of(self, uid: int, shards: int) -> int:
        value = (int(uid) ^ self.seed) & _MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        value ^= value >> 31
        return value % shards


@dataclass(frozen=True)
class ModuloPartitioner:
    """The simplest :class:`Partitioner`: ``uid % shards``.

    Useful in tests (placement is obvious by inspection) and as the template
    for custom policies — e.g. pinning tenants to shards by id range.
    """

    def shard_of(self, uid: int, shards: int) -> int:
        return int(uid) % shards


class ClusterResultsView:
    """Read-only aggregate view over every shard's result cache.

    Exposes the lookup surface the replay driver's verifier needs
    (``peek`` / ``cached_users`` / ``len``), routing point lookups to the
    owning shard — an answer is only ever materialised there.
    """

    def __init__(self, cluster: "ShardedTopKServer") -> None:
        self._cluster = cluster

    def peek(self, uid: int, k: int) -> Optional[CachedResult]:
        """The owning shard's cached answer for ``(uid, k)`` (stats untouched)."""
        return self._cluster.shard_for(uid).results.peek(uid, k)

    def cached_users(self) -> List[int]:
        """Distinct user ids with a cached answer on any shard."""
        users = set()
        for server in self._cluster.shard_servers:
            users.update(server.results.cached_users())
        return sorted(users)

    def __len__(self) -> int:
        return sum(len(server.results) for server in self._cluster.shard_servers)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        uid, _ = key
        return key in self._cluster.shard_for(uid).results


class ShardedTopKServer(ServingSurface):
    """Partition users across N independent :class:`TopKServer` shards.

    All shards serve the same shared
    :class:`~repro.backend.protocol.StorageBackend`;
    what is partitioned is the *serving state* — sessions, pair indexes,
    count caches and materialised answers.  ``capacity`` bounds resident
    sessions **per shard**.

    The cluster owns the one database subscription: shard servers are built
    with ``subscribe=False`` and receive each
    :class:`~repro.sqldb.events.DataMutation` from the cluster's sweep, so
    a mutation performed through *any* front door (or directly through the
    loader API) invalidates every shard exactly once.
    """

    _span_root = "cluster"

    def __init__(self, db: StorageBackend,
                 shards: int = 2,
                 capacity: int = 64,
                 partitioner: Optional[Partitioner] = None,
                 repair_delta: Optional[int] = None) -> None:
        if shards < 1:
            raise ServingError("a sharded server needs at least one shard")
        self.capacity = capacity
        #: Over-fetch depth handed to every shard (see
        #: :class:`~repro.serving.server.TopKServer`): delivered mutations
        #: then repair each shard's own cached answers in place.
        self.repair_delta = repair_delta
        self.partitioner: Partitioner = (partitioner if partitioner is not None
                                         else HashPartitioner())
        self._shard_servers: Tuple[TopKServer, ...] = tuple(
            TopKServer(db, capacity=capacity, subscribe=False,
                       repair_delta=repair_delta)
            for _ in range(shards))
        self.results = ClusterResultsView(self)
        #: Data mutations delivered to every shard.
        self.broadcasts = 0
        super().__init__(db)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Unsubscribe and close every shard."""
        with self._exclusive():
            super().close()
            for server in self._shard_servers:
                server.close()

    # -- routing ------------------------------------------------------------------

    @property
    def shard_servers(self) -> Tuple[TopKServer, ...]:
        return self._shard_servers

    def shard_of(self, uid: int) -> int:
        """The shard index owning ``uid`` (validated partitioner verdict)."""
        shards = len(self._shard_servers)
        index = self.partitioner.shard_of(uid, shards)
        if not 0 <= index < shards:
            raise ServingError(
                f"partitioner placed uid={uid} on shard {index!r}, "
                f"outside range(0, {shards})")
        return index

    def top_k(self, uid: int, k: int) -> ServeResult:
        """Answer one Top-K request on the owning shard."""
        shard = self.shard_of(uid)
        with self._trace("cluster.top_k") as trace:
            trace.annotate("shard", shard)
            # The shard's own front-door span nests under this root.
            return self._shard_servers[shard].top_k(uid, k)

    def update_profile(self, uid: int, profile: UserProfile) -> UpdateReport:
        """Persist and apply a profile update on the owning shard."""
        shard = self.shard_of(uid)
        with self._trace("cluster.update_profile") as trace:
            trace.annotate("shard", shard)
            return self._shard_servers[shard].update_profile(uid, profile)

    # -- data-side updates --------------------------------------------------------

    def _sweep(self, mutation: DataMutation
               ) -> Tuple[ShardMutationReport, ...]:
        """Deliver one batched event to every shard, in shard order (the
        caller holds every shard's lock)."""
        self.broadcasts += 1
        swept = [server._sweep(mutation) for server in self._shard_servers]
        return tuple(replace(reports[0], shard=index)
                     for index, reports in enumerate(swept))

    # -- introspection ------------------------------------------------------------

    def metrics(self) -> Dict[str, Union[int, float]]:
        """Cluster-wide counters as one flat unified-name mapping.

        Per-shard counters are summed under the same unified names a single
        server reports (see :meth:`TopKServer.metrics`), the data-mutation
        doors' request counters are the cluster's own, and the
        ``serving.cluster.*`` metrics are added.  The statement counter
        lives on the shared database, so it appears exactly once (summing
        the shards' copies would read N× the truth).
        """
        flat: Dict[str, Union[int, float]] = {}
        backend_key = f"backend.{self.db.backend_name}.statements_executed"
        for server in self._shard_servers:
            for name, value in server.metrics().items():
                if name == backend_key:
                    continue
                flat[name] = flat.get(name, 0) + value
        with self._stats_lock:
            flat["serving.server.inserts"] = self.inserts
            flat["serving.server.deletes"] = self.deletes
            flat["serving.server.tuple_updates"] = self.tuple_updates
        reads = flat.get("serving.server.reads", 0)
        hits = flat.get("serving.server.read_hits", 0)
        flat["serving.cluster.shards"] = self.shards
        flat["serving.cluster.broadcasts"] = self.broadcasts
        flat["serving.cluster.warm_rate"] = (hits / reads) if reads else 0.0
        flat[backend_key] = self.db.statements_executed
        return flat


def create_server(db: StorageBackend, shards: int = 0,
                  **options: object) -> ServingSurface:
    """One serving front door over ``db``: a server, or a cluster of them.

    ``shards`` of 0 or 1 builds a :class:`TopKServer`; 2 or more a
    :class:`ShardedTopKServer`.  ``options`` are the constructor arguments
    the two share (``capacity``, ``repair_delta``).
    """
    if shards < 0:
        raise ServingError("shards must be >= 0 (0/1 build a single server)")
    if shards >= 2:
        return ShardedTopKServer(db, shards=shards, **options)
    return TopKServer(db, **options)
