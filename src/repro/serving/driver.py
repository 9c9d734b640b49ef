"""Deterministic multi-user replay workloads for the serving engine.

The driver turns a seed into a reproducible serving trace: a population of
synthetic user profiles over the workload's venues/years, and a Zipf-skewed
request mix of Top-K **reads**, **profile updates** and the full data-side
update spectrum — **inserts**, **deletes** and **in-place tuple updates**
(most traffic concentrates on a few hot users, as the ROADMAP's
"millions of users" target implies).  The trace itself is the one-worker
:class:`~repro.serving.ops.OpStream` that owns the whole relation — the
same generator the concurrent load harness runs N of.  The same schedule
can be replayed

* against any :class:`~repro.serving.server.ServingSurface` — a single
  server or a sharded cluster (:meth:`ReplayDriver.run`) — optionally
  verifying after *every* mutation that each cached answer equals a
  from-scratch recomputation (:func:`~repro.serving.server.fresh_top_k`);
* against a **no-cache baseline** (:meth:`ReplayDriver.run_baseline` —
  the same ``run`` over an :class:`~repro.serving.ops.Uncached` world) that
  rebuilds sessions ad hoc and recomputes every read — the seed behaviour
  the serving layer replaces.

Because both paths consume the identical operation list, SQL-statement and
wall-clock comparisons are attributable: the only difference is the serving
engine's resident state and caches.  ``benchmarks/bench_serving.py`` and the
``serve-replay`` CLI command are thin wrappers around this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..backend import create_backend
from ..backend.protocol import StorageBackend
from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ServingError
from ..workload.loader import load_dataset, load_profiles
from ..workload.synthetic import generate_workload
from .cluster import ShardedTopKServer
from .ops import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MUTATION_KINDS,
    READ,
    UPDATE,
    Op,
    OpMix,
    OpStream,
    Uncached,
    apply_op,
    audit_materialised,
    target_pool,
    venue_predicate,
)
from .server import DataMutationReport, TopKServer

#: The :class:`ReplayReport` counter each op kind bumps.
_COUNTERS = {READ: "reads", UPDATE: "updates", INSERT: "inserts",
             DELETE: "deletes", DATA_UPDATE: "data_updates"}


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of a deterministic serving replay."""

    users: int = 50
    requests: int = 300
    k: int = 5
    seed: int = 17
    #: First synthetic uid (kept clear of extractor-mined profiles).
    uid_base: int = 10_001
    #: The op mix (weights, user skew, mutation targeting); the benign
    #: default unless given — ``OpMix.named("hot-keys")`` picks a hostile one.
    mix: OpMix = OpMix()

    def uids(self) -> List[int]:
        """The replay population's user ids."""
        return [self.uid_base + index for index in range(self.users)]


@dataclass
class ReplayReport:
    """Aggregated outcome of one replay run."""

    label: str
    ops: int = 0
    reads: int = 0
    read_hits: int = 0
    zero_sql_reads: int = 0
    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    data_updates: int = 0
    sql_statements: int = 0
    seconds: float = 0.0
    verified_results: int = 0
    #: One record per data mutation (insert/delete/data_update), tagged with
    #: its ``kind``: how selectively the result cache reacted.
    mutation_events: List[Dict[str, Any]] = field(default_factory=list)

    def events_of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """The mutation events of one kind (INSERT / DELETE / DATA_UPDATE)."""
        return [event for event in self.mutation_events
                if event["kind"] == kind]

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (for JSON reports)."""
        return {
            "label": self.label, "ops": self.ops, "reads": self.reads,
            "read_hits": self.read_hits, "zero_sql_reads": self.zero_sql_reads,
            "updates": self.updates, "inserts": self.inserts,
            "deletes": self.deletes, "data_updates": self.data_updates,
            "sql_statements": self.sql_statements, "seconds": self.seconds,
            "verified_results": self.verified_results,
            "mutation_events": list(self.mutation_events),
        }


class ReplayDriver:
    """Builds and replays one deterministic multi-user serving workload."""

    def __init__(self, config: ReplayConfig = ReplayConfig(),
                 profile_factory: Optional[
                     Callable[[int, Sequence[str], int, int],
                              UserProfile]] = None) -> None:
        if config.users < 1 or config.requests < 1:
            raise ServingError("replay needs at least one user and one request")
        self.config = config
        # Pluggable initial-profile shape: ``(uid, venues, lo, hi) ->
        # UserProfile``.  The synthetic family passes
        # :func:`~repro.workload.synthetic.synthetic_profile_factory` here
        # so its extra attributes carry preference predicates.
        self._profile_factory = profile_factory

    # -- world construction -------------------------------------------------------

    def build_world(self, workload_config: Any,
                    path: str = ":memory:",
                    backend: Optional[str] = None) -> StorageBackend:
        """A fresh workload backend with the replay population's profiles.

        ``workload_config`` may belong to any workload family — a
        :class:`~repro.workload.dblp.DblpConfig` or a
        :class:`~repro.workload.synthetic.SyntheticConfig`
        (:func:`~repro.workload.synthetic.generate_workload` dispatches on
        the type).  Called once per replay *arm*: the server run and the
        baseline run each get their own identical world, so their statement
        counts are comparable.  ``backend`` picks the storage engine by
        factory name (``None`` defers to the ``REPRO_BACKEND`` environment
        default) — two worlds on *different* engines still produce
        identical replay schedules, which is what makes the cross-backend
        differential comparisons of ``bench_backends.py`` attributable to
        the engine.
        """
        db = create_backend(backend, path=path)
        load_dataset(db, generate_workload(workload_config))
        self.prepare(db)
        return db

    def prepare(self, db: StorageBackend) -> ProfileRegistry:
        """Persist every synthetic user profile into ``db``'s staging tables."""
        venues, lo, hi = db.workload_shape()
        if not venues:
            raise ServingError("replay world has no papers loaded")
        registry = ProfileRegistry()
        for uid in self.config.uids():
            registry.add(self._initial_profile(uid, venues, lo, hi))
        load_profiles(db, registry)
        return registry

    def _initial_profile(self, uid: int, venues: Sequence[str],
                         lo: int, hi: int) -> UserProfile:
        """A small per-user profile: two venue likes plus a narrow year band.

        Venue choices rotate with the uid so a single inserted paper's venue
        touches only a slice of the population — that is what makes the
        result cache's data-side invalidation measurably selective.  A
        ``profile_factory`` passed to the constructor replaces this shape
        wholesale (the synthetic family adds extra-attribute predicates).
        """
        if self._profile_factory is not None:
            return self._profile_factory(uid, venues, lo, hi)
        profile = UserProfile(uid=uid)
        first = venues[uid % len(venues)]
        second = venues[(uid * 5 + 2) % len(venues)]
        profile.add_quantitative(venue_predicate(first), 0.9)
        if second != first:
            profile.add_quantitative(venue_predicate(second), 0.7)
        span = max(1, hi - lo - 1)
        start = lo + (uid % span)
        profile.add_quantitative(
            f"dblp.year >= {start} AND dblp.year <= {start + 1}", 0.5)
        return profile

    # -- schedule -----------------------------------------------------------------

    def target_pids(self, db: StorageBackend) -> List[int]:
        """The mix's mutation-target pids against the current world state.

        The :func:`~repro.serving.ops.target_pool` of the mix's policy
        against the replay population (empty for an untargeted mix) —
        identical across identical worlds on any storage engine, which keeps
        targeted schedules deterministic and arm-comparable.
        """
        return target_pool(db, self.config.uids(), self.config.k,
                           self.config.mix.target)

    def schedule(self, db: StorageBackend) -> List[Op]:
        """The deterministic operation list for one replay arm.

        A serial replay is the one-worker :class:`~repro.serving.ops.OpStream`
        that owns the whole relation, cut at ``requests`` ops.  Requires a
        prepared world; two identical worlds produce the identical schedule
        — regardless of which storage engine holds them — which is what
        makes server-vs-baseline and sqlite-vs-memory comparisons fair.
        """
        config = self.config
        stream = OpStream(db, config.mix, config.uids(), config.k, config.seed,
                          owned=db.paper_ids(), hot=self.target_pids(db))
        return list(islice(stream, config.requests))

    # -- execution ----------------------------------------------------------------

    def run(self, target: Any,
            ops: Optional[Sequence[Op]] = None,
            verify: bool = False,
            label: str = "serving") -> ReplayReport:
        """Replay the schedule against ``target``; optionally verify answers.

        ``target`` is any arm :func:`~repro.serving.ops.apply_op` accepts —
        a :class:`~repro.serving.server.TopKServer`, a
        :class:`~repro.serving.cluster.ShardedTopKServer` or an
        :class:`~repro.serving.ops.Uncached` world.  On a serving surface
        each mutation event carries the per-shard invalidation breakdown
        (one record for a single server); an uncached arm has no caches to
        react, so it records none.

        With ``verify`` every mutation is followed by an equivalence sweep:
        each answer still materialised in the result cache — including the
        entries the selective invalidation *spared* — must equal a
        from-scratch recomputation.  A mismatch raises
        :class:`~repro.exceptions.ServingError` naming the user.
        """
        if ops is None:
            ops = self.schedule(target.db)
        report = ReplayReport(label=label)
        start = time.perf_counter()
        for op in ops:
            report.ops += 1
            counter = _COUNTERS[op.kind]
            setattr(report, counter, getattr(report, counter) + 1)
            cached_before = (len(target.results)
                             if op.kind in MUTATION_KINDS else 0)
            # Per-op statement deltas, so a verification sweep (which runs
            # from-scratch recomputations on the same database) never
            # pollutes the replay's own SQL accounting.
            statements_before = target.db.statements_executed
            outcome = apply_op(target, op)
            report.sql_statements += (target.db.statements_executed
                                      - statements_before)
            if op.kind == READ:
                if outcome.cache_hit:
                    report.read_hits += 1
                    if outcome.sql_statements == 0:
                        report.zero_sql_reads += 1
            elif isinstance(outcome, DataMutationReport):
                report.mutation_events.append({
                    "kind": op.kind,
                    "cached_before": cached_before,
                    "results_invalidated": outcome.results_invalidated,
                    "results_spared": outcome.results_spared,
                    "results_repaired": outcome.results_repaired,
                    "repair_fallbacks": outcome.repair_fallbacks,
                    "repair_sql_statements": outcome.repair_sql_statements,
                    "index_entries_dropped": outcome.index_entries_dropped,
                    # The per-shard breakdown, so benchmarks can assert a
                    # mutation invalidates on one shard while sparing another.
                    "shards": [shard.as_dict()
                               for shard in outcome.shard_reports],
                })
            if verify:
                report.verified_results += self._verify(target, op)
        report.seconds = time.perf_counter() - start
        return report

    def _verify(self, target: Any, op: Op) -> int:
        """Check the answer a read materialised, or — after anything else —
        every answer still materialised."""
        uids = ([op.uid] if op.kind == READ
                else target.results.cached_users())
        checked, mismatches = audit_materialised(target, uids, self.config.k)
        if mismatches:
            raise ServingError(
                "served Top-{k} for uid={uid} diverged from a fresh "
                "recomputation: {served!r} != {fresh!r}".format(
                    **mismatches[0]))
        return checked

    def run_baseline(self, db: StorageBackend,
                     ops: Optional[Sequence[Op]] = None) -> ReplayReport:
        """Replay the same schedule with no serving layer at all.

        The :class:`~repro.serving.ops.Uncached` arm: every read recomputes
        from scratch (the seed's ad-hoc behaviour); profile updates and data
        mutations only persist rows.  Run it on a *separate but identical*
        world.
        """
        return self.run(Uncached(db), ops, label="baseline")

    # -- cluster equivalence ------------------------------------------------------

    def verify_cluster_equivalence(self, workload_config: Any,
                                   shards: int,
                                   capacity: int = 8,
                                   server_backend: Optional[str] = None,
                                   stats_out: Optional[Dict[str, Any]] = None,
                                   ) -> int:
        """Lockstep three-way equivalence: cluster == single server == fresh.

        ``workload_config`` may belong to any workload family (DBLP or
        synthetic) and the replay may carry any mix — the sweep's contract
        is family- and mix-independent.  Builds three identical worlds and
        applies the identical schedule to three arms — a
        :class:`~repro.serving.cluster.ShardedTopKServer`, a single
        :class:`~repro.serving.server.TopKServer` and an
        :class:`~repro.serving.ops.Uncached` world (the from-scratch
        reference) — and **after every mutation** asserts that every user
        read so far gets the same Top-K ranking from all three.  Raises
        :class:`~repro.exceptions.ServingError` on the first divergence;
        returns the number of three-way comparisons performed.

        ``server_backend`` puts the single-server arm on a different storage
        engine (``"memory"`` turns this into the cross-backend sweep: SQLite
        cluster vs memory single-server vs fresh recomputation, so one run
        certifies sharding *and* the backend abstraction at once); ``None``
        keeps all three worlds on the process default engine.

        Both serving arms run with the repair path active, so every
        comparison after a mutation checks *repaired* shard answers against
        the single server and a from-scratch recomputation.  ``stats_out``,
        when given, is filled with the cluster's and the single server's
        final ``metrics()`` snapshots — tests use it to assert the
        equivalence run actually exercised repairs rather than invalidating
        everything.
        """
        cluster_db, server_db, baseline_db = worlds = [
            self.build_world(workload_config, backend=backend)
            for backend in (None, server_backend, None)]
        checked = 0
        try:
            ops = self.schedule(cluster_db)
            with ShardedTopKServer(cluster_db, shards=shards,
                                   capacity=capacity) as cluster, \
                    TopKServer(server_db, capacity=capacity) as server:
                arms = (cluster, server, Uncached(baseline_db))
                seen: List[int] = []
                for op in ops:
                    if op.kind == READ:
                        # The comparison itself is the read, on every arm.
                        if op.uid not in seen:
                            seen.append(op.uid)
                        due: Sequence[int] = [op.uid]
                    else:
                        for arm in arms:
                            apply_op(arm, op)
                        due = (seen if op.kind in MUTATION_KINDS
                               else [op.uid] if op.uid in seen else [])
                    checked += _assert_arms_agree(arms, due, self.config.k)
                if stats_out is not None:
                    stats_out["cluster"] = cluster.metrics()
                    stats_out["server"] = server.metrics()
        finally:
            for world in worlds:
                world.close()
        return checked


def _assert_arms_agree(arms: Sequence[Any], uids: Sequence[int],
                       k: int) -> int:
    """Assert every arm serves the same Top-K for every uid; count checks."""
    for uid in uids:
        sharded, single, fresh = (list(arm.top_k(uid, k).ranking)
                                  for arm in arms)
        if sharded != single or sharded != fresh:
            raise ServingError(
                f"cluster Top-{k} for uid={uid} diverged: "
                f"sharded={sharded!r} single={single!r} fresh={fresh!r}")
    return len(uids)
