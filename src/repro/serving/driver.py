"""Deterministic multi-user replay workloads for the serving engine.

The driver turns a seed into a reproducible serving trace: a population of
synthetic user profiles over the workload's venues/years, and a Zipf-skewed
request mix of Top-K **reads**, **profile updates** and the full data-side
update spectrum — **inserts**, **deletes** and **in-place tuple updates**
(most traffic concentrates on a few hot users, as the ROADMAP's
"millions of users" target implies).  The same schedule can be replayed

* against any :class:`~repro.serving.server.ServingSurface` — a single
  server or a sharded cluster (:meth:`ReplayDriver.run`) — optionally
  verifying after *every* mutation that each cached answer equals a
  from-scratch recomputation (:func:`~repro.serving.server.fresh_top_k`);
* against a **no-cache baseline** (:meth:`ReplayDriver.run_baseline`) that
  rebuilds sessions ad hoc and recomputes every read — the seed behaviour
  the serving layer replaces.

Because both paths consume the identical operation list, SQL-statement and
wall-clock comparisons are attributable: the only difference is the serving
engine's resident state and caches.  ``benchmarks/bench_serving.py`` and the
``serve-replay`` CLI command are thin wrappers around this module.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import create_backend
from ..backend.protocol import StorageBackend
from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ServingError
from ..workload.dblp import Paper
from ..workload.loader import (
    append_papers,
    delete_papers,
    load_dataset,
    load_profiles,
    update_papers,
)
from ..workload.synthetic import generate_workload
from .cluster import Partitioner, ShardedTopKServer
from .mixes import AdversarialMix, resolve_mix, target_pool
from .server import ServingSurface, TopKServer, fresh_top_k

#: Operation kinds in a replay schedule.
READ = "read"
UPDATE = "update"
INSERT = "insert"
DELETE = "delete"
DATA_UPDATE = "data_update"

#: The data-side mutation kinds (UPDATE is a *profile* update).
MUTATION_KINDS = (INSERT, DELETE, DATA_UPDATE)


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of a deterministic serving replay."""

    users: int = 50
    requests: int = 300
    k: int = 5
    seed: int = 17
    #: First synthetic uid (kept clear of extractor-mined profiles).
    uid_base: int = 10_001
    #: Zipf exponent of the per-user request skew.
    zipf_exponent: float = 1.1
    #: Relative op-mix weights (normalised internally).  A weight of zero
    #: removes that kind from the schedule entirely.
    read_weight: float = 8.0
    update_weight: float = 1.0
    insert_weight: float = 1.0
    delete_weight: float = 0.5
    data_update_weight: float = 0.5
    #: Named adversarial mix (see :mod:`repro.serving.mixes`).  When set,
    #: the mix's weights and mutation-targeting policy replace the five
    #: weight fields above.
    mix: Optional[str] = None

    def uids(self) -> List[int]:
        """The replay population's user ids."""
        return [self.uid_base + index for index in range(self.users)]


@dataclass(frozen=True)
class ReplayOp:
    """One scheduled operation (payloads pre-generated, fully deterministic)."""

    kind: str
    uid: int = 0
    k: int = 0
    profile: Optional[UserProfile] = None
    papers: Tuple[Paper, ...] = ()
    paper_authors: Tuple[Tuple[int, int], ...] = ()
    #: Target paper ids of a DELETE operation.
    pids: Tuple[int, ...] = ()


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
        #: The resolved adversarial mix (``None`` = the benign default mix).
        self.mix: Optional[AdversarialMix] = resolve_mix(config.mix)
        weights = (self.mix.weights() if self.mix is not None
                   else (config.read_weight, config.update_weight,
                         config.insert_weight, config.delete_weight,
                         config.data_update_weight))
        # random.choices silently produces nonsense for negative weights and
        # raises a cryptic ValueError when all are zero — fail loudly here.
        if any(weight < 0 for weight in weights):
            raise ServingError("replay op-mix weights must be non-negative")
        if not any(weights):
            raise ServingError("replay op-mix weights must not all be zero")
        self.config = config
        self._weights = list(weights)
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
        venues, lo, hi = self._workload_shape(db)
        registry = ProfileRegistry()
        for uid in self.config.uids():
            registry.add(self._initial_profile(uid, venues, lo, hi))
        load_profiles(db, registry)
        return registry

    @staticmethod
    def _workload_shape(db: StorageBackend) -> Tuple[List[str], int, int]:
        venues, lo, hi = db.workload_shape()
        if not venues:
            raise ServingError("replay world has no papers loaded")
        return venues, lo, hi

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
        profile.add_quantitative(self._venue_sql(first), 0.9)
        if second != first:
            profile.add_quantitative(self._venue_sql(second), 0.7)
        span = max(1, hi - lo - 1)
        start = lo + (uid % span)
        profile.add_quantitative(
            f"dblp.year >= {start} AND dblp.year <= {start + 1}", 0.5)
        return profile

    @staticmethod
    def _venue_sql(venue: str) -> str:
        quoted = venue.replace("'", "''")
        return f"dblp.venue = '{quoted}'"

    # -- schedule -----------------------------------------------------------------

    #: How many of the hottest (lowest-rank) users seed the hot/boundary
    #: mutation-target sets of an adversarial mix.
    TARGET_USERS = 8

    def target_pids(self, db: StorageBackend) -> List[int]:
        """The mix's mutation-target pids against the current world state.

        Empty without a targeting mix; otherwise the
        :func:`~repro.serving.mixes.target_pool` of the mix's policy
        against the replay population — identical across identical worlds
        on any storage engine, which keeps targeted schedules deterministic
        and arm-comparable.
        """
        if self.mix is None:
            return []
        return target_pool(db, self.config.uids(), self.config.k,
                           self.mix.target, self.TARGET_USERS)

    @staticmethod
    def _pick_target(rng: random.Random, alive: List[int],
                     preferred: Sequence[int]) -> int:
        """One mutation target: a live preferred pid when any remain.

        With no targeting mix ``preferred`` is empty and this degenerates
        to the historical uniform choice over ``alive`` — same single rng
        draw, so benign schedules are bit-identical to before.
        """
        if preferred:
            alive_set = set(alive)
            candidates = [pid for pid in preferred if pid in alive_set]
            if candidates:
                return candidates[rng.randrange(len(candidates))]
        return alive[rng.randrange(len(alive))]

    def schedule(self, db: StorageBackend) -> List[ReplayOp]:
        """The deterministic operation list for one replay arm.

        Requires a prepared world (for venues/years and the next free pid);
        two identical worlds produce the identical schedule — regardless of
        which storage engine holds them — which is what makes
        server-vs-baseline and sqlite-vs-memory comparisons fair.
        """
        config = self.config
        venues, lo, hi = self._workload_shape(db)
        next_pid = db.max_paper_id() + 1
        max_aid = db.max_author_id()
        uids = config.uids()
        zipf = [1.0 / ((rank + 1) ** config.zipf_exponent)
                for rank in range(len(uids))]
        rng = random.Random(config.seed)
        kinds = [READ, UPDATE, INSERT, DELETE, DATA_UPDATE]
        weights = list(self._weights)
        preferred = self.target_pids(db)
        # Deletes and in-place updates must target pids that still exist at
        # that point of the replay; tracking liveness here keeps the payloads
        # pre-generated and the two arms' schedules identical.
        alive = db.paper_ids()
        update_counts: Dict[int, int] = {}
        ops: List[ReplayOp] = []
        for step in range(config.requests):
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            uid = rng.choices(uids, weights=zipf, k=1)[0]
            if (kind in (DELETE, DATA_UPDATE)) and not alive:
                # Degenerate under heavy deletion.  Re-seed the namespace
                # with an insert when the mix allows inserts; a mix that
                # disabled them (delete-churn) must stay drained — a
                # synthesized insert would resurrect the relation and
                # contradict the configured mix — so degrade to a read.
                kind = INSERT if weights[2] > 0 else READ
            if kind == READ:
                ops.append(ReplayOp(READ, uid=uid, k=config.k))
            elif kind == UPDATE:
                serial = update_counts.get(uid, 0)
                update_counts[uid] = serial + 1
                profile = UserProfile(uid=uid)
                venue = venues[(uid + 7 * serial + 3) % len(venues)]
                profile.add_quantitative(self._venue_sql(venue),
                                         0.3 + 0.05 * (serial % 5))
                ops.append(ReplayOp(UPDATE, uid=uid, profile=profile))
            elif kind == INSERT:
                paper = Paper(
                    pid=next_pid,
                    title=f"Replayed Paper {next_pid}",
                    venue=venues[(step * 3 + 1) % len(venues)],
                    year=hi - (step % 4),
                    abstract="")
                authors = ((paper.pid, 1 + (step % max_aid)),)
                alive.append(next_pid)
                next_pid += 1
                ops.append(ReplayOp(INSERT, papers=(paper,),
                                    paper_authors=authors))
            elif kind == DELETE:
                target = self._pick_target(rng, alive, preferred)
                alive.remove(target)
                ops.append(ReplayOp(DELETE, pids=(target,)))
            else:
                target = self._pick_target(rng, alive, preferred)
                paper = Paper(
                    pid=target,
                    title=f"Updated Paper {target} (step {step})",
                    venue=venues[(step * 5 + 2) % len(venues)],
                    year=lo + (step % max(1, hi - lo + 1)),
                    abstract="")
                ops.append(ReplayOp(DATA_UPDATE, papers=(paper,)))
        return ops

    # -- execution ----------------------------------------------------------------

    def run(self, server: ServingSurface,
            ops: Optional[Sequence[ReplayOp]] = None,
            verify: bool = False,
            label: str = "serving") -> ReplayReport:
        """Replay the schedule against ``server``; optionally verify answers.

        ``server`` is a :class:`~repro.serving.server.TopKServer` or a
        :class:`~repro.serving.cluster.ShardedTopKServer`; each mutation
        event carries the per-shard invalidation breakdown (one record for
        a single server).

        With ``verify`` every mutation is followed by an equivalence sweep:
        each answer still materialised in the result cache — including the
        entries the selective invalidation *spared* — must equal a
        from-scratch recomputation.  A mismatch raises
        :class:`~repro.exceptions.ServingError` naming the user.
        """
        if ops is None:
            ops = self.schedule(server.db)
        report = ReplayReport(label=label)
        start = time.perf_counter()
        for op in ops:
            report.ops += 1
            # Per-op statement deltas, so a verification sweep (which runs
            # from-scratch recomputations on the same database) never
            # pollutes the replay's own SQL accounting.
            statements_before = server.db.statements_executed
            if op.kind == READ:
                result = server.top_k(op.uid, op.k)
                report.reads += 1
                if result.cache_hit:
                    report.read_hits += 1
                    if result.sql_statements == 0:
                        report.zero_sql_reads += 1
            elif op.kind == UPDATE:
                server.update_profile(op.uid, op.profile)
                report.updates += 1
            else:
                cached_before = len(server.results)
                if op.kind == INSERT:
                    outcome = server.insert_tuples(op.papers, op.paper_authors)
                    report.inserts += 1
                elif op.kind == DELETE:
                    outcome = server.delete_tuples(op.pids)
                    report.deletes += 1
                else:
                    outcome = server.update_tuples(op.papers)
                    report.data_updates += 1
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
            report.sql_statements += server.db.statements_executed - statements_before
            if verify:
                if op.kind == READ:
                    self._verify(server, [(op.uid, op.k)], report)
                else:
                    self._verify_cached(server, report)
        report.seconds = time.perf_counter() - start
        return report

    def _verify_cached(self, server: ServingSurface,
                       report: ReplayReport) -> None:
        keys = [(uid, self.config.k) for uid in server.results.cached_users()
                if server.results.peek(uid, self.config.k) is not None]
        self._verify(server, keys, report)

    @staticmethod
    def _verify(server: ServingSurface, keys: Sequence[Tuple[int, int]],
                report: ReplayReport) -> None:
        for uid, k in keys:
            entry = server.results.peek(uid, k)
            served = (list(entry.ranking) if entry is not None
                      else list(server.top_k(uid, k).ranking))
            fresh = fresh_top_k(server.db, uid, k)
            if served != fresh:
                raise ServingError(
                    f"served Top-{k} for uid={uid} diverged from a fresh "
                    f"recomputation: {served!r} != {fresh!r}")
            report.verified_results += 1

    def run_baseline(self, db: StorageBackend,
                     ops: Optional[Sequence[ReplayOp]] = None) -> ReplayReport:
        """Replay the same schedule with no serving layer at all.

        Every read rebuilds the user's graph, pair index and caches from
        scratch (the seed's ad-hoc behaviour); profile updates and data
        mutations only persist rows.  Run it on a *separate but identical*
        world.
        """
        if ops is None:
            ops = self.schedule(db)
        report = ReplayReport(label="baseline")
        statements_before = db.statements_executed
        start = time.perf_counter()
        for op in ops:
            report.ops += 1
            if op.kind == READ:
                fresh_top_k(db, op.uid, op.k)
                report.reads += 1
            elif op.kind == UPDATE:
                registry = ProfileRegistry()
                registry.add(op.profile)
                load_profiles(db, registry)
                report.updates += 1
            elif op.kind == INSERT:
                append_papers(db, list(op.papers), list(op.paper_authors))
                report.inserts += 1
            elif op.kind == DELETE:
                delete_papers(db, op.pids)
                report.deletes += 1
            else:
                update_papers(db, list(op.papers))
                report.data_updates += 1
        report.seconds = time.perf_counter() - start
        report.sql_statements = db.statements_executed - statements_before
        return report

    # -- cluster equivalence ------------------------------------------------------

    def verify_cluster_equivalence(self, workload_config: Any,
                                   shards: int,
                                   capacity: int = 8,
                                   partitioner: Optional[Partitioner] = None,
                                   parallel_fanout: bool = False,
                                   server_backend: Optional[str] = None,
                                   repair_delta: Optional[int] = None,
                                   stats_out: Optional[Dict[str, Any]] = None,
                                   ) -> int:
        """Lockstep three-way equivalence: cluster == single server == fresh.

        ``workload_config`` may belong to any workload family (DBLP or
        synthetic) and the replay may carry any adversarial mix — the
        sweep's contract is family- and mix-independent.  Builds three
        identical worlds, replays the identical schedule
        through a :class:`~repro.serving.cluster.ShardedTopKServer`, a
        single :class:`~repro.serving.server.TopKServer` and the bare loader
        (the no-cache baseline), and **after every mutation** asserts that
        every user read so far gets the same Top-K ranking from all three
        arms — the cluster answer, the single-server answer and a
        from-scratch recomputation against the baseline world.  Raises
        :class:`~repro.exceptions.ServingError` on the first divergence;
        returns the number of three-way comparisons performed.

        ``server_backend`` puts the single-server arm on a different storage
        engine (``"memory"`` turns this into the cross-backend sweep: SQLite
        cluster vs memory single-server vs fresh recomputation, so one run
        certifies sharding *and* the backend abstraction at once); ``None``
        keeps all three worlds on the process default engine.

        Both serving arms run with the repair path active (``repair_delta``
        is forwarded to each constructor), so every comparison after a
        mutation checks *repaired* shard answers against the single server
        and a from-scratch recomputation.  ``stats_out``, when given, is
        filled with the cluster's and the single server's final ``metrics()``
        snapshots — tests use it to assert the equivalence run actually
        exercised repairs rather than invalidating everything.
        """
        cluster_db = self.build_world(workload_config)
        server_db = self.build_world(workload_config, backend=server_backend)
        baseline_db = self.build_world(workload_config)
        checked = 0
        try:
            ops = self.schedule(cluster_db)
            with ShardedTopKServer(cluster_db, shards=shards,
                                   capacity=capacity,
                                   partitioner=partitioner,
                                   parallel_fanout=parallel_fanout,
                                   repair_delta=repair_delta) as cluster, \
                    TopKServer(server_db, capacity=capacity,
                               repair_delta=repair_delta) as server:
                seen: List[int] = []
                for op in ops:
                    if op.kind == READ:
                        if op.uid not in seen:
                            seen.append(op.uid)
                        checked += self._compare_arms(
                            cluster, server, baseline_db, [op.uid], op.k)
                    elif op.kind == UPDATE:
                        cluster.update_profile(op.uid, op.profile)
                        server.update_profile(op.uid, op.profile)
                        registry = ProfileRegistry()
                        registry.add(op.profile)
                        load_profiles(baseline_db, registry)
                        if op.uid in seen:
                            checked += self._compare_arms(
                                cluster, server, baseline_db, [op.uid],
                                self.config.k)
                    else:
                        if op.kind == INSERT:
                            cluster.insert_tuples(op.papers, op.paper_authors)
                            server.insert_tuples(op.papers, op.paper_authors)
                            append_papers(baseline_db, list(op.papers),
                                          list(op.paper_authors))
                        elif op.kind == DELETE:
                            cluster.delete_tuples(op.pids)
                            server.delete_tuples(op.pids)
                            delete_papers(baseline_db, op.pids)
                        else:
                            cluster.update_tuples(op.papers)
                            server.update_tuples(op.papers)
                            update_papers(baseline_db, list(op.papers))
                        checked += self._compare_arms(
                            cluster, server, baseline_db, seen, self.config.k)
                if stats_out is not None:
                    stats_out["cluster"] = cluster.metrics()
                    stats_out["server"] = server.metrics()
        finally:
            cluster_db.close()
            server_db.close()
            baseline_db.close()
        return checked

    @staticmethod
    def _compare_arms(cluster: ShardedTopKServer, server: TopKServer,
                      baseline_db: StorageBackend,
                      uids: Sequence[int], k: int) -> int:
        """Assert all three arms agree on every uid's Top-K; count checks."""
        for uid in uids:
            sharded = list(cluster.top_k(uid, k).ranking)
            single = list(server.top_k(uid, k).ranking)
            fresh = [tuple(entry) for entry in fresh_top_k(baseline_db, uid, k)]
            if sharded != single or sharded != fresh:
                raise ServingError(
                    f"cluster Top-{k} for uid={uid} diverged: "
                    f"sharded={sharded!r} single={single!r} fresh={fresh!r}")
        return len(uids)
