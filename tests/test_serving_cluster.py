"""Tests for the sharded Top-K serving cluster (repro.serving.cluster)."""

from __future__ import annotations

import pytest

from repro.exceptions import ServingError, UnknownUserError
from repro.serving import (
    DataMutationReport,
    HashPartitioner,
    ModuloPartitioner,
    OpMix,
    Partitioner,
    ReplayConfig,
    ReplayDriver,
    ShardedTopKServer,
    TopKServer,
)
from repro.sqldb.database import Database
from repro.workload.dblp import DblpConfig, Paper, generate_dblp
from repro.workload.loader import append_papers, load_dataset

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
REPLAY = ReplayConfig(users=10, requests=60, k=4, seed=3)


def make_world():
    driver = ReplayDriver(REPLAY)
    return driver, driver.build_world(DBLP)


@pytest.fixture()
def world():
    driver, db = make_world()
    yield driver, db
    db.close()


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        partitioner = HashPartitioner()
        for shards in (1, 2, 3, 4, 8):
            for uid in range(10_000, 10_200):
                shard = partitioner.shard_of(uid, shards)
                assert 0 <= shard < shards
                assert shard == partitioner.shard_of(uid, shards)

    def test_contiguous_uids_spread_across_all_shards(self):
        """The replay populations are contiguous uid ranges; every shard
        must receive a healthy slice (no striping pathologies)."""
        partitioner = HashPartitioner()
        shards = 4
        placement = [partitioner.shard_of(uid, shards)
                     for uid in range(10_001, 10_101)]
        counts = [placement.count(index) for index in range(shards)]
        assert all(count >= 10 for count in counts), counts

    def test_stable_across_instances(self):
        """Placement depends only on (uid, shards, seed) — never on process
        state, so sessions rebuilt after a restart land on the same shard."""
        assert all(HashPartitioner().shard_of(uid, 8)
                   == HashPartitioner().shard_of(uid, 8)
                   for uid in range(500))

    def test_seed_changes_placement(self):
        default = HashPartitioner()
        reseeded = HashPartitioner(seed=12345)
        placements = [(default.shard_of(uid, 4), reseeded.shard_of(uid, 4))
                      for uid in range(200)]
        assert any(a != b for a, b in placements)

    def test_satisfies_protocol(self):
        assert isinstance(HashPartitioner(), Partitioner)
        assert isinstance(ModuloPartitioner(), Partitioner)


class TestRouting:
    def test_requests_land_on_owning_shard_only(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=3, capacity=4,
                               partitioner=ModuloPartitioner()) as cluster:
            uid = REPLAY.uid_base  # 10_001 -> shard 10_001 % 3
            owner = uid % 3
            cluster.top_k(uid, k=3)
            assert cluster.shard_of(uid) == owner
            resident = cluster.resident_uids()
            assert uid in resident[owner]
            for index, uids in resident.items():
                if index != owner:
                    assert uid not in uids

    def test_custom_partitioner_is_honoured(self, world):
        class PinToZero:
            def shard_of(self, uid: int, shards: int) -> int:
                return 0

        driver, db = world
        with ShardedTopKServer(db, shards=4, capacity=8,
                               partitioner=PinToZero()) as cluster:
            for uid in (REPLAY.uid_base, REPLAY.uid_base + 1):
                cluster.top_k(uid, k=3)
            assert cluster.resident_uids()[0]
            assert all(not cluster.resident_uids()[index]
                       for index in (1, 2, 3))

    def test_partitioner_out_of_range_is_rejected(self, world):
        class Broken:
            def shard_of(self, uid: int, shards: int) -> int:
                return shards  # one past the end

        driver, db = world
        with ShardedTopKServer(db, shards=2, partitioner=Broken()) as cluster:
            with pytest.raises(ServingError, match="outside range"):
                cluster.top_k(REPLAY.uid_base, k=3)

    def test_unknown_user_raises(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=2) as cluster:
            with pytest.raises(UnknownUserError):
                cluster.top_k(999_999, k=3)

    def test_warm_repeat_costs_zero_sql(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=2, capacity=4) as cluster:
            uid = REPLAY.uid_base
            cold = cluster.top_k(uid, k=4)
            warm = cluster.top_k(uid, k=4)
            assert not cold.cache_hit
            assert warm.cache_hit and warm.sql_statements == 0
            assert warm.ranking == cold.ranking

    def test_rejects_zero_shards(self, world):
        driver, db = world
        with pytest.raises(ServingError, match="at least one shard"):
            ShardedTopKServer(db, shards=0)


class TestBroadcast:
    def test_mutation_reaches_every_shard(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=3, capacity=8) as cluster:
            for uid in driver.config.uids()[:6]:
                cluster.top_k(uid, k=4)
            report = cluster.insert_tuples(
                [Paper(pid=90_001, title="X", venue="V0", year=2011)],
                paper_authors=[(90_001, 1)])
            assert isinstance(report, DataMutationReport)
            assert report.kind == "tuples_inserted"
            assert len(report.shard_reports) == 3
            assert [shard.shard for shard in report.shard_reports] == [0, 1, 2]
            assert report.results_invalidated == sum(
                shard.results_invalidated for shard in report.shard_reports)
            assert report.results_spared == sum(
                shard.results_spared for shard in report.shard_reports)

    def test_direct_loader_mutation_also_fans_out(self, world):
        """A mutation through the bare loader API (not the cluster front
        door) must still invalidate every shard exactly once."""
        driver, db = world
        with ShardedTopKServer(db, shards=2, capacity=8) as cluster:
            for uid in driver.config.uids()[:6]:
                cluster.top_k(uid, k=4)
            before = cluster.broadcasts
            append_papers(db, [Paper(pid=90_002, title="X", venue="V1",
                                     year=2012)],
                          paper_authors=[(90_002, 2)])
            assert cluster.broadcasts == before + 1
            # Every still-cached answer must be fresh.
            for uid in cluster.results.cached_users():
                entry = cluster.results.peek(uid, 4)
                from repro.serving import fresh_top_k
                assert list(entry.ranking) == fresh_top_k(db, uid, 4)

    def test_noop_delete_spares_everything(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=2, capacity=8) as cluster:
            for uid in driver.config.uids()[:4]:
                cluster.top_k(uid, k=4)
            cached = len(cluster.results)
            report = cluster.delete_tuples([999_999_999])
            assert report.kind == "tuples_deleted"
            assert report.results_invalidated == 0
            assert report.results_spared == cached
            assert len(cluster.results) == cached

    def test_mapping_payloads_accepted(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=2) as cluster:
            report = cluster.insert_tuples(
                [{"pid": 92_000, "venue": "V3", "year": 2010, "aids": [4]}])
            assert report.papers == 1
            # The aids sequence expanded into one author link on any backend.
            rows = db.joined_rows([92_000])
            assert [(row["pid"], row["aid"]) for row in rows] == [(92_000, 4)]

    def test_report_as_dict_shape(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=2) as cluster:
            payload = cluster.insert_tuples(
                [Paper(pid=93_000, title="X", venue="V4", year=2013)],
                paper_authors=[(93_000, 5)]).as_dict()
        assert payload["kind"] == "tuples_inserted"
        assert payload["papers"] == 1
        assert len(payload["shards"]) == 2
        assert {"shard", "results_invalidated", "results_spared",
                "index_entries_dropped"} <= set(payload["shards"][0])


class TestClusterMetrics:
    def test_stats_aggregate_per_shard_counters(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=3, capacity=4) as cluster:
            for uid in driver.config.uids()[:6]:
                cluster.top_k(uid, k=4)
                cluster.top_k(uid, k=4)  # warm repeat
            cluster.insert_tuples(
                [Paper(pid=94_000, title="X", venue="V5", year=2011)],
                paper_authors=[(94_000, 6)])
            metrics = cluster.metrics()
            per_shard = [shard.metrics() for shard in cluster.shard_servers]
            assert metrics["serving.results.entries"] == len(cluster.results)
        assert metrics["serving.cluster.shards"] == 3
        assert metrics["serving.server.reads"] == 12
        assert metrics["serving.server.read_hits"] == sum(
            shard["serving.server.read_hits"] for shard in per_shard)
        assert metrics["serving.cluster.warm_rate"] == pytest.approx(
            metrics["serving.server.read_hits"] / metrics["serving.server.reads"])
        assert metrics["serving.cluster.broadcasts"] == 1
        assert metrics["serving.server.inserts"] == 1
        assert (metrics["backend.%s.statements_executed" % db.backend_name]
                == db.statements_executed)

    def test_results_view_routes_to_owner(self, world):
        driver, db = world
        with ShardedTopKServer(db, shards=2, capacity=4,
                               partitioner=ModuloPartitioner()) as cluster:
            uid = REPLAY.uid_base
            cluster.top_k(uid, k=4)
            assert (uid, 4) in cluster.results
            assert cluster.results.peek(uid, 4) is not None
            assert cluster.results.cached_users() == [uid]
            assert len(cluster.results) == 1

    def test_close_unsubscribes_and_stops_fanout(self, world):
        driver, db = world
        cluster = ShardedTopKServer(db, shards=2)
        cluster.top_k(REPLAY.uid_base, k=3)
        cluster.close()
        before = cluster.broadcasts
        append_papers(db, [Paper(pid=95_000, title="X", venue="V6",
                                 year=2012)],
                      paper_authors=[(95_000, 7)])
        assert cluster.broadcasts == before
        cluster.close()  # idempotent


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cluster_matches_single_server_and_fresh(self, shards):
        """The acceptance criterion: after every mutation of every kind the
        cluster's answers equal the single server's and a from-scratch
        recomputation, in lockstep over identical worlds."""
        driver = ReplayDriver(ReplayConfig(users=8, requests=48, k=4, seed=11))
        checked = driver.verify_cluster_equivalence(
            DBLP, shards=shards, capacity=4)
        assert checked > 0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_repaired_answers_stay_equivalent(self, shards):
        """Repairs happen on every shard topology and every repaired answer
        passes the three-way lockstep check (cluster == single server ==
        fresh)."""
        driver = ReplayDriver(ReplayConfig(
            users=8, requests=48, k=4, seed=11,
            mix=OpMix(insert_weight=1.2, delete_weight=1.0,
                      data_update_weight=1.0)))
        stats = {}
        checked = driver.verify_cluster_equivalence(
            DBLP, shards=shards, capacity=4, stats_out=stats)
        assert checked > 0
        assert stats["cluster"]["serving.result_cache.repairs"] > 0
        assert stats["server"]["serving.result_cache.repairs"] > 0
        # Repair must dominate: the mutation-heavy mix keeps most affected
        # answers maintained in place rather than dropped.
        assert (stats["cluster"]["serving.result_cache.repairs"]
                >= stats["cluster"]["serving.result_cache.repair_fallbacks"])

    def test_replay_verify_covers_all_mutation_kinds(self):
        driver, db = make_world()
        try:
            with ShardedTopKServer(db, shards=3, capacity=4) as cluster:
                report = driver.run(cluster, driver.schedule(db),
                                    verify=True, label="sharded-3")
        finally:
            db.close()
        assert report.label == "sharded-3"
        assert report.verified_results > 0
        assert report.deletes > 0 and report.data_updates > 0
        assert report.read_hits > 0
        assert report.zero_sql_reads == report.read_hits

    def test_sharded_events_carry_per_shard_breakdown(self):
        driver, db = make_world()
        try:
            with ShardedTopKServer(db, shards=2, capacity=6) as cluster:
                report = driver.run(cluster, driver.schedule(db))
        finally:
            db.close()
        assert report.mutation_events
        for event in report.mutation_events:
            assert len(event["shards"]) == 2
            assert event["results_invalidated"] == sum(
                shard["results_invalidated"] for shard in event["shards"])
