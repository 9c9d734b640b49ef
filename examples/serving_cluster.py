"""Sharded Top-K serving cluster: route users, broadcast mutations.

Run with::

    python examples/serving_cluster.py

The runnable companion of ``docs/SERVING.md``: it walks the same road as
the tutorial —

1. load a synthetic DBLP workload into SQLite,
2. serve a population of users through a ``ShardedTopKServer`` (users are
   partitioned across four independent ``TopKServer`` shards by a
   deterministic hash partitioner; warm repeats cost zero SQL statements),
3. mutate the data and show the per-shard invalidation breakdown the
   ``DataMutationReport`` carries (the same report a single server returns),
4. replay a deterministic Zipf-skewed multi-user workload — its shape set
   by one ``OpMix`` — through the cluster with the after-every-mutation
   equivalence verifier on, and compare its SQL bill against the no-cache
   baseline (the same schedule applied to an uncached world).
"""

from __future__ import annotations

from repro import (
    Database,
    OpMix,
    ReplayConfig,
    ReplayDriver,
    ShardedTopKServer,
    UserProfile,
)
from repro.workload import DblpConfig, Paper, generate_dblp, load_dataset

WORLD = DblpConfig(n_papers=300, n_authors=120, n_venues=10, seed=7)


def serve_some_users() -> None:
    db = Database(":memory:")
    load_dataset(db, generate_dblp(WORLD))
    cluster = ShardedTopKServer(db, shards=4, capacity=8)

    # Eight users, partitioned across the shards by the hash partitioner.
    for uid in range(1, 9):
        profile = UserProfile(uid=uid)
        profile.add_quantitative(f"dblp.year >= {2000 + uid}", 0.8)
        if uid % 2:
            profile.add_quantitative("dblp.venue = 'VLDB'", 0.9)
        cluster.update_profile(uid, profile)
        cluster.top_k(uid, k=5)

    placement = {shard: uids for shard, uids in
                 cluster.resident_uids().items() if uids}
    print("User placement (shard -> resident uids):")
    for shard, uids in sorted(placement.items()):
        print(f"  shard {shard}: {uids}")

    warm = cluster.top_k(1, k=5)
    print(f"\nWarm repeat for uid=1: cache_hit={warm.cache_hit}, "
          f"sql_statements={warm.sql_statements}")

    # One broadcast mutation: every shard reacts, but only the answers whose
    # predicates can match the new tuple (year >= 2001..2004) are dropped —
    # the users preferring later years provably keep their answers.
    report = cluster.insert_tuples(
        [Paper(pid=9100, title="Fresh ICDE Paper", venue="ICDE", year=2004)],
        paper_authors=[(9100, 1)])
    print(f"\nBroadcast insert ({report.kind}): "
          f"{report.results_invalidated} invalidated, "
          f"{report.results_spared} spared across shards")
    for shard in report.shard_reports:
        print(f"  shard {shard.shard}: {shard.results_invalidated} "
              f"invalidated, {shard.results_spared} spared")

    metrics = cluster.metrics()
    print(f"\nCluster metrics: {metrics['serving.cluster.shards']} shards, "
          f"warm-rate {metrics['serving.cluster.warm_rate']:.2f}, "
          f"{metrics['serving.cluster.broadcasts']} broadcasts, "
          f"{metrics['backend.sqlite.statements_executed']} SQL statements "
          f"total")
    cluster.close()
    db.close()


def replay_with_verification() -> None:
    # Twice the default share of deletes and in-place updates.
    driver = ReplayDriver(ReplayConfig(
        users=12, requests=80, k=4, seed=5,
        mix=OpMix(delete_weight=1.0, data_update_weight=1.0)))

    sharded_db = driver.build_world(WORLD)
    with ShardedTopKServer(sharded_db, shards=2, capacity=6) as cluster:
        sharded = driver.run(cluster, driver.schedule(sharded_db),
                             verify=True, label="sharded-2")
    sharded_db.close()

    baseline_db = driver.build_world(WORLD)
    baseline = driver.run_baseline(baseline_db, driver.schedule(baseline_db))
    baseline_db.close()

    print(f"\nReplay ({sharded.ops} ops, arm {sharded.label}):")
    print(f"  reads={sharded.reads}, warm hits={sharded.read_hits} "
          f"(all {sharded.zero_sql_reads} with zero SQL)")
    print(f"  mutations: {sharded.inserts} inserts, {sharded.deletes} "
          f"deletes, {sharded.data_updates} in-place updates")
    print(f"  equivalence checks passed: {sharded.verified_results}")
    print(f"  SQL statements: {sharded.sql_statements} vs "
          f"{baseline.sql_statements} for the no-cache baseline")


def main() -> None:
    serve_some_users()
    replay_with_verification()


if __name__ == "__main__":
    main()
