"""The one op vocabulary: mix, stream, ``apply_op`` and the arms.

``repro.serving.ops`` is the only description of "a stream of reads, profile
updates, inserts, deletes and in-place updates" in the repo.  This file pins
that down:

* a serial replay schedule *is* the first ``requests`` ops of the one-worker
  stream that owns the whole relation;
* the load harness's per-worker streams are op-for-op what they were before
  the two generators were merged (digests computed at the parent commit);
* one op list applied through :func:`~repro.serving.apply_op` leaves a
  server, a cluster and an uncached world — on either engine — with the
  same relation and the same rankings;
* the mix validates its weights once, and a world without author links
  still schedules.

The liveness rules of the generator (only live pids are mutated, workers
never name each other's pids, no resurrection inserts) are a Hypothesis
property in ``test_properties_hypothesis.py``.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import pytest

from repro.backend import BACKEND_NAMES, create_backend
from repro.exceptions import ServingError
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MIXES,
    OP_KINDS,
    READ,
    TARGET_ANY,
    TARGET_BOUNDARY,
    TARGET_HOT,
    Op,
    OpMix,
    OpStream,
    ReplayConfig,
    ReplayDriver,
    ShardedTopKServer,
    TopKServer,
    Uncached,
    apply_op,
    build_streams,
)
from repro.workload.dblp import DblpConfig, Paper
from repro.workload.loader import append_papers

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
K = 4
#: The benign default plus every named mix.
MIX_NAMES = [None] + sorted(MIXES)


def make_driver(mix_name=None, requests=60):
    return ReplayDriver(ReplayConfig(users=10, requests=requests, k=K, seed=3,
                                     mix=OpMix.named(mix_name)))


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend_name(request):
    return request.param


@pytest.fixture(scope="module")
def world():
    """A prepared read-only world (streams only read it at construction)."""
    db = make_driver().build_world(DBLP, backend="memory")
    yield db
    db.close()


def uids_of(db):
    return sorted(profile.uid for profile in db.read_profiles())


def op_fields(op):
    profile = None
    if op.profile is not None:
        profile = [(preference.predicate_sql, preference.intensity)
                   for preference in op.profile.quantitative]
    return (op.kind, op.uid, op.k, profile,
            [(paper.pid, paper.title, paper.venue, paper.year, paper.abstract)
             for paper in op.papers],
            list(op.paper_authors), list(op.pids))


# -- the mix ------------------------------------------------------------------


class TestOpMix:
    def test_catalogue_is_a_dict_of_instances(self):
        assert OpMix.named(None) == OpMix()
        for name, mix in MIXES.items():
            assert OpMix.named(name) is mix
            assert mix.name == name
            assert len(mix.weights()) == len(OP_KINDS)
            assert mix.target in (TARGET_ANY, TARGET_HOT, TARGET_BOUNDARY)
        with pytest.raises(ServingError, match="unknown adversarial mix"):
            OpMix.named("does-not-exist")

    def test_weights_are_validated_once_at_construction(self):
        # random.choices samples nonsense for negative weights and raises a
        # cryptic error for all-zero ones — the mix fails loudly instead.
        with pytest.raises(ServingError, match="non-negative"):
            OpMix(delete_weight=-1.0)
        with pytest.raises(ServingError, match="not all be zero"):
            OpMix(read_weight=0.0, update_weight=0.0, insert_weight=0.0,
                  delete_weight=0.0, data_update_weight=0.0)


# -- the stream ---------------------------------------------------------------


class TestOpStream:
    def test_streams_are_deterministic(self, world):
        uids = uids_of(world)
        first = list(islice(OpStream(world, OpMix(), uids, K, seed=5), 50))
        second = list(islice(OpStream(world, OpMix(), uids, K, seed=5), 50))
        assert first == second
        other = list(islice(OpStream(world, OpMix(), uids, K, seed=6), 50))
        assert other != first

    def test_zero_weight_removes_a_kind(self, world):
        reads_only = OpMix(update_weight=0.0, insert_weight=0.0,
                           delete_weight=0.0, data_update_weight=0.0)
        stream = OpStream(world, reads_only, uids_of(world), K, seed=5)
        assert {op.kind for op in islice(stream, 100)} == {READ}

    def test_all_kinds_appear_in_the_default_mix(self, world):
        stream = OpStream(world, OpMix(), uids_of(world), K, seed=5)
        assert {op.kind for op in islice(stream, 600)} == set(OP_KINDS)

    def test_reads_carry_the_run_k(self, world):
        stream = OpStream(world, OpMix(), uids_of(world), 7, seed=5)
        assert {op.k for op in islice(stream, 100) if op.kind == READ} == {7}

    def test_empty_population_and_empty_world_are_rejected(self, world):
        with pytest.raises(ServingError):
            OpStream(world, OpMix(), [], K, seed=5)
        empty = create_backend("memory")
        try:
            with pytest.raises(ServingError):
                OpStream(empty, OpMix(), [1], K, seed=5)
        finally:
            empty.close()

    def test_hot_pool_takes_the_in_place_updates(self, world):
        """A shared (un-owned) pool is only ever updated, never deleted."""
        pool = world.paper_ids()[:3]
        stream = OpStream(world, OpMix.named("hot-keys"), uids_of(world), K,
                          seed=5, hot=pool)
        ops = list(islice(stream, 300))
        updates = [op for op in ops if op.kind == DATA_UPDATE]
        assert updates
        assert all(op.papers[0].pid in pool for op in updates)
        assert not any(op.pids[0] in pool for op in ops if op.kind == DELETE)

    def test_deletes_prefer_a_live_owned_pool_pid(self, world):
        """Owning the pool (the serial replay) aims deletes at it first."""
        owned = world.paper_ids()
        pool = owned[:3]
        stream = OpStream(world, OpMix.named("hot-keys"), uids_of(world), K,
                          seed=5, owned=owned, hot=pool)
        ops = list(islice(stream, 300))
        deleted = [op.pids[0] for op in ops if op.kind == DELETE]
        assert deleted[:3] and set(deleted[:3]) == set(pool)
        # Once the pool is gone, nothing names it again.
        gone = ops.index(next(op for op in ops if op.kind == DELETE
                              and op.pids[0] == deleted[2]))
        for op in ops[gone + 1:]:
            assert not set(op.pids) & set(pool)
            assert not {paper.pid for paper in op.papers} & set(pool)

    def test_build_streams_stripes_a_drained_relation_disjointly(self, world):
        streams = build_streams(world, 3, OpMix.named("delete-churn"),
                                uids_of(world), K, seed=7)
        slices = [set(stream._alive) for stream in streams]
        assert set().union(*slices) == set(world.paper_ids())
        assert sum(len(piece) for piece in slices) == len(world.paper_ids())
        # Any mix that can insert starts its workers empty-handed.
        assert all(not stream._alive for stream in
                   build_streams(world, 3, OpMix(), uids_of(world), K, seed=7))


def test_authorless_world_still_schedules(backend_name):
    """Regression: ``schedule`` divided by ``max_author_id()`` — zero on a
    world with papers but no author links — where the load stream clamped."""
    driver = make_driver()
    db = create_backend(backend_name)
    try:
        append_papers(db, [Paper(pid=1, title="Solo", venue="VLDB",
                                 year=2001)], [])
        driver.prepare(db)
        assert db.max_author_id() == 0
        ops = driver.schedule(db)
        assert len(ops) == driver.config.requests
        inserts = [op for op in ops if op.kind == INSERT]
        assert inserts
        assert all(op.paper_authors == ((op.papers[0].pid, 1),)
                   for op in inserts)
    finally:
        db.close()


# -- (a) a serial replay is the one-worker stream owning the relation ---------


@pytest.mark.parametrize("mix_name", MIX_NAMES)
def test_schedule_is_the_one_worker_stream(mix_name):
    driver = make_driver(mix_name)
    db = driver.build_world(DBLP, backend="memory")
    try:
        config = driver.config
        stream = OpStream(db, config.mix, config.uids(), config.k,
                          config.seed, owned=db.paper_ids(),
                          hot=driver.target_pids(db))
        assert driver.schedule(db) == list(islice(stream, config.requests))
    finally:
        db.close()


# -- (b) the load harness's streams did not move ------------------------------

#: sha256 (first 16 hex digits) over the op field tuples of workers 0-2 of a
#: 3-worker build, first 400 ops each, seed 17, k=4, over the ``world``
#: fixture — computed at the parent commit, from the load harness's own
#: (second) generator, before the two were merged.
PARENT_DIGESTS = {
    None: "4ad96239544bb4b8",
    "delete-churn": "46c4531d742f2b77",
    "hot-keys": "12893cad141105c3",
    "profile-thrash": "c3ffd8435dc30c35",
    "repair-hostile": "7f4d2e5f4e7864cb",
}


@pytest.mark.parametrize("mix_name", MIX_NAMES)
def test_worker_streams_match_the_parent_commit(backend_name, mix_name):
    db = make_driver().build_world(DBLP, backend=backend_name)
    try:
        streams = build_streams(db, 3, OpMix.named(mix_name), uids_of(db),
                                K, seed=17)
        digest = hashlib.sha256()
        for stream in streams:
            for op in islice(stream, 400):
                digest.update(repr(op_fields(op)).encode())
    finally:
        db.close()
    assert digest.hexdigest()[:16] == PARENT_DIGESTS[mix_name]


# -- (c) one op list, every arm, both engines ---------------------------------


def _normalised_rows(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def test_apply_op_leaves_every_arm_in_the_same_state():
    mutation_heavy = OpMix(read_weight=4.0, update_weight=1.0,
                           insert_weight=1.5, delete_weight=1.0,
                           data_update_weight=1.0)
    driver = ReplayDriver(ReplayConfig(users=10, requests=80, k=K, seed=3,
                                       mix=mutation_heavy))
    arms = {
        "server": lambda db: TopKServer(db, capacity=6),
        "cluster": lambda db: ShardedTopKServer(db, shards=2, capacity=6),
        "uncached": Uncached,
    }
    ops = None
    states = {}
    for backend in sorted(BACKEND_NAMES):
        for label, build in arms.items():
            db = driver.build_world(DBLP, backend=backend)
            arm = build(db)
            try:
                if ops is None:
                    ops = driver.schedule(db)
                    assert {op.kind for op in ops} == set(OP_KINDS)
                for op in ops:
                    apply_op(arm, op)
                states[backend, label] = (
                    _normalised_rows(db.joined_rows()),
                    [list(arm.top_k(uid, K).ranking)
                     for uid in driver.config.uids()])
            finally:
                if label != "uncached":
                    arm.close()
                db.close()
    reference = states["sqlite", "uncached"]
    assert any(reference[1])
    for key, state in states.items():
        assert state == reference, f"{key} diverged from the uncached arm"


def test_apply_op_rejects_an_unknown_kind(world):
    with pytest.raises(ServingError, match="unknown op kind"):
        apply_op(Uncached(world), Op("compact"))
