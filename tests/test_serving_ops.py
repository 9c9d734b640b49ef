"""The one op vocabulary: mix, stream, ``apply_op`` and the arms.

``repro.serving.ops`` is the only description of "a stream of reads, profile
updates, inserts, deletes and in-place updates" in the repo.  This file pins
that down:

* a serial replay's stream, ``build_streams(db, 1, ...)[0]``, *is* the
  lone stream that owns the whole relation, and several workers start
  empty-handed;
* the load harness's per-worker streams are op-for-op what they were before
  the two generators were merged (digests computed at the parent commit);
* no stream inserts past its pid lane;
* one op list applied through :func:`~repro.serving.apply_op` leaves a
  server and an uncached world — on either engine — with the same relation
  and the same rankings;
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
from repro.loadgen import build_world, load_population, population
from repro.serving import (
    INSERT,
    OP_KINDS,
    READ,
    Op,
    OpMix,
    OpStream,
    TopKServer,
    Uncached,
    apply_op,
    build_streams,
)
from repro.serving import ops
from repro.workload.dblp import DblpConfig, Paper
from repro.workload.loader import append_papers
from worlds import engine_world

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
K = 4
USERS = 10


def serial(db, mix=OpMix(), requests=60):
    """A serial replay's schedule: the one-worker stream, cut."""
    (stream,) = build_streams(db, 1, mix, population(USERS), K, seed=3)
    return list(islice(stream, requests))


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend_name(request):
    return request.param


@pytest.fixture(scope="module")
def world():
    """A prepared read-only world (streams only read it at construction)."""
    db = build_world(DBLP, USERS)
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
        empty = create_backend("sqlite")
        try:
            with pytest.raises(ServingError):
                OpStream(empty, OpMix(), [1], K, seed=5)
        finally:
            empty.close()

    def test_the_next_insert_past_the_lane_raises(self, world, monkeypatch):
        """Regression: ``PID_STRIDE`` bounds each worker's pid lane, but the
        stream never checked it, so a long run's inserts would collide with
        the next worker's pids.  A one-pid lane starts the stream at its
        last pid: the first insert takes it, the next one raises."""
        monkeypatch.setattr(ops, "PID_STRIDE", 1)
        inserts_only = OpMix(read_weight=0.0, update_weight=0.0,
                             delete_weight=0.0, data_update_weight=0.0)
        stream = OpStream(world, inserts_only, uids_of(world), K, seed=5,
                          worker=1)
        (paper,) = next(stream).papers
        assert paper.pid == world.max_paper_id() + 1 + 1
        with pytest.raises(ServingError, match="past its lane"):
            next(stream)

    def test_only_a_lone_stream_owns_the_loaded_relation(self, world):
        (lone,) = build_streams(world, 1, OpMix(), uids_of(world), K, seed=7)
        assert lone._alive == world.paper_ids()
        assert all(not stream._alive for stream in
                   build_streams(world, 3, OpMix(), uids_of(world), K, seed=7))


def test_authorless_world_still_schedules(backend_name):
    """Regression: the serial schedule divided by ``max_author_id()`` — zero
    on a world with papers but no author links — where the load stream
    clamped."""
    db = create_backend(backend_name)
    try:
        append_papers(db, [Paper(pid=1, title="Solo", venue="VLDB",
                                 year=2001)], [])
        load_population(db, USERS)
        assert db.max_author_id() == 0
        ops = serial(db)
        assert len(ops) == 60
        inserts = [op for op in ops if op.kind == INSERT]
        assert inserts
        assert all(op.paper_authors == ((op.papers[0].pid, 1),)
                   for op in inserts)
    finally:
        db.close()


# -- (a) a serial replay is the one-worker stream owning the relation ---------


def test_schedule_is_the_one_worker_stream():
    db = build_world(DBLP, USERS)
    try:
        stream = OpStream(db, OpMix(), population(USERS), K, 3)
        assert serial(db) == list(islice(stream, 60))
    finally:
        db.close()


# -- (b) the load harness's streams did not move ------------------------------

#: sha256 (first 16 hex digits) over the op field tuples of workers 0-2 of a
#: 3-worker build of the default mix, first 400 ops each, seed 17, k=4, over
#: the ``world`` fixture — computed at the parent commit, from the load
#: harness's own (second) generator, before the two were merged.
PARENT_DIGEST = "4ad96239544bb4b8"


def test_worker_streams_match_the_parent_commit(backend_name):
    db = engine_world(backend_name, DBLP, USERS)
    try:
        streams = build_streams(db, 3, OpMix(), uids_of(db), K, seed=17)
        digest = hashlib.sha256()
        for stream in streams:
            for op in islice(stream, 400):
                digest.update(repr(op_fields(op)).encode())
    finally:
        db.close()
    assert digest.hexdigest()[:16] == PARENT_DIGEST


# -- (c) one op list, every arm, both engines ---------------------------------


def _normalised_rows(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def test_apply_op_leaves_every_arm_in_the_same_state():
    mutation_heavy = OpMix(read_weight=4.0, update_weight=1.0,
                           insert_weight=1.5, delete_weight=1.0,
                           data_update_weight=1.0)
    arms = {
        "server": lambda db: TopKServer(db),
        "uncached": Uncached,
    }
    ops = None
    states = {}
    for backend in sorted(BACKEND_NAMES):
        for label, build in arms.items():
            db = engine_world(backend, DBLP, USERS)
            arm = build(db)
            try:
                if ops is None:
                    ops = serial(db, mutation_heavy, requests=80)
                    assert {op.kind for op in ops} == set(OP_KINDS)
                for op in ops:
                    apply_op(arm, op)
                states[backend, label] = (
                    _normalised_rows(db.joined_rows()),
                    [list(arm.top_k(uid, K).ranking)
                     for uid in population(USERS)])
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
