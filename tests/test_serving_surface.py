"""One serving surface: a server and a cluster are interchangeable.

Pins the contract of :class:`repro.serving.ServingSurface` over
``TopKServer``, ``ShardedTopKServer(shards=1)`` and
``ShardedTopKServer(shards=3)`` on every registered storage backend: the
same public methods, one mutation report type, the same ``metrics()`` names,
identical answers and report totals for one fixed script, a terminal
``close()``, and served == ``fresh_top_k`` under profile updates drawn from
the user's own predicates.  Also pins the construction surface (every
settable parameter, by name), the lock set, and what a sweep guarantees: it runs on the
mutating thread, shard by shard, so a failing one leaves nothing held, and
it judges relevance through one ``RowMatch`` — each distinct predicate once.
"""

from __future__ import annotations

import inspect
import random
import threading
from pathlib import Path

import pytest
from test_loadgen_concurrency import start_and_join
from test_peps_cold_path import count_calls

import repro.concurrency
import repro.index.selectivity as selectivity
from repro.backend import BACKEND_NAMES
from repro.cli import run_load
from repro.concurrency import TimedRLock
from repro.core.predicate import And, are_and_compatible, parse_predicate
from repro.core.preference import UserProfile
from repro.exceptions import ServingError
from repro.algorithms.peps import PEPSAlgorithm
from repro.index import IncrementalPairIndex, RowMatch, may_match_row
from repro.serving import (
    DataMutationReport,
    ReplayConfig,
    ReplayDriver,
    ShardedTopKServer,
    TopKServer,
    create_server,
    fresh_top_k,
)
from repro.serving.results import CachedResult
from repro.serving.sessions import UserSession
from repro.telemetry import Telemetry, instrument_locks, validate_metric_name
from repro.workload import PreferenceExtractor, generate_dblp, load_profiles
from repro.workload.dblp import DblpConfig, Paper

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
REPLAY = ReplayConfig(users=8, k=4, seed=3)
K = REPLAY.k

#: Every way to stand the one surface up (capacity never binds: the script's
#: cache behaviour must not depend on how the users are partitioned).
SURFACES = {
    "server": lambda db: TopKServer(db, capacity=16),
    "cluster-1": lambda db: ShardedTopKServer(db, shards=1, capacity=16),
    "cluster-3": lambda db: ShardedTopKServer(db, shards=3, capacity=16),
}

#: Report totals that must not depend on the partitioning.
#: ``index_entries_dropped`` and ``sql_statements`` are left out: every
#: shard keeps its own count cache, so a predicate two shards' users share
#: is counted — and dropped — once per shard.
PARTITION_FREE_TOTALS = ("kind", "papers", "joined_rows", "results_invalidated",
                         "results_spared", "results_repaired",
                         "repair_fallbacks", "repair_sql_statements")


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend(request):
    return request.param


@pytest.fixture(params=sorted(SURFACES))
def surface(request, backend):
    db = ReplayDriver(REPLAY).build_world(DBLP, backend=backend)
    engine = SURFACES[request.param](db)
    yield engine
    engine.close()
    db.close()


def public_methods(cls):
    return {name for name, _ in inspect.getmembers(cls, callable)
            if not name.startswith("_")}


def run_script(engine):
    """One fixed read/update/insert/update-tuples/delete script; returns the
    transcript of every answer and every mutation report's totals."""
    uids = REPLAY.uids()
    venues, _, hi = engine.db.workload_shape()
    transcript = []

    def read_everyone():
        for uid in uids:
            result = engine.top_k(uid, K)
            assert list(result.ranking) == fresh_top_k(engine.db, uid, K)
            transcript.append((uid, result.cache_hit, result.ranking))

    def mutated(report):
        assert type(report) is DataMutationReport
        assert len(report.shard_reports) == engine.shards
        assert [shard.shard for shard in report.shard_reports] \
            == list(range(engine.shards))
        for name in ("results_invalidated", "results_spared",
                     "index_entries_dropped", "results_repaired",
                     "repair_fallbacks", "repair_sql_statements"):
            assert getattr(report, name) == sum(
                getattr(shard, name) for shard in report.shard_reports), name
        transcript.append(tuple(getattr(report, name)
                                for name in PARTITION_FREE_TOTALS))

    read_everyone()
    read_everyone()
    update = UserProfile(uid=uids[0])
    update.add_quantitative(f"dblp.venue = '{venues[3]}'", 0.95)
    engine.update_profile(uids[0], update)
    read_everyone()
    mutated(engine.insert_tuples(
        [Paper(pid=90_001, title="Inserted", venue=venues[0], year=hi)],
        paper_authors=[(90_001, 1)]))
    read_everyone()
    mutated(engine.update_tuples(
        [Paper(pid=90_001, title="Moved", venue=venues[1], year=hi - 1)]))
    read_everyone()
    top_pid = engine.top_k(uids[1], K).ranking[0][0]
    mutated(engine.delete_tuples([90_001, top_pid]))
    read_everyone()
    mutated(engine.delete_tuples([999_999_999]))  # no-op: never notifies
    return transcript


def test_identical_public_method_set():
    assert public_methods(TopKServer) == public_methods(ShardedTopKServer)
    assert {"top_k", "update_profile", "insert_tuples", "delete_tuples",
            "update_tuples", "metrics", "close", "shard_of"} \
        <= public_methods(TopKServer)


def test_mutation_doors_are_defined_once():
    for door in ("insert_tuples", "delete_tuples", "update_tuples"):
        assert getattr(TopKServer, door) is getattr(ShardedTopKServer, door)


def test_a_plain_server_is_its_own_single_shard(backend):
    db = ReplayDriver(REPLAY).build_world(DBLP, backend=backend)
    with TopKServer(db, capacity=4) as server:
        uid = REPLAY.uids()[0]
        assert server.shards == 1
        assert server.shard_of(uid) == 0
        assert server.shard_servers == (server,)
        assert server.shard_for(uid) is server
        server.top_k(uid, K)
        assert server.resident_uids() == {0: [uid]}
    db.close()


def test_script_reports_and_metrics(surface):
    """Every door returns the one report type (checked inside the script),
    every answer equals a fresh recomputation, and ``metrics()`` speaks
    valid unified names."""
    run_script(surface)
    metrics = surface.metrics()
    assert all(validate_metric_name(name) for name in metrics)
    assert metrics["serving.server.inserts"] == 1
    assert metrics["serving.server.tuple_updates"] == 1
    assert metrics["serving.server.deletes"] == 2
    assert metrics["serving.server.updates"] == 1


def test_construction_surface_is_pinned():
    """Every settable parameter of the serving constructors, of what a
    session is built from and of the load harness' front door, by name: a new
    option is a deliberate edit of this list, not a drive-by."""
    pinned = {
        IncrementalPairIndex: ["counter", "preferences"],
        UserSession: ["uid", "runner", "profile"],
        UserSession.algorithm: ["self"],
        PEPSAlgorithm: ["runner", "preferences", "approximate",
                        "max_combination_size", "max_combinations",
                        "pair_index"],
        run_load: ["scale", "users", "threads", "duration", "qps", "shards",
                   "backend", "seed", "k", "capacity", "audit_interval",
                   "output", "as_json", "telemetry", "repair_delta", "family",
                   "mix"],
        TopKServer: ["db", "capacity", "subscribe", "repair_delta"],
        ShardedTopKServer: ["db", "shards", "capacity", "partitioner",
                            "repair_delta"],
        create_server: ["db", "shards", "options"],
        ReplayDriver.verify_cluster_equivalence: [
            "self", "workload_config", "shards", "capacity", "server_backend",
            "stats_out"],
    }
    for target, names in pinned.items():
        assert list(inspect.signature(target).parameters) == names, target


def test_lock_set_is_pinned(surface):
    """Every lock ``instrument_locks`` may report, by name, all of the one
    shape ``repro.concurrency`` defines; a new lock is a deliberate edit of
    this list.  Restoring hands back every original object."""
    shards = surface.shard_servers
    prefixes = ([""] if shards == (surface,)
                else [f"shard{index}-" for index in range(len(shards))])
    expected = [prefix + name for prefix in prefixes
                for name in ("server", "sessions", "count-cache",
                             "result-cache")]
    swapped = [(owner, "_lock") for shard in shards
               for owner in (shard, shard.sessions,
                             shard.sessions.count_cache, shard.results)]
    swapped += [(shard.sessions.count_cache, "_cond") for shard in shards]
    if surface.db.backend_name == "memory":
        expected.append("memory-backend")
        swapped.append((surface.db, "_lock"))
    originals = [getattr(owner, name) for owner, name in swapped]

    handle = instrument_locks(surface)
    records = handle.report()
    assert sorted(record["name"] for record in records) == sorted(expected)
    assert {record["kind"] for record in records} == {"rlock"}
    assert all(isinstance(getattr(owner, name), TimedRLock)
               for owner, name in swapped if name == "_lock")
    handle.uninstrument()
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(swapped, originals))
    assert {name for name, cls
            in inspect.getmembers(repro.concurrency, inspect.isclass)
            if cls.__module__ == "repro.concurrency"} == {"TimedRLock"}


def test_cluster_sweeps_on_the_mutating_thread_in_shard_order(backend):
    db = ReplayDriver(REPLAY).build_world(DBLP, backend=backend)
    swept = []

    def recording(index, sweep):
        def wrapped(mutation):
            swept.append((index, threading.get_ident()))
            return sweep(mutation)
        return wrapped

    with create_server(db, shards=3) as cluster:
        for index, shard in enumerate(cluster.shard_servers):
            shard._sweep = recording(index, shard._sweep)
        cluster.insert_tuples(
            [Paper(pid=90_003, title="Swept", venue="V0", year=2012)])
    db.close()
    me = threading.get_ident()
    assert swept == [(0, me), (1, me), (2, me)]


def test_failed_sweep_propagates_and_leaves_nothing_held(surface):
    """A sweep that raises surfaces at the door that caused it, and by then
    every lock is released: cold reads on every shard and a further
    mutation, all from another thread, complete."""
    uids = REPLAY.uids()
    last = surface.shard_servers[-1]

    def failing(mutation):
        raise RuntimeError("sweep failed")

    last._sweep = failing
    with pytest.raises(RuntimeError, match="sweep failed"):
        surface.insert_tuples(
            [Paper(pid=90_004, title="Unswept", venue="V0", year=2012)])
    del last._sweep  # the class's method again
    outcome = {}

    def read_everyone_then_mutate():
        outcome["cold"] = [surface.top_k(uid, K).cache_hit for uid in uids]
        outcome["report"] = surface.delete_tuples([90_004])

    start_and_join([threading.Thread(target=read_everyone_then_mutate,
                                     name="after-failed-sweep", daemon=True)])
    assert outcome["cold"] == [False] * len(uids)
    assert outcome["report"].papers == 1
    assert len(outcome["report"].shard_reports) == surface.shards


def sweepable_keys(surface):
    """Every key a data sweep can drop, as ``((kind, shard), conjunct SQLs)``:
    a shard owns its count and id-list stores; sessions hold none."""
    keys = set()
    for index, shard in enumerate(surface.shard_servers):
        registry = shard.sessions
        keys |= {(("count", index), key) for key in registry.count_cache._counts}
        keys |= {(("ids", index), key) for key in registry.runner._ids_cache}
    return keys


def resident_indexes(surface):
    return [shard.sessions.peek(uid).index for shard in surface.shard_servers
            for uid in shard.sessions.resident_uids()]


def test_sweep_work_is_distinct_predicates_times_rows(surface, monkeypatch):
    """Work gate, by counting: with eight resident sessions sharing
    predicates, updating a multi-author paper costs distinct predicates x rows
    evaluations through one ``RowMatch`` per shard and drops exactly what the
    plain loop, written out below, calls stale — judged conjunct by conjunct:
    no count or id-list key hands ``mask`` a conjunction to parse again, and a
    session pairs up only the preferences some row may match.  No rows, no
    work: an author-less insert notifies, yet no consumer walks the keys it
    holds."""
    db, uids = surface.db, REPLAY.uids()
    Telemetry().observe(surface)
    ranked = [hit for uid in uids for hit in surface.top_k(uid, K).ranking]
    # Scoring above one intensity means matching a venue *and* a year
    # predicate: the pre-image alone stales a count, an id list and a session.
    pid = next(pid for pid, score in ranked
               if score > 0.9 and len(db.joined_rows([pid])) >= 2)
    answers = {(uid, K): surface.shard_for(uid).results.peek(uid, K).predicates
               for uid in uids}
    before = sweepable_keys(surface)
    judged = count_calls(monkeypatch, selectivity, "exact_match_row")
    built = count_calls(monkeypatch, RowMatch, "__init__")
    # ``apply_delta`` runs on exactly the affected answers.
    repairs = count_calls(monkeypatch, CachedResult, "apply_delta")
    masks = count_calls(monkeypatch, RowMatch, "mask")
    venues, _, hi = db.workload_shape()
    report = surface.update_tuples(
        [Paper(pid=pid, title="Moved", venue=venues[1], year=hi)])
    asked, rows = len(judged), built[0][1]  # the reference asks the same judge
    sweeps = [record for record in surface.telemetry.traces.snapshot()[-1].walk()
              if record.name == "server.on_data_mutation"]
    assert len(built) == len(sweeps) == surface.shards
    assert all(sweep.annotation("rows") == len(rows) >= 4 for sweep in sweeps)
    tests = sum(sweep.annotation("predicate_row_tests") for sweep in sweeps)
    keys = sum(sweep.annotation("distinct_predicates") for sweep in sweeps)
    assert asked == tests == keys * len(rows)
    # Count and id-list keys reach ``mask`` as conjunct texts, never whole.
    assert any(len(members) > 1 for _, members in before)
    assert not any(isinstance(parse_predicate(asked), And)
                   for _, asked in masks if isinstance(asked, str))

    def stale(members):  # the plain loop: some row may match every member
        return any(all(may_match_row(predicate, row) for predicate in members)
                   for row in rows)

    dropped = before - sweepable_keys(surface)
    assert dropped == {key for key in before if stale(key[1])}
    assert {kind for (kind, _), _ in dropped} == {"count", "ids"}
    assert report.index_entries_dropped == len(dropped)
    touched = [[pref.sql for pref in index.preferences if stale([pref.sql])]
               for index in resident_indexes(surface)]
    assert sum(sweep.annotation("pairs_visited") for sweep in sweeps) == sum(
        len(sqls) * (len(sqls) - 1) // 2 for sqls in touched) > 0
    assert sum(sweep.annotation("sessions_stale") for sweep in sweeps) == sum(
        any(stale([first, second]) for position, first in enumerate(sqls)
            for second in sqls[position + 1:]) for sqls in touched) > 0
    assert {(entry.uid, entry.k) for entry, _ in repairs} == {
        key for key, predicates in answers.items()
        if any(stale([predicate]) for predicate in predicates)} != set()

    masks.clear()
    report = surface.insert_tuples(
        [Paper(pid=90_005, title="No author", venue=venues[0], year=hi)])
    assert masks == [] and before - sweepable_keys(surface) == dropped
    assert report.joined_rows == report.index_entries_dropped == 0
    assert report.results_spared == sum(
        len(shard.results) for shard in surface.shard_servers) > 0


def test_untouched_sessions_cost_one_lookup_per_preference(surface, monkeypatch):
    """Work gate, by counting: a mutation no resident preference can match —
    a venue, a year and an author nobody mentions — looks up one mask per
    preference per session (two for a year range: one per conjunct) and
    visits no pair; nothing is dropped, no session is stale."""
    uids = REPLAY.uids()
    Telemetry().observe(surface)
    for uid in uids:
        surface.top_k(uid, K)
    before = sweepable_keys(surface)
    indexes = resident_indexes(surface)
    report = surface.insert_tuples(
        [Paper(pid=90_006, title="Elsewhere", venue="NOWHERE", year=1900)],
        paper_authors=[(90_006, 999_999)])
    sweeps = [record for record in surface.telemetry.traces.snapshot()[-1].walk()
              if record.name == "server.on_data_mutation"]
    assert [sweep.annotation("rows") for sweep in sweeps] == [1] * surface.shards
    assert all(sweep.annotation("pairs_visited") == 0 ==
               sweep.annotation("sessions_stale") for sweep in sweeps)
    assert all(sweep.annotation("predicate_row_tests") ==
               sweep.annotation("distinct_predicates") > 0 for sweep in sweeps)
    assert report.index_entries_dropped == 0
    assert sweepable_keys(surface) == before
    assert len(indexes) == len(uids)

    match = RowMatch(surface.db.joined_rows([90_006]))
    masks = count_calls(monkeypatch, RowMatch, "mask")
    for index in indexes:
        assert index.invalidate_matching(match) == 0
        assert len(masks) == sum(
            2 if isinstance(pref.predicate, And) else 1
            for pref in index.preferences) >= len(index.preferences) > 1
        assert (index.pairs_visited, index.stale) == (0, False)
        masks.clear()


def test_may_match_row_has_one_calling_module():
    """A fifth private relevance loop is a deliberate edit of this test."""
    src = Path(selectivity.__file__).parents[1]
    callers = [path.relative_to(src).as_posix() for path in src.rglob("*.py")
               if "may_match_row(" in path.read_text(encoding="utf-8")]
    assert callers == ["index/selectivity.py"]


def test_one_script_same_answers_totals_and_metric_names(backend):
    transcripts, names = {}, {}
    for label, build in SURFACES.items():
        db = ReplayDriver(REPLAY).build_world(DBLP, backend=backend)
        with build(db) as engine:
            transcripts[label] = run_script(engine)
            names[label] = {name for name in engine.metrics()
                            if not name.startswith("serving.cluster.")}
        db.close()
    assert transcripts["cluster-1"] == transcripts["server"]
    assert transcripts["cluster-3"] == transcripts["server"]
    assert names["cluster-1"] == names["server"]
    assert names["cluster-3"] == names["server"]


def test_closed_surface_refuses_instead_of_serving_stale(surface):
    """``close()`` is terminal: exact or refuse.

    The parent behaviour this pins against: after ``close()`` the listener
    is gone, yet ``top_k`` kept computing *and materialising* answers and
    ``delete_tuples`` committed while invalidating nothing — so ``close();
    top_k(u); delete_tuples([top pid]); top_k(u)`` served the deleted tuple
    as a cache hit.
    """
    uid = REPLAY.uids()[0]
    top_pid = surface.top_k(uid, K).ranking[0][0]
    surface.close()
    assert len(surface.results) == 0
    with pytest.raises(ServingError, match="server is closed"):
        surface.top_k(uid, K)
    with pytest.raises(ServingError, match="server is closed"):
        surface.delete_tuples([top_pid])
    with pytest.raises(ServingError, match="server is closed"):
        surface.top_k(uid, K)
    # The refused delete committed nothing, and no other door is open either.
    assert top_pid in surface.db.paper_ids()
    with pytest.raises(ServingError, match="server is closed"):
        surface.update_profile(uid, UserProfile(uid=uid))
    with pytest.raises(ServingError, match="server is closed"):
        surface.insert_tuples(
            [Paper(pid=90_002, title="Late", venue="V0", year=2012)])
    with pytest.raises(ServingError, match="server is closed"):
        surface.update_tuples(
            [Paper(pid=top_pid, title="Late", venue="V0", year=2012)])
    surface.close()  # idempotent


# -- served == fresh_top_k under profile updates --------------------------------
#
# The first rules of the stateful oracle (ROADMAP item 3): each takes the
# surface, a seeded rng and one user's state — ``uid`` plus the predicates and
# qualitative pairs the user has stated so far — and performs one step.
# Profile updates draw from the user's *own* predicates: the door generated
# schedules (``dblp.year``, which no mined preference mentions) never open.


def _state(surface, rng, user, predicate, over=None):
    """One profile update: ``predicate`` at a drawn intensity, or preferred
    ``over`` another predicate by it."""
    update = UserProfile(uid=user["uid"])
    if over is None:
        update.add_quantitative(predicate, rng.choice(INTENSITIES))
    else:
        update.add_qualitative(predicate, over, rng.choice(INTENSITIES))
    surface.update_profile(user["uid"], update)


def rule_restate_right_side(surface, rng, user):
    _state(surface, rng, user, rng.choice(user["pairs"])[1])


def rule_restate_left_side(surface, rng, user):
    _state(surface, rng, user, rng.choice(user["pairs"])[0])


def rule_duplicate_quantitative(surface, rng, user):
    _state(surface, rng, user, rng.choice(user["predicates"]))


def rule_edge_between_existing_nodes(surface, rng, user):
    left, right = rng.sample(user["predicates"], 2)
    _state(surface, rng, user, left, over=right)
    user["pairs"].append((left, right))


def rule_fresh_predicate(surface, rng, user):
    predicate = f"dblp.year >= {rng.randint(1990, 2012)}"
    _state(surface, rng, user, predicate)
    user["predicates"].append(predicate)


def rule_evict(surface, rng, user):
    surface.shard_for(user["uid"]).sessions.evict(user["uid"])


def rule_read(surface, rng, user):
    """Every step ends in a checked read; this one is only that."""


INTENSITIES = (0.15, 0.45, 0.75, 0.95)
RULES = (rule_restate_right_side, rule_restate_left_side,
         rule_duplicate_quantitative, rule_edge_between_existing_nodes,
         rule_fresh_predicate, rule_evict, rule_read)


def test_resident_session_matches_rebuilt_after_restating_update(surface):
    """Whichever door a preference came through, and whether or not the user
    was resident when it did, the surface serves ``fresh_top_k``.

    What this pins against: a resident session that folds an update in
    arrival order while a rebuild inserts all quantitative preferences
    before all qualitative ones — re-stating a predicate inside a mined
    qualitative chain then makes the two disagree.
    """
    db = surface.db
    mined = PreferenceExtractor(generate_dblp(DBLP)).extract_all()
    load_profiles(db, mined)
    profiles = [profile for profile in sorted(mined, key=lambda p: p.uid)
                if profile.qualitative and len(profile.predicates()) >= 2][:8]
    rng = random.Random(22)
    diverged = []
    for profile in profiles:
        user = {"uid": profile.uid, "predicates": profile.predicates(),
                "pairs": [(pair.left_sql, pair.right_sql)
                          for pair in profile.qualitative]}
        trail = ["cold"]
        for rule in [rule_read, rule_restate_right_side] + rng.choices(RULES, k=6):
            rule(surface, rng, user)
            trail.append(rule.__name__)
            served = list(surface.top_k(profile.uid, K).ranking)
            if served != fresh_top_k(db, profile.uid, K):
                diverged.append((profile.uid, tuple(trail)))
                break
    assert not diverged, f"{len(diverged)} of {len(profiles)} users diverged: {diverged[:3]}"


def test_update_then_read_counts_only_the_new_predicates_pairs(backend):
    """What *persist, drop, rebuild* costs, in counters: the read after an
    update that adds one predicate to a resident user's profile misses the
    shared count cache exactly for the AND-compatible pairs containing the
    new predicate — no pair of the old profile is counted again — in one
    count statement, and the only SQL the rebuild adds to that read is the
    two ``read_profiles`` statements (3 statements with the fold this
    replaced, 5 now)."""
    db = ReplayDriver(REPLAY).build_world(DBLP, backend=backend)
    mined = PreferenceExtractor(generate_dblp(DBLP)).extract_all()
    load_profiles(db, mined)
    uid = max(mined, key=lambda profile: len(profile.predicates())).uid
    with TopKServer(db, capacity=16) as server:
        server.top_k(uid, K)
        cache, runner = server.sessions.count_cache, server.sessions.runner
        old = server.sessions.peek(uid).algorithm().preferences
        assert len(old) > 10
        misses, statements = cache.misses, cache.statements
        queries = runner.queries_executed

        new = parse_predicate("dblp.year >= 1990")
        update = UserProfile(uid=uid)
        update.add_quantitative(new, 0.33)
        report = server.update_profile(uid, update)
        assert report.resident and report.sql_statements == 1
        assert uid not in server.sessions
        result = server.top_k(uid, K)

        assert list(result.ranking) == fresh_top_k(db, uid, K)
        new_pairs = sum(are_and_compatible(new, pref.predicate) for pref in old)
        assert 0 < new_pairs == cache.misses - misses
        assert cache.statements - statements == 1
        id_lists = runner.queries_executed - queries - new_pairs
        assert result.sql_statements == 2 + 1 + id_lists
        stats = server.sessions.stats()
        assert (stats["profile_drops"], stats["evictions"]) == (1, 0)
        assert stats["sessions_built"] == 2
    db.close()
