"""The serving front door: one ``TopKServer`` per storage backend.

Pins, on every registered storage backend: one mutation report type and
valid ``metrics()`` names for one fixed script whose every answer equals
``fresh_top_k``, a terminal ``close()``, and the fault contract's first
rules — a failed sweep or a cold read whose backend raises surfaces at the
door, is counted by kind and leaves nothing held, claimed or published.
Also pins the construction surface (every settable parameter, by name), the
lock set, and what a sweep guarantees: it judges relevance through one
``RowMatch`` — each distinct predicate once, the only ``exact_match_row``
calls it makes, repairs included — and renders no predicate.  Served ==
``fresh_top_k`` under every op, profile-update shape and fault is the state
machine's (``test_server_machine.py``).
"""

from __future__ import annotations

import inspect
import threading
from pathlib import Path

import pytest
from test_loadgen_concurrency import start_and_join
from test_peps_cold_path import count_calls

import repro.concurrency
import repro.index.selectivity as selectivity
from repro.backend import BACKEND_NAMES
from repro.cli import run_load, run_serve_replay, run_stats
from repro.loadgen import (LoadConfig, LoadGenerator, build_world,
                           load_population, population)
from repro.concurrency import TimedRLock
from repro.core.predicate import (And, Condition, Or, are_and_compatible,
                                  parse_predicate)
from repro.core.preference import UserProfile
from repro.exceptions import ServingError
from repro.algorithms.peps import PEPSAlgorithm
from repro.index import IncrementalPairIndex, RowMatch, may_match_row
from repro.serving import DataMutationReport, TopKServer, fresh_top_k
from repro.serving.results import CachedResult
from repro.serving.sessions import UserSession
from repro.telemetry import Telemetry, instrument_locks, validate_metric_name
from repro.workload import PreferenceExtractor, generate_dblp, load_profiles
from repro.workload.dblp import DblpConfig, Paper

DBLP = DblpConfig(n_papers=200, n_authors=60, n_venues=8, seed=7)
UIDS = population(8)
K = 4


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend(request):
    return request.param


# One server per backend; the ``server`` id keeps every test's name the same
# whichever backend list it runs over.
@pytest.fixture(params=["server"])
def surface(request, backend):
    db = build_world(DBLP, len(UIDS), backend)
    server = TopKServer(db, capacity=16)
    yield server
    server.close()
    db.close()


def run_script(server):
    """One fixed read/update/insert/update-tuples/delete script: every answer
    must equal a fresh recomputation, every door the one report type."""
    uids = UIDS
    venues, _, hi = server.db.workload_shape()

    def read_everyone():
        for uid in uids:
            result = server.top_k(uid, K)
            assert list(result.ranking) == fresh_top_k(server.db, uid, K)

    def mutated(report):
        assert type(report) is DataMutationReport
        return report

    read_everyone()
    read_everyone()
    update = UserProfile(uid=uids[0])
    update.add_quantitative(f"dblp.venue = '{venues[3]}'", 0.95)
    server.update_profile(uids[0], update)
    read_everyone()
    mutated(server.insert_tuples(
        [Paper(pid=90_001, title="Inserted", venue=venues[0], year=hi)],
        paper_authors=[(90_001, 1)]))
    read_everyone()
    mutated(server.update_tuples(
        [Paper(pid=90_001, title="Moved", venue=venues[1], year=hi - 1)]))
    read_everyone()
    top_pid = server.top_k(uids[1], K).ranking[0][0]
    mutated(server.delete_tuples([90_001, top_pid]))
    read_everyone()
    cached = len(server.results)
    noop = mutated(server.delete_tuples([999_999_999]))  # never notifies
    assert (noop.joined_rows, noop.results_invalidated,
            noop.index_entries_dropped) == (0, 0, 0)
    assert noop.results_spared == cached > 0


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
    """Every settable parameter of the serving constructor, of what a
    session is built from, of the one runner and the world it drives, and
    of the CLI's serving front doors, by name: a new option is a deliberate
    edit of this list, not a drive-by."""
    pinned = {
        IncrementalPairIndex: ["counter", "preferences"],
        UserSession: ["uid", "runner", "profile"],
        UserSession.algorithm: ["self"],
        PEPSAlgorithm: ["runner", "preferences", "approximate",
                        "max_combination_size", "max_combinations",
                        "pair_index"],
        run_load: ["scale", "users", "threads", "duration", "qps",
                   "backend", "seed", "k", "capacity", "audit_interval",
                   "output", "as_json", "telemetry", "family", "mix"],
        run_serve_replay: ["scale", "users", "requests", "k", "seed",
                           "capacity", "baseline", "read_weight",
                           "update_weight", "insert_weight", "delete_weight",
                           "data_update_weight", "as_json", "backend",
                           "telemetry", "family", "mix"],
        run_stats: ["scale", "users", "requests", "k", "seed", "capacity",
                    "backend", "prometheus", "slow_ms"],
        TopKServer: ["db", "capacity"],
        LoadConfig: ["threads", "duration_seconds", "requests", "target_qps",
                     "mix", "k", "seed", "audit_interval", "audit_sample"],
        LoadGenerator: ["config"],
        LoadGenerator.run: ["self", "target", "telemetry"],
        build_world: ["workload_config", "users", "backend",
                      "profile_factory"],
        load_population: ["db", "users", "profile_factory"],
        population: ["users"],
    }
    for target, names in pinned.items():
        assert list(inspect.signature(target).parameters) == names, target


def test_lock_set_is_pinned(surface):
    """Every lock ``instrument_locks`` may report, by name, all of the one
    shape ``repro.concurrency`` defines; a new lock is a deliberate edit of
    this list.  Restoring hands back every original object."""
    expected = ["server", "sessions", "count-cache", "result-cache"]
    cache = surface.sessions.count_cache
    swapped = [(owner, "_lock") for owner in (surface, surface.sessions,
                                               cache, surface.results)]
    swapped.append((cache, "_cond"))
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


def test_failed_sweep_propagates_and_leaves_nothing_held(surface):
    """A sweep that raises surfaces at the door that caused it, and by then
    every lock is released: cold reads and a further mutation, all from
    another thread, complete."""
    uids = UIDS

    def failing(mutation):
        raise RuntimeError("sweep failed")

    surface._sweep = failing
    with pytest.raises(RuntimeError, match="sweep failed"):
        surface.insert_tuples(
            [Paper(pid=90_004, title="Unswept", venue="V0", year=2012)])
    del surface._sweep  # the class's method again
    assert surface.metrics()[
        "serving.server.errors.insert_tuples.runtime_error"] == 1
    outcome = {}

    def read_everyone_then_mutate():
        outcome["cold"] = [surface.top_k(uid, K).cache_hit for uid in uids]
        outcome["report"] = surface.delete_tuples([90_004])

    start_and_join([threading.Thread(target=read_everyone_then_mutate,
                                     name="after-failed-sweep", daemon=True)])
    assert outcome["cold"] == [False] * len(uids)
    assert outcome["report"].papers == 1


def test_cold_read_whose_backend_raises_publishes_nothing(surface, monkeypatch):
    """Fault contract, first rule: a cold read whose backend raises while a
    resident-free user's session is built surfaces the error from
    ``top_k`` and leaves nothing behind — the server lock is free (another
    user's cold read from a second thread completes), no count is still
    claimed in flight, no answer is published and no session is resident.
    Once the backend answers again, the same read is exact."""
    uid, other = UIDS[:2]
    db, cache = surface.db, surface.sessions.count_cache
    calls = []

    def failing(predicates):
        calls.append(len(predicates))
        raise RuntimeError("backend down")

    monkeypatch.setattr(db, "count_many", failing)
    with pytest.raises(RuntimeError, match="backend down"):
        surface.top_k(uid, K)
    assert calls  # the failure came from the session build's pair counts
    assert surface.metrics()["serving.server.errors.top_k.runtime_error"] == 1
    monkeypatch.undo()

    outcome = {}
    start_and_join([threading.Thread(
        target=lambda: outcome.update(other=surface.top_k(other, K)),
        name="after-failed-cold-read", daemon=True)])
    assert list(outcome["other"].ranking) == fresh_top_k(db, other, K)
    assert cache._inflight == set()
    assert surface.results.peek(uid, K) is None
    assert uid not in surface.sessions
    served = surface.top_k(uid, K)
    assert not served.cache_hit
    assert list(served.ranking) == fresh_top_k(db, uid, K)


def sweepable_keys(surface):
    """Every key a data sweep can drop, as ``(kind, conjunct SQLs)``: the
    server owns its count and id-list stores; sessions hold none."""
    registry = surface.sessions
    return ({("count", key) for key in registry.count_cache._counts}
            | {("ids", key) for key in registry.runner._ids_cache})


def resident_indexes(surface):
    return [surface.sessions.peek(uid).index
            for uid in surface.sessions.resident_uids()]


def test_sweep_work_is_distinct_predicates_times_rows(surface, monkeypatch):
    """Work gate, by counting: with eight resident sessions sharing
    predicates, updating a multi-author paper costs distinct predicates x rows
    evaluations through one ``RowMatch`` per sweep and drops exactly what the
    plain loop, written out below, calls stale — judged conjunct by conjunct:
    no count or id-list key hands ``mask`` a conjunction to parse again, and a
    session pairs up only the preferences some row may match.  No rows, no
    work: an author-less insert notifies, yet no consumer walks the keys it
    holds."""
    db, uids = surface.db, UIDS
    Telemetry().observe(surface)
    ranked = [hit for uid in uids for hit in surface.top_k(uid, K).ranking]
    # Scoring above one intensity means matching a venue *and* a year
    # predicate: the pre-image alone stales a count, an id list and a session.
    pid = next(pid for pid, score in ranked
               if score > 0.9 and len(db.joined_rows([pid])) >= 2)
    answers = {(uid, K): surface.results.peek(uid, K).conjuncts
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
    (sweep,) = [record for record
                in surface.telemetry.traces.snapshot()[-1].walk()
                if record.name == "server.on_data_mutation"]
    assert len(built) == 1
    assert sweep.annotation("rows") == len(rows) >= 4
    assert asked == sweep.annotation("predicate_row_tests") == \
        sweep.annotation("distinct_predicates") * len(rows)
    # Every consumer's keys — counts, id lists, pairs and cached answers —
    # reach ``mask`` as conjunct texts, never whole.
    assert any(len(members) > 1 for _, members in before)
    assert all(isinstance(asked, str) for _, asked in masks)
    assert not any(isinstance(parse_predicate(asked), And)
                   for _, asked in masks)

    def stale(members):  # the plain loop: some row may match every member
        return any(all(may_match_row(predicate, row) for predicate in members)
                   for row in rows)

    dropped = before - sweepable_keys(surface)
    assert dropped == {key for key in before if stale(key[1])}
    assert {kind for kind, _ in dropped} == {"count", "ids"}
    assert report.index_entries_dropped == len(dropped)
    touched = [[pref.sql for pref in index.preferences if stale([pref.sql])]
               for index in resident_indexes(surface)]
    assert sweep.annotation("pairs_visited") == sum(
        len(sqls) * (len(sqls) - 1) // 2 for sqls in touched) > 0
    assert sweep.annotation("sessions_stale") == sum(
        any(stale([first, second]) for position, first in enumerate(sqls)
            for second in sqls[position + 1:]) for sqls in touched) > 0
    assert {(entry.uid, entry.k) for entry, *_ in repairs} == {
        key for key, conjuncts in answers.items()
        if any(stale(members) for members in conjuncts)} != set()

    masks.clear()
    report = surface.insert_tuples(
        [Paper(pid=90_005, title="No author", venue=venues[0], year=hi)])
    assert masks == [] and before - sweepable_keys(surface) == dropped
    assert report.joined_rows == report.index_entries_dropped == 0
    assert report.results_spared == len(surface.results) > 0


def test_sweep_renders_no_predicate(surface, monkeypatch):
    """Every key a sweep reads — a count, an id list, a pair, a cached
    answer's predicates — was rendered when it was stored: mutations that
    touch and repair cached answers render no predicate."""
    for uid in UIDS:
        surface.top_k(uid, K)
    renders = [count_calls(monkeypatch, cls, "to_sql")
               for cls in (Condition, And, Or)]
    venues, _, hi = surface.db.workload_shape()
    reports = [
        surface.insert_tuples(
            [Paper(pid=90_007, title="Fresh", venue=venues[0], year=hi)],
            paper_authors=[(90_007, 1)]),
        surface.update_tuples(
            [Paper(pid=90_007, title="Moved", venue=venues[1], year=hi)]),
        surface.delete_tuples([90_007])]
    assert sum(report.results_repaired for report in reports) > 0
    assert renders == [[], [], []]


def test_untouched_sessions_cost_one_lookup_per_preference(surface, monkeypatch):
    """Work gate, by counting: a mutation no resident preference can match —
    a venue, a year and an author nobody mentions — looks up one mask per
    preference per session (two for a year range: one per conjunct) and
    visits no pair; nothing is dropped, no session is stale."""
    uids = UIDS
    Telemetry().observe(surface)
    for uid in uids:
        surface.top_k(uid, K)
    before = sweepable_keys(surface)
    indexes = resident_indexes(surface)
    report = surface.insert_tuples(
        [Paper(pid=90_006, title="Elsewhere", venue="NOWHERE", year=1900)],
        paper_authors=[(90_006, 999_999)])
    (sweep,) = [record for record
                in surface.telemetry.traces.snapshot()[-1].walk()
                if record.name == "server.on_data_mutation"]
    assert sweep.annotation("rows") == 1
    assert sweep.annotation("pairs_visited") == 0 == \
        sweep.annotation("sessions_stale")
    assert sweep.annotation("predicate_row_tests") == \
        sweep.annotation("distinct_predicates") > 0
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


def calling_modules(name):
    src = Path(selectivity.__file__).parents[1]
    return [path.relative_to(src).as_posix() for path in src.rglob("*.py")
            if f"{name}(" in path.read_text(encoding="utf-8")]


def test_may_match_row_has_one_calling_module():
    """A fifth private relevance loop is a deliberate edit of this test."""
    assert calling_modules("may_match_row") == ["index/selectivity.py"]


def test_exact_match_row_has_one_calling_module():
    """One verdict per (predicate, row): only ``RowMatch`` judges a row, and
    the result cache's repair scores from its verdicts — so a sweep's
    ``exact_match_row`` calls equal its ``predicate_row_tests``."""
    assert calling_modules("exact_match_row") == ["index/selectivity.py"]


def test_closed_surface_refuses_instead_of_serving_stale(surface):
    """``close()`` is terminal: exact or refuse.

    The parent behaviour this pins against: after ``close()`` the listener
    is gone, yet ``top_k`` kept computing *and materialising* answers and
    ``delete_tuples`` committed while invalidating nothing — so ``close();
    top_k(u); delete_tuples([top pid]); top_k(u)`` served the deleted tuple
    as a cache hit.
    """
    uid = UIDS[0]
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


def test_update_then_read_counts_only_the_new_predicates_pairs(backend):
    """What *persist, drop, rebuild* costs, in counters: the read after an
    update that adds one predicate to a resident user's profile misses the
    shared count cache exactly for the AND-compatible pairs containing the
    new predicate — no pair of the old profile is counted again — in one
    count statement, and the only SQL the rebuild adds to that read is the
    two ``read_profiles`` statements (3 statements with the fold this
    replaced, 5 now)."""
    db = build_world(DBLP, len(UIDS), backend)
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
