"""The serving front door: one ``TopKServer`` per storage backend.

Pins, on every registered storage backend: one mutation report type and
valid ``metrics()`` names for one fixed script whose every answer equals
``fresh_top_k`` — built with no pair table and no count, as is a
four-thread load run — a terminal
``close()`` that waits out a parked cold read, and the fault contract's
first rules — a failed sweep or a cold read whose backend raises surfaces
at the door, is counted by kind and leaves nothing held or published, and a
subscriber raising ahead of the server's leaves nothing stale.
Also pins the construction surface (every settable parameter, by name), the
lock set, and what a sweep guarantees: it judges relevance through one
``RowMatch`` — each distinct predicate once, the only ``exact_match_row``
calls it makes, repairs included — and renders no predicate.  Served ==
``fresh_top_k`` under every op, profile-update shape and fault is the state
machine's (``test_server_machine.py``).
"""

from __future__ import annotations

import inspect
import re
import threading
from pathlib import Path

import pytest
from test_loadgen_concurrency import start_and_join
from test_peps_cold_path import count_calls

import repro.concurrency
import repro.index.selectivity as selectivity
from repro.backend import BACKEND_NAMES
from repro.cli import run_load, run_stats
from repro.loadgen import (LoadConfig, LoadGenerator, build_world,
                           load_population, population)
from repro.concurrency import TimedRLock
from repro.core.predicate import And, Condition, Or, parse_predicate
from repro.core.preference import UserProfile
from repro.exceptions import ServingError
from repro.algorithms.peps import PEPSAlgorithm
from repro.index import (CountCache, IncrementalPairIndex, RowMatch,
                         may_match_row)
from repro.serving import (DATA_UPDATE, DELETE, INSERT, READ, UPDATE,
                           DataMutationReport, OpMix, OpStream, TopKServer,
                           build_streams, fresh_top_k)
from repro.serving.results import CachedResult
from repro.serving.sessions import SessionRegistry
from repro.telemetry import Telemetry, instrument_locks, validate_metric_name
from repro.workload import PreferenceExtractor, generate_dblp, load_profiles
from repro.workload.loader import append_papers, delete_papers
from repro.workload.dblp import DblpConfig, Paper
from worlds import engine_world

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
    db = engine_world(backend, DBLP, len(UIDS))
    server = TopKServer(db)
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


def run_load_mix(server):
    """Four workers over every op kind with the background auditor live."""
    mix = OpMix(read_weight=2.0, update_weight=1.0, insert_weight=1.0,
                delete_weight=1.0, data_update_weight=1.0)
    report = LoadGenerator(LoadConfig(
        threads=4, requests=120, mix=mix, seed=31, k=K,
        audit_interval=0.01, audit_sample=4)).run(server)
    assert report.clean, (report.errors, report.audit)
    assert report.audit["audits"] >= 1
    assert all(report.kind_counts.get(kind, 0) > 0
               for kind in (READ, UPDATE, INSERT, DELETE, DATA_UPDATE)), \
        report.kind_counts


# The drive rides the ``surface`` id, ahead of the backend's, so the serial
# script's case is ``[server-<backend>]`` like every other test here.
@pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
@pytest.mark.parametrize("surface", ["server", "load"], indirect=True)
def test_serving_builds_no_pair_table_and_counts_nothing(surface, request,
                                                          monkeypatch):
    """Cold reads, profile updates and all three mutation kinds — and the
    ``fresh_top_k`` oracle behind every answer — build no pair index and
    count nothing: both raise here, and the run still serves exact.  The
    serial script and a four-thread load run with the auditor live both
    hold; the count cache is single-threaded because of it."""
    def refuse(*args, **kwargs):
        raise AssertionError("serving asked for a pair table or a count")

    monkeypatch.setattr(IncrementalPairIndex, "__init__", refuse)
    for name in ("count_many", "count_matching"):
        monkeypatch.setattr(surface.db, name, refuse)
    drive = {"server": run_script, "load": run_load_mix}
    drive[request.node.callspec.params["surface"]](surface)
    metrics = surface.metrics()
    assert metrics["index.count_cache.misses"] == 0
    assert metrics["index.count_cache.statements"] == 0


def test_construction_surface_is_pinned():
    """Every settable parameter of the serving constructor, of what a
    session is built from, of the one runner and the world it drives, and
    of the CLI's serving front doors, by name: a new option is a deliberate
    edit of this list, not a drive-by."""
    pinned = {
        IncrementalPairIndex: ["counter", "preferences"],
        SessionRegistry: ["db"],
        SessionRegistry.get_or_create: ["self", "uid"],
        PEPSAlgorithm: ["runner", "preferences", "approximate",
                        "max_combination_size", "max_combinations",
                        "pair_index"],
        run_load: ["scale", "users", "threads", "duration", "qps",
                   "seed", "k", "audit_interval",
                   "output", "as_json", "telemetry"],
        run_stats: ["scale", "users", "requests", "k", "seed",
                    "prometheus", "slow_ms"],
        # ``capacity`` is accepted and ignored: only the end-to-end
        # benchmark's world passes it (see the test below).
        TopKServer: ["db", "capacity"],
        LoadConfig: ["threads", "duration_seconds", "requests", "target_qps",
                     "mix", "k", "seed", "audit_interval", "audit_sample"],
        LoadGenerator: ["config"],
        LoadGenerator.run: ["self", "target", "telemetry"],
        OpMix: ["read_weight", "update_weight", "insert_weight",
                "delete_weight", "data_update_weight"],
        OpStream: ["db", "mix", "uids", "k", "seed", "worker"],
        build_streams: ["db", "workers", "mix", "uids", "k", "seed"],
        build_world: ["workload_config", "users"],
        load_population: ["db", "users"],
        population: ["users"],
    }
    for target, names in pinned.items():
        assert list(inspect.signature(target).parameters) == names, target


def test_only_the_e2e_world_passes_a_session_capacity():
    """No session is resident, so ``capacity=`` on ``TopKServer`` is a shim
    for the end-to-end benchmark's world alone: no other file passes it."""
    root = Path(__file__).resolve().parents[1]
    call = re.compile(r"TopKServer\((?:[^()]|\([^()]*\))*\bcapacity\s*=")
    files = [root / "README.md"] + [
        path for folder in ("src", "tests", "benchmarks", "examples", "docs",
                            ".github")
        for pattern in ("*.py", "*.md", "*.yml")
        for path in (root / folder).rglob(pattern)]
    passing = sorted(path.relative_to(root).as_posix() for path in files
                     if call.search(path.read_text(encoding="utf-8")))
    assert passing and all(path.startswith("benchmarks/e2e/")
                           for path in passing), passing


def test_lock_set_is_pinned(surface):
    """Every lock ``instrument_locks`` may report, by name, all of the one
    shape ``repro.concurrency`` defines; a new lock is a deliberate edit of
    this list.  Restoring hands back every original object."""
    expected = ["server", "result-cache"]
    swapped = [(owner, "_lock") for owner in (surface, surface.results)]
    originals = [getattr(owner, name) for owner, name in swapped]

    handle = instrument_locks(surface)
    records = handle.report()
    assert sorted(record["name"] for record in records) == sorted(expected)
    assert {record["kind"] for record in records} == {"rlock"}
    assert all(isinstance(getattr(owner, name), TimedRLock)
               for owner, name in swapped)
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
    """Fault contract, first rule: a cold read whose backend raises while it
    fetches a user's id lists surfaces the error from ``top_k`` and leaves
    nothing behind — the server lock is free (another user's cold read from
    a second thread completes), no id list is memoised and no answer is
    published.  Once the backend answers again, the same read is exact."""
    uid, other = UIDS[:2]
    db, runner = surface.db, surface.sessions.runner
    calls = []

    def failing(predicate):
        calls.append(predicate)
        raise RuntimeError("backend down")

    monkeypatch.setattr(db, "matching_paper_ids", failing)
    with pytest.raises(RuntimeError, match="backend down"):
        surface.top_k(uid, K)
    assert calls  # the failure came from the fold's first id list
    assert surface.metrics()["serving.server.errors.top_k.runtime_error"] == 1
    monkeypatch.undo()
    assert runner._ids_cache == {}

    outcome = {}
    start_and_join([threading.Thread(
        target=lambda: outcome.update(other=surface.top_k(other, K)),
        name="after-failed-cold-read", daemon=True)])
    assert list(outcome["other"].ranking) == fresh_top_k(db, other, K)
    assert surface.results.peek(uid, K) is None
    served = surface.top_k(uid, K)
    assert not served.cache_hit
    assert list(served.ranking) == fresh_top_k(db, uid, K)


def test_raising_subscriber_ahead_of_the_server_leaves_nothing_stale(backend):
    """Fault contract: a ``DataMutation`` subscriber registered before the
    server that raises must not keep the server's sweep from running.
    Direct loader writes behind it raise its error, yet every answer cached
    before them is repaired or dropped: served == ``fresh_top_k``."""
    db = engine_world(backend, DBLP, len(UIDS))

    def raising(mutation):
        raise RuntimeError("subscriber failed")

    db.subscribe(raising)
    with TopKServer(db) as server:
        tops = [server.top_k(uid, K).ranking[0][0] for uid in UIDS]
        pid = db.max_paper_id()
        for top in tops:
            rows = db.joined_rows([top])
            pid += 1
            clone = Paper(pid=pid, title="Clone", venue=rows[0]["venue"],
                          year=rows[0]["year"])
            with pytest.raises(RuntimeError, match="subscriber failed"):
                append_papers(db, [clone], [(pid, row["aid"]) for row in rows])
        with pytest.raises(RuntimeError, match="subscriber failed"):
            delete_papers(db, tops[:2])
        for uid in UIDS:
            assert list(server.top_k(uid, K).ranking) == fresh_top_k(db, uid, K)
    db.close()


def test_close_racing_a_cold_read_waits_then_refuses(surface, monkeypatch):
    """Fault contract: ``close()`` from one thread while another's cold read
    is parked in its id-list fetch waits for that read, then closes — the
    read's answer does not outlive the close, and the next read refuses."""
    uid, db = UIDS[0], surface.db
    inside, release, closed = (threading.Event(), threading.Event(),
                               threading.Event())
    fetch = db.matching_paper_ids

    def blocking(predicate):
        inside.set()
        assert release.wait(60)
        return fetch(predicate)

    monkeypatch.setattr(db, "matching_paper_ids", blocking)
    outcome = {}

    def read():
        outcome["read"] = surface.top_k(uid, K)

    def close():
        assert inside.wait(60)
        surface.close()
        closed.set()

    def watch():
        assert inside.wait(60)
        # The close has been asked for; while the read is parked it must
        # not return.
        outcome["closed_while_parked"] = closed.wait(0.2)
        release.set()

    start_and_join([threading.Thread(target=target, name=name, daemon=True)
                    for name, target in (("cold-read", read), ("close", close),
                                         ("watch", watch))])
    monkeypatch.undo()
    assert outcome["closed_while_parked"] is False and closed.is_set()
    assert not outcome["read"].cache_hit
    assert list(outcome["read"].ranking) == fresh_top_k(db, uid, K)
    assert len(surface.results) == 0
    with pytest.raises(ServingError, match="server is closed"):
        surface.top_k(uid, K)


def sweepable_keys(surface):
    """Every key a data sweep can patch or drop, as conjunct SQLs: the
    server's one id-list memo; sessions hold none."""
    return set(surface.sessions.runner._ids_cache)


def test_sweep_work_is_distinct_predicates_times_rows(surface, monkeypatch):
    """Work gate, by counting: with eight resident sessions sharing
    predicates, updating a multi-author paper costs distinct predicates x rows
    evaluations through one ``RowMatch`` per sweep and patches or drops
    exactly what the plain loop, written out below, calls stale — dropping
    only a list some post-image row may match but cannot be decided
    against — judged conjunct by conjunct: no id-list key hands ``mask`` a conjunction to parse again.  No rows, no
    work: an author-less insert notifies, yet no consumer walks the keys it
    holds."""
    db, uids = surface.db, UIDS
    Telemetry().observe(surface)
    ranked = [hit for uid in uids for hit in surface.top_k(uid, K).ranking]
    # Scoring above one intensity means matching a venue *and* a year
    # predicate: the pre-image alone stales an id list and a cached answer.
    pid = next(pid for pid, score in ranked
               if score > 0.9 and len(db.joined_rows([pid])) >= 2)
    answers = {(uid, K): surface.results.peek(uid, K).conjuncts
               for uid in uids}
    entries = {key: surface.results.peek(*key) for key in answers}
    before = sweepable_keys(surface)
    judged = count_calls(monkeypatch, selectivity, "exact_match_row")
    built = count_calls(monkeypatch, RowMatch, "__init__")
    # ``apply_delta`` runs on affected answers only, and on every answer
    # whose buffer changed.
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
    # Every consumer's keys — id lists and cached answers — reach ``mask``
    # as conjunct texts, never whole.
    assert any(len(members) > 1 for members in before)
    assert all(isinstance(asked, str) for _, asked in masks)
    assert not any(isinstance(parse_predicate(asked), And)
                   for _, asked in masks)

    def stale(members):  # the plain loop: some row may match every member
        return any(all(may_match_row(predicate, row) for predicate in members)
                   for row in rows)

    def undecidable(members):  # a post row may match, not surely
        return any(all(may_match_row(predicate, row) for predicate in members)
                   and not all(selectivity.exact_match_row(predicate, row)
                               for predicate in members)
                   for row in db.joined_rows([pid]))

    reference = {key for key in before if stale(key)}
    dropped = before - sweepable_keys(surface)
    patched = reference & sweepable_keys(surface)
    assert patched | dropped == reference != set()
    assert dropped <= {key for key in before if undecidable(key)}
    assert report.index_entries_patched + report.index_entries_dropped == \
        len(reference)
    assert (sweep.annotation("id_lists_patched"),
            sweep.annotation("id_lists_dropped")) == (
        report.index_entries_patched, report.index_entries_dropped)
    applied = {(entry.uid, entry.k) for entry, *_ in repairs}
    changed = {key for key, entry in entries.items()
               if surface.results.peek(*key) is not entry}
    assert set() != changed <= applied <= {
        key for key, conjuncts in answers.items()
        if any(stale(members) for members in conjuncts)}

    masks.clear()
    report = surface.insert_tuples(
        [Paper(pid=90_005, title="No author", venue=venues[0], year=hi)])
    assert masks == [] and before - sweepable_keys(surface) == dropped
    assert report.joined_rows == report.index_entries_dropped == \
        report.index_entries_patched == 0
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


def test_unmatched_mutation_visits_no_entry(surface, monkeypatch):
    """Work gate, by counting: a mutation no held preference can match — a
    venue, a year and an author nobody mentions — visits no entry of either
    store (nothing asks ``shared``), judges no ``attr = literal`` key (its
    value reaches none of their buckets) and judges every other held key
    once per row: here the year-range conjuncts.  Nothing is dropped, no
    answer repaired."""
    uids = UIDS
    Telemetry().observe(surface)
    for uid in uids:
        surface.top_k(uid, K)
    before = sweepable_keys(surface)
    keys = {key for uid in uids
            for key in surface.results.peek(uid, K).conjuncts}
    assert before == keys
    held = set().union(*keys)
    generic = {conjunct for conjunct in held
               if not isinstance(parse_predicate(conjunct), Condition)
               or parse_predicate(conjunct).op != "="}
    assert generic and held - generic
    masks = count_calls(monkeypatch, RowMatch, "mask")
    shared = count_calls(monkeypatch, RowMatch, "shared")
    report = surface.insert_tuples(
        [Paper(pid=90_006, title="Elsewhere", venue="NOWHERE", year=1900)],
        paper_authors=[(90_006, 999_999)])
    (sweep,) = [record for record
                in surface.telemetry.traces.snapshot()[-1].walk()
                if record.name == "server.on_data_mutation"]
    rows = sweep.annotation("rows")
    assert rows == 1
    assert shared == []
    assert report.entries_visited == sweep.annotation("entries_visited") == 0
    # A year range's open side is live, its other side is not: no
    # preference has every conjunct live.
    (row,) = surface.db.joined_rows([90_006])
    assert sweep.annotation("keys_live") == len(
        [conjunct for conjunct in generic if may_match_row(conjunct, row)]) > 0
    assert {asked for _, asked in masks} == generic
    assert sweep.annotation("distinct_predicates") == len(generic)
    assert sweep.annotation("predicate_row_tests") == rows * len(generic)
    assert (report.index_entries_dropped, report.results_repaired) == (0, 0)
    assert sweepable_keys(surface) == before


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


def test_update_then_read_fetches_only_the_new_predicates_ids(backend):
    """What *persist, invalidate* costs, in counters: the read after an
    update that adds one predicate to a user's profile fetches one id list
    — the new predicate's; every old one is still memoised — counts
    nothing, and adds to that read only the two ``read_profiles``
    statements: 3 statements in all."""
    db = engine_world(backend, DBLP, len(UIDS))
    mined = PreferenceExtractor(generate_dblp(DBLP)).extract_all()
    load_profiles(db, mined)
    uid = max(mined, key=lambda profile: len(profile.predicates())).uid
    with TopKServer(db) as server:
        server.top_k(uid, K)
        runner = server.sessions.runner
        old = server.results.peek(uid, K).conjuncts
        assert len(old) > 10
        queries = runner.queries_executed

        new = parse_predicate("dblp.year >= 1990")
        assert CountCache.key(new) not in old
        update = UserProfile(uid=uid)
        update.add_quantitative(new, 0.33)
        report = server.update_profile(uid, update)
        assert report.sql_statements == 1
        assert server.results.peek(uid, K) is None
        result = server.top_k(uid, K)

        assert list(result.ranking) == fresh_top_k(db, uid, K)
        assert runner.queries_executed - queries == 1
        assert result.sql_statements == 2 + 1
        assert runner.count_cache.misses == runner.count_cache.hits == 0
        assert server.sessions.stats()["sessions_built"] == 2
    db.close()
