"""Concurrency stress tests: the serving stack under real thread contention.

Two layers of proof, each bounded by an explicit deadline (threads are
daemons and joined with a timeout, so a deadlock fails the test in seconds
instead of hanging the suite — the repo has no pytest-timeout plugin):

* **mixed load through the harness** — :class:`repro.loadgen.LoadGenerator`
  drives reads + every mutation kind concurrently on both storage backends
  with the background equivalence auditor live; the run must finish clean;
* **readers vs writers, frozen-copy equivalence** — hand-rolled reader and
  writer threads race on one server while the main thread repeatedly
  quiesces traffic through a :class:`~repro.loadgen.TrafficGate` and
  recomputes every materialised answer from scratch on the quiesced
  (frozen) database: no torn read may survive a quiesce point;

plus barrier-provoked regression tests for the invalidation races the
epoch guards in :class:`~repro.serving.results.ResultCache` and
:class:`~repro.index.count_cache.CountCache` exist to close: an
invalidation sweep landing *mid-computation* must prevent the stale answer
from being (re-)cached after the sweep.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.predicate import equals
from repro.index import CountCache, RowMatch
from repro.loadgen import LoadConfig, LoadGenerator, TrafficGate
from repro.serving import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    READ,
    UPDATE,
    OpMix,
    OpStream,
    TopKServer,
    apply_op,
)
from repro.serving.results import ResultCache
from repro.serving.server import fresh_top_k
from repro.telemetry import Telemetry
from repro.workload.dblp import DblpConfig
from worlds import engine_world

#: Upper bound on any single concurrent phase; generous on purpose — it
#: only ever bites when something deadlocks.
DEADLINE_SECONDS = 60.0

DBLP = DblpConfig(n_papers=180, n_authors=80, n_venues=8, seed=11)
USERS = 16
K = 5


@pytest.fixture(params=("sqlite", "memory"))
def backend(request):
    return request.param


@pytest.fixture()
def world(backend):
    db = engine_world(backend, DBLP, USERS)
    yield db
    db.close()


def join_with_deadline(threads, timeout=DEADLINE_SECONDS):
    """Join daemon ``threads``; returns the names still alive at timeout."""
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.1, deadline - time.monotonic()))
    return [thread.name for thread in threads if thread.is_alive()]


def start_and_join(threads, timeout=DEADLINE_SECONDS):
    for thread in threads:
        thread.start()
    stuck = join_with_deadline(threads, timeout)
    assert not stuck, f"threads still running at the deadline: {stuck}"


def test_join_with_deadline_detects_a_hung_thread():
    """The suite's deadlock guard itself: a stuck thread is reported, the
    test process is not wedged (daemon threads die with the process)."""
    release = threading.Event()
    hung = threading.Thread(target=release.wait, name="hung", daemon=True)
    hung.start()
    assert join_with_deadline([hung], timeout=0.2) == ["hung"]
    release.set()
    assert join_with_deadline([hung], timeout=5.0) == []


# -- mixed load through the harness ------------------------------------------


def test_mixed_load_finishes_clean_under_contention(world):
    """Reads + all mutation kinds, 3 threads, auditor live: clean finish."""
    server = TopKServer(world)
    config = LoadConfig(threads=3, duration_seconds=1.0, seed=31,
                        k=K, audit_interval=0.25,
                        audit_sample=6)
    outcome = {}

    def run():
        outcome["report"] = LoadGenerator(config).run(server)

    try:
        start_and_join([threading.Thread(target=run, name="loadgen-run",
                                         daemon=True)])
    finally:
        server.close()
    report = outcome["report"]
    assert report.clean, (report.errors, report.audit)
    assert report.ops > 0
    assert report.audit["audits"] >= 1
    # Every mutation kind actually ran against the server.
    for kind in (UPDATE, INSERT, DELETE, DATA_UPDATE):
        assert report.kind_counts[kind] > 0, f"no {kind} ops in the mix"
    assert report.kind_counts[READ] > 0


# -- readers vs writers: no torn reads ---------------------------------------


def test_readers_and_writers_no_torn_reads(world):
    """2 writers + 2 readers race; every quiesce point must find every
    materialised ranking equal to a from-scratch recomputation on the
    frozen (quiesced) database."""
    server = TopKServer(world)
    uids = sorted(profile.uid for profile in world.read_profiles())
    gate = TrafficGate()
    stop = threading.Event()
    errors = []

    def worker(stream):
        try:
            while not stop.is_set():
                op = next(stream)
                with gate.request():
                    apply_op(server, op)
        except Exception as exc:
            errors.append(f"{stream.worker_id}: {type(exc).__name__}: {exc}")

    write_only = OpMix(read_weight=0.0, update_weight=1.0,
                       insert_weight=1.0, delete_weight=0.5,
                       data_update_weight=0.5)
    read_only = OpMix(read_weight=1.0, update_weight=0.0,
                      insert_weight=0.0, delete_weight=0.0,
                      data_update_weight=0.0)
    streams = [
        OpStream(world, mix, uids, K, seed=31, worker=worker_id)
        for worker_id, mix in enumerate([write_only, write_only,
                                         read_only, read_only])]
    threads = [threading.Thread(target=worker, args=(stream,),
                                name=f"rw-{stream.worker_id}", daemon=True)
               for stream in streams]
    for thread in threads:
        thread.start()

    torn = []
    try:
        deadline = time.monotonic() + 1.2
        quiesce_points = 0
        while time.monotonic() < deadline:
            time.sleep(0.15)
            with gate.quiesce():
                quiesce_points += 1
                for uid in server.results.cached_users():
                    entry = server.results.peek(uid, K)
                    if entry is None:
                        continue
                    fresh = fresh_top_k(world, uid, K)
                    if list(entry.ranking) != list(fresh):
                        torn.append((uid, list(entry.ranking), list(fresh)))
    finally:
        stop.set()
        stuck = join_with_deadline(threads)
        server.close()
    assert not stuck, f"reader/writer threads deadlocked: {stuck}"
    assert not errors, errors
    assert not torn, f"torn reads survived a quiesce point: {torn[:3]}"
    assert quiesce_points >= 2


# -- invalidation-race regressions -------------------------------------------


class TestInvalidationRaceRegression:
    """Mid-computation invalidation must never let a stale entry re-cache."""

    def test_result_cache_refuses_put_after_mid_compute_sweep(self):
        """Thread A snapshots the epoch and 'computes'; thread B runs an
        invalidation sweep in the window; A's put must be refused."""
        cache = ResultCache()
        computed = threading.Barrier(2, timeout=DEADLINE_SECONDS)
        swept = threading.Barrier(2, timeout=DEADLINE_SECONDS)
        outcome = {}

        def compute_and_put():
            epoch = cache.epoch  # snapshot before reading any data
            ranking = ((1, 0.9), (2, 0.5))  # "computed" from pre-sweep data
            computed.wait()  # hand the window to the invalidator...
            swept.wait()     # ...and resume only after the sweep ran
            outcome["entry"] = cache.put(7, 2, ranking, True, (), (),
                                         epoch=epoch)

        def invalidate():
            computed.wait()
            cache.invalidate_user(7)
            swept.wait()

        start_and_join([
            threading.Thread(target=compute_and_put, name="putter",
                             daemon=True),
            threading.Thread(target=invalidate, name="sweeper", daemon=True)])

        assert outcome["entry"] is None, "stale put was accepted"
        assert cache.get(7, 2) is None
        assert cache.stats()["stale_puts_rejected"] == 1

    def test_result_cache_put_without_race_is_accepted(self):
        cache = ResultCache()
        epoch = cache.epoch
        assert cache.put(7, 2, ((1, 0.9),), True, (), (),
                         epoch=epoch) is not None
        assert cache.peek(7, 2) is not None
        assert cache.stats()["stale_puts_rejected"] == 0

    def test_count_cache_does_not_memoise_across_invalidation(self):
        """The backend round-trip runs with the lock released; a sweep
        landing inside that window must keep the result out of the cache."""
        predicate = equals("venue", "VLDB")
        in_query = threading.Event()
        release_query = threading.Event()
        answers = iter([41, 42])

        class BlockingBackend:
            def count_matching(self, _predicate):
                in_query.set()
                assert release_query.wait(DEADLINE_SECONDS)
                return next(answers)

        cache = CountCache(BlockingBackend())
        outcome = {}

        def count():
            outcome["value"] = cache.count(predicate)

        counter = threading.Thread(target=count, name="counter", daemon=True)
        counter.start()
        assert in_query.wait(DEADLINE_SECONDS)
        # The relation changes while the count query is in flight.
        cache.invalidate_matching(RowMatch([{"venue": "VLDB"}]))
        release_query.set()
        assert join_with_deadline([counter]) == []

        assert outcome["value"] == 41  # the caller still gets its answer...
        assert cache.peek(predicate) is None  # ...but it was not memoised
        release_query.set()
        assert cache.count(predicate) == 42  # a fresh query, not 41 replayed
        assert cache.misses == 2

    def test_count_cache_memoises_without_a_sweep(self):
        class CountingBackend:
            calls = 0

            def count_matching(self, _predicate):
                type(self).calls += 1
                return 17

        cache = CountCache(CountingBackend())
        predicate = equals("venue", "SIGMOD")
        assert cache.count(predicate) == 17
        assert cache.count(predicate) == 17
        assert CountingBackend.calls == 1
        assert cache.peek(predicate) == 17


# -- striping regressions ------------------------------------------------------


class TestOneLockServing:
    """The one-lock protocol, provoked by parking a request inside the
    lock: cold computes never overlap, the put happens under the lock (so
    no sweep can slip between a compute and its put), and in-place repair
    sweeps never resurrect entries a mutation dropped."""

    def test_cold_computes_never_overlap(self, world):
        """A cold read parked inside its compute keeps a second user's cold
        read out until it finishes; the second one's trace shows the wait."""
        server = TopKServer(world)
        telemetry = Telemetry()
        telemetry.observe(server)
        inside, release = threading.Event(), threading.Event()
        try:
            uid_a, uid_b = sorted(
                profile.uid for profile in world.read_profiles())[:2]
            original = server.sessions.get_or_create
            events = []

            def parking(uid):
                events.append(("enter", uid))
                if uid == uid_a:
                    inside.set()
                    assert release.wait(DEADLINE_SECONDS)
                session = original(uid)
                events.append(("exit", uid))
                return session

            server.sessions.get_or_create = parking
            outcome, errors = {}, []

            def read(uid):
                try:
                    outcome[uid] = server.top_k(uid, K)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(f"{uid}: {type(exc).__name__}: {exc}")

            readers = {uid: threading.Thread(target=read, args=(uid,),
                                             daemon=True, name=f"cold-{uid}")
                       for uid in (uid_a, uid_b)}
            readers[uid_a].start()
            assert inside.wait(DEADLINE_SECONDS)
            readers[uid_b].start()
            time.sleep(0.2)
            assert ("enter", uid_b) not in events
            release.set()
            assert join_with_deadline(list(readers.values())) == []
            server.sessions.get_or_create = original

            assert not errors, errors
            assert events == [("enter", uid_a), ("exit", uid_a),
                              ("enter", uid_b), ("exit", uid_b)]
            for uid in (uid_a, uid_b):
                assert not outcome[uid].cache_hit
                assert list(outcome[uid].ranking) \
                    == fresh_top_k(world, uid, K)
            record = next(record for record in telemetry.traces.snapshot()
                          if record.name == "server.top_k"
                          and record.annotation("uid") == uid_b)
            assert record.find("server.lock_wait").seconds >= 0.15
        finally:
            release.set()
            server.close()

    def test_put_happens_under_the_lock(self, world):
        """While a cold read's put is parked, neither a second reader of the
        same user nor a data mutation gets in: the window between compute
        and put that the epoch guard used to cover no longer exists."""
        server = TopKServer(world)
        ready, proceed = threading.Event(), threading.Event()
        try:
            uid = sorted(profile.uid
                         for profile in world.read_profiles())[0]
            original_put = server.results.put

            def stalled_put(*args, **kwargs):
                if not ready.is_set():
                    ready.set()
                    assert proceed.wait(DEADLINE_SECONDS)
                return original_put(*args, **kwargs)

            server.results.put = stalled_put
            outcome, errors = {}, []

            def run(name, call):
                try:
                    outcome[name] = call()
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")

            def thread(name, call):
                return threading.Thread(target=run, args=(name, call),
                                        daemon=True, name=name)

            first = thread("first", lambda: server.top_k(uid, K))
            first.start()
            assert ready.wait(DEADLINE_SECONDS)
            stale_before = server.results.stats()["stale_puts_rejected"]
            pid = world.max_paper_id() + 1
            waiters = [
                thread("second", lambda: server.top_k(uid, K)),
                thread("insert", lambda: server.insert_tuples(
                    [{"pid": pid, "title": "mid-put insert",
                      "venue": "VLDB", "year": 2015, "aids": [1]}]))]
            for waiter in waiters:
                waiter.start()
            time.sleep(0.2)
            assert set(outcome) == set() and not errors
            proceed.set()
            assert join_with_deadline([first] + waiters) == []
            server.results.put = original_put

            assert not errors, errors
            assert server.sessions.stats()["sessions_built"] == 1
            report = outcome["insert"]
            assert (report.results_repaired + report.results_invalidated
                    + report.results_spared) >= 1
            assert server.results.stats()["stale_puts_rejected"] \
                == stale_before
            for cached_uid in server.results.cached_users():
                entry = server.results.peek(cached_uid, K)
                assert list(entry.ranking) \
                    == fresh_top_k(world, cached_uid, K)
        finally:
            proceed.set()
            server.close()

    def test_repair_sweeps_never_resurrect_dropped_entries(self, world):
        """Deletes land while readers hammer the server; after the dust
        settles no cached ranking may contain a dropped paper, and every
        survivor must equal the from-scratch oracle."""
        server = TopKServer(world)
        try:
            uids = sorted(profile.uid for profile in world.read_profiles())
            for uid in uids:
                server.top_k(uid, K)
            dropped = set()
            stop = threading.Event()
            errors = []

            def hammer(worker):
                generator = random.Random(worker)
                try:
                    while not stop.is_set():
                        server.top_k(generator.choice(uids), K)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(f"{worker}: {type(exc).__name__}: {exc}")

            readers = [threading.Thread(target=hammer, args=(worker,),
                                        daemon=True, name=f"reader-{worker}")
                       for worker in range(3)]
            for thread in readers:
                thread.start()
            try:
                for _ in range(4):
                    victims = set()
                    for uid in uids:
                        entry = server.results.peek(uid, K)
                        if entry is not None and entry.ranking:
                            victims.add(entry.ranking[0][0])
                        if len(victims) >= 2:
                            break
                    victims -= dropped
                    if not victims:
                        break
                    server.delete_tuples(sorted(victims))
                    dropped |= victims
            finally:
                stop.set()
                assert join_with_deadline(readers) == []
            assert not errors, errors
            assert dropped, "no cached paper was ever deleted"

            for uid in uids:
                entry = server.results.peek(uid, K)
                if entry is None:
                    continue
                cached_pids = {pid for pid, _score in entry.ranking}
                assert not (cached_pids & dropped), (
                    f"uid {uid}: dropped papers resurrected: "
                    f"{sorted(cached_pids & dropped)}")
                assert list(entry.ranking) \
                    == fresh_top_k(world, uid, K)
        finally:
            server.close()
