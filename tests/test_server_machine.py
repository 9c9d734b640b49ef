"""The one oracle: what a ``TopKServer`` serves equals ``fresh_top_k``.

A Hypothesis state machine over one server on a small DBLP world, once per
backend.  Rules: the five op kinds (drawn by Hypothesis, not ``OpStream``),
close-and-reopen, the five profile-update shapes and three faults.
After every step every read, and every answer still materialised, equals
``fresh_top_k``, and no repair ran SQL.  Concurrent interleavings are the
load auditor's job; ``test_engines_report_alike`` compares the two engines.
``HYPOTHESIS_PROFILE=ci`` runs ten times the examples.  See "One oracle" in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import threading
from itertools import islice

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)
from test_loadgen_concurrency import start_and_join

from repro.backend import create_backend
from repro.core.preference import UserProfile
from repro.loadgen import load_population, population
from repro.serving import (DATA_UPDATE, DELETE, INSERT, READ, UPDATE, Op,
                           OpMix, TopKServer, apply_op, build_streams,
                           fresh_top_k)
from repro.serving.ops import audit_materialised, venue_predicate
from repro.workload import (PreferenceExtractor, generate_dblp, load_dataset,
                            load_profiles)
from repro.workload.dblp import DblpConfig, Paper
from worlds import engine_world

BACKENDS = ("sqlite", "memory")
DBLP = DblpConfig(n_papers=120, n_authors=40, n_venues=6, seed=7)
DATASET = generate_dblp(DBLP)
VENUES = sorted({paper.venue for paper in DATASET.papers})
K = 4
#: Three mined users with qualitative pairs, beside three population users.
MINED = [profile for profile in sorted(
    PreferenceExtractor(DATASET).extract_all(), key=lambda p: p.uid)
    if profile.uid in (20, 30, 33)]
POPULATION = 3
UIDS = [profile.uid for profile in MINED] + population(POPULATION)
INTENSITIES = st.sampled_from((0.15, 0.45, 0.75, 0.95))
PICK = st.integers(0, 10_000)  # an index, resolved modulo a live list
#: Examples per backend: a fifth of the loaded profile's (20 by default).
MACHINE = settings(max_examples=settings.default.max_examples // 5,
                   stateful_step_count=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class InjectedFault(RuntimeError):
    """What a :class:`FaultyBackend` raises."""


class FaultyBackend:
    """A real backend that, once armed, raises once: before the next write
    reaches the engine (``commit``), after its commit before any listener
    runs (``notify``), or before the next listener call (``subscriber``)."""

    PLACES = ("commit", "notify", "subscriber")
    WRITES = ("append_papers", "delete_papers", "update_papers",
              "load_profiles")

    def __init__(self, db):
        self._db = db
        self._listeners = {}
        self.armed = None
        self.fired = 0
        # The engines' own write bodies call ``self.notify``.
        self._deliver, db.notify = db.notify, self._notify

    def _fire(self, place):
        if self.armed == place:
            self.armed = None
            self.fired += 1
            raise InjectedFault(place)

    def __getattr__(self, name):
        attribute = getattr(self._db, name)
        if name not in self.WRITES:
            return attribute

        def write(*args, **kwargs):
            self._fire("commit")
            return attribute(*args, **kwargs)
        return write

    def _notify(self, mutation):
        self._fire("notify")
        self._deliver(mutation)

    def subscribe(self, listener):
        def guarded(mutation):
            self._fire("subscriber")
            listener(mutation)
        self._listeners[listener] = self._db.subscribe(guarded)
        return listener

    def unsubscribe(self, listener):
        self._db.unsubscribe(self._listeners.pop(listener, listener))


class ServerMachine(RuleBasedStateMachine):
    """One server, one world; ``backend`` is set per run."""

    backend = "sqlite"

    def __init__(self):
        super().__init__()
        self.real = create_backend(self.backend)
        load_dataset(self.real, DATASET)
        load_population(self.real, POPULATION)
        load_profiles(self.real, MINED)
        self.db = FaultyBackend(self.real)
        self.server = TopKServer(self.db)
        # Each user's own predicates and qualitative pairs, as stated so far.
        self.users = {profile.uid: {
            "predicates": profile.predicates(),
            "pairs": [(pair.left_sql, pair.right_sql)
                      for pair in profile.qualitative]}
            for profile in self.real.read_profiles()}
        self.next_pid = self.real.max_paper_id() + 1
        self.served = []   # (uid, ranking) read since the last check
        self.reports = []  # data-mutation reports since the last check
        self.fresh = {}    # uid -> fresh_top_k, until the next write

    def teardown(self):
        self.server.close()
        self.real.close()

    # -- applying ------------------------------------------------------------

    def apply(self, op):
        if op.kind != READ:
            self.fresh.clear()
        outcome = apply_op(self.server, op)
        if op.kind == READ:
            self.served.append((op.uid, list(outcome.ranking)))
        elif op.kind != UPDATE:
            self.reports.append(outcome)

    def pick_pids(self, picks, hot):
        """Live pids by index — ``hot``: among the pids cached answers
        rank; a pid nobody holds when the relation is empty."""
        pids = self.real.paper_ids()
        if hot:
            results = self.server.results
            ranked = sorted({pid for uid in results.cached_users()
                             for pid, _ in results.peek(uid, K).ranking})
            pids = ranked or pids
        return sorted({pids[pick % len(pids)] for pick in picks}) if pids \
            else [self.next_pid]

    def paper(self, pid, venue, year):
        return Paper(pid=pid, title=f"P{pid}", venue=venue, year=year,
                     abstract="")

    def state(self, uid, predicate, intensity, over=None):
        """A profile update from the user's own predicates, then a read."""
        update = UserProfile(uid=uid)
        if over is None:
            update.add_quantitative(predicate, intensity)
        else:
            update.add_qualitative(predicate, over, intensity)
        self.apply(Op(UPDATE, uid=uid, profile=update))
        self.apply(Op(READ, uid=uid, k=K))

    # -- the five op kinds ---------------------------------------------------

    @rule(uids=st.lists(st.sampled_from(UIDS), min_size=1, max_size=3))
    def read(self, uids):
        for uid in uids:
            self.apply(Op(READ, uid=uid, k=K))

    @rule(uid=st.sampled_from(UIDS), venue=st.sampled_from(VENUES),
          intensity=INTENSITIES)
    def update(self, uid, venue, intensity):
        self.state(uid, venue_predicate(venue), intensity)

    @rule(venue=st.sampled_from(VENUES), year=st.integers(1995, 2013),
          aids=st.lists(st.integers(1, DBLP.n_authors), max_size=2,
                        unique=True))
    def insert(self, venue, year, aids):
        pid, self.next_pid = self.next_pid, self.next_pid + 1
        self.apply(Op(INSERT, papers=(self.paper(pid, venue, year),),
                      paper_authors=tuple((pid, aid) for aid in aids)))

    @rule(picks=st.lists(PICK, min_size=1, max_size=3), hot=st.booleans())
    def delete(self, picks, hot):
        self.apply(Op(DELETE, pids=tuple(self.pick_pids(picks, hot))))

    @rule(pick=PICK, hot=st.booleans(),
          venue=st.none() | st.sampled_from(VENUES),
          year=st.none() | st.integers(1995, 2013))
    def data_update(self, pick, hot, venue, year):
        """Move a paper to another venue and/or year — ``None`` keeps the
        current value, so a paper can also be rewritten in place."""
        (pid,) = self.pick_pids([pick], hot)
        rows = self.real.joined_rows([pid])
        if not rows:  # an empty relation has nothing to update
            return
        self.apply(Op(DATA_UPDATE, papers=(self.paper(
            pid, venue or rows[0]["venue"], year or rows[0]["year"]),)))

    # -- lifecycle -----------------------------------------------------------

    @rule()
    def reopen(self):
        self.server.close()
        self.server = TopKServer(self.db)

    # -- the five profile-update shapes --------------------------------------

    @rule(uid=st.sampled_from([profile.uid for profile in MINED]),
          pick=PICK, intensity=INTENSITIES)
    def restate_right_side(self, uid, pick, intensity):
        pairs = self.users[uid]["pairs"]
        self.state(uid, pairs[pick % len(pairs)][1], intensity)

    @rule(uid=st.sampled_from([profile.uid for profile in MINED]),
          pick=PICK, intensity=INTENSITIES)
    def restate_left_side(self, uid, pick, intensity):
        pairs = self.users[uid]["pairs"]
        self.state(uid, pairs[pick % len(pairs)][0], intensity)

    @rule(uid=st.sampled_from(UIDS), pick=PICK, intensity=INTENSITIES)
    def duplicate_quantitative(self, uid, pick, intensity):
        predicates = self.users[uid]["predicates"]
        self.state(uid, predicates[pick % len(predicates)], intensity)

    @rule(uid=st.sampled_from(UIDS), first=PICK, second=PICK,
          intensity=INTENSITIES)
    def edge_between_existing_nodes(self, uid, first, second, intensity):
        predicates = self.users[uid]["predicates"]
        left = first % len(predicates)
        right = (left + 1 + second % (len(predicates) - 1)) % len(predicates)
        self.state(uid, predicates[left], intensity, over=predicates[right])
        self.users[uid]["pairs"].append((predicates[left], predicates[right]))

    @rule(uid=st.sampled_from(UIDS), year=st.integers(1990, 2012),
          intensity=INTENSITIES)
    def fresh_predicate(self, uid, year, intensity):
        predicate = f"dblp.year >= {year}"
        self.state(uid, predicate, intensity)
        self.users[uid]["predicates"].append(predicate)

    # -- faults --------------------------------------------------------------

    @rule(place=st.sampled_from(FaultyBackend.PLACES),
          kind=st.sampled_from((INSERT, DELETE, DATA_UPDATE, UPDATE)),
          pick=PICK, venue=st.sampled_from(VENUES),
          year=st.integers(1995, 2013), other=st.sampled_from(UIDS))
    def fault(self, place, kind, pick, venue, year, other):
        """A write whose backend raises once surfaces at its door, is
        counted there, and leaves the server exact and unwedged.  A data
        mutation's fault — before the commit, in ``notify`` or in a
        subscriber ahead of the server's — leaves no completed sweep, so
        the server forgets every cache, counted by door."""
        door = {INSERT: "insert_tuples", DELETE: "delete_tuples",
                DATA_UPDATE: "update_tuples", UPDATE: "update_profile"}[kind]
        errors = f"serving.server.errors.{door}.injected_fault"
        forgets = f"serving.server.forgets.{door}"
        before = self.server.metrics().get(errors, 0)
        forgotten = self.server.metrics().get(forgets, 0)
        fired = self.db.fired
        self.db.armed = place
        try:
            if kind == INSERT:
                self.insert(venue, year, [1 + pick % DBLP.n_authors])
            elif kind == DELETE:
                self.delete([pick], hot=True)
            elif kind == DATA_UPDATE:
                self.data_update(pick, True, venue, year)
            else:
                self.update(other, venue, 0.55)
        except InjectedFault:
            pass
        finally:
            self.db.armed = None
            self.fresh.clear()
        metrics = self.server.metrics()
        assert metrics.get(errors, 0) == before + self.db.fired - fired
        assert metrics.get(forgets, 0) == forgotten + (
            self.db.fired - fired if kind != UPDATE else 0)
        outcome = {}
        start_and_join([threading.Thread(
            target=lambda: outcome.update(read=self.server.top_k(other, K)),
            name="read-after-fault", daemon=True)])
        self.served.append((other, list(outcome["read"].ranking)))

    # -- invariants ----------------------------------------------------------

    def fresh_top_k(self, uid):
        if uid not in self.fresh:
            self.fresh[uid] = fresh_top_k(self.real, uid, K)
        return self.fresh[uid]

    @invariant()
    def every_read_equals_fresh(self):
        served, self.served = self.served, []
        for uid, ranking in served:
            assert ranking == self.fresh_top_k(uid), f"uid={uid}"

    @invariant()
    def every_materialised_answer_equals_fresh(self):
        _, mismatches = audit_materialised(
            self.server, self.server.results.cached_users(), K)
        assert not mismatches, mismatches

    @invariant()
    def repairs_run_no_sql(self):
        reports, self.reports = self.reports, []
        assert all(report.repair_sql_statements == 0 for report in reports)


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_equals_fresh_top_k(backend):
    machine = type(f"{backend.title()}ServerMachine", (ServerMachine,),
                   {"backend": backend})
    run_state_machine_as_test(machine, settings=MACHINE)


def _outcome(op, result):
    if op.kind == READ:
        return result.cache_hit, result.ranking
    if op.kind == UPDATE:
        return result.results_invalidated
    return {key: value for key, value in result.as_dict().items()
            if key not in ("seconds", "sql_statements")}


#: Predicates whose counts and id lists the engines must agree on.
SPOT_PREDICATES = (
    "dblp.year >= 2000", venue_predicate(VENUES[0]),
    f"dblp.venue IN ('{VENUES[1]}', '{VENUES[2]}') AND dblp.year >= 2001",
    "dblp.year >= 1998 AND dblp.year <= 2003")


def test_engines_report_alike():
    """One op list, both engines in lockstep: identical answers, cache hits,
    mutation reports and spot counts after every op, and identical joined
    views, id lists and ``serving.*`` counters at the end."""
    mix = OpMix(read_weight=6.0, update_weight=1.0, insert_weight=1.0,
                delete_weight=0.8, data_update_weight=0.8)
    outcomes, final = {}, {}
    for backend in BACKENDS:
        db = engine_world(backend, DBLP, 14)
        with TopKServer(db) as server:
            (stream,) = build_streams(db, 1, mix, population(14), K, seed=29)
            outcomes[backend] = [
                (op.kind, _outcome(op, apply_op(server, op)),
                 db.count_many(SPOT_PREDICATES))
                for op in islice(stream, 120)]
            final[backend] = (
                sorted(tuple(sorted(row.items())) for row in db.joined_rows()),
                [db.matching_paper_ids(p) for p in SPOT_PREDICATES],
                {name: value for name, value in server.metrics().items()
                 if name.startswith("serving.")})
        db.close()
    assert {kind for kind, _, _ in outcomes["sqlite"]} == {
        READ, UPDATE, INSERT, DELETE, DATA_UPDATE}
    assert outcomes["sqlite"] == outcomes["memory"]
    assert final["sqlite"] == final["memory"]
