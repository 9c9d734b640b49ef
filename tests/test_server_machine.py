"""The one oracle: what a ``TopKServer`` serves equals ``fresh_top_k``.

A Hypothesis state machine over one server on a small DBLP world, once per
backend.  Rules: the five op kinds (drawn by Hypothesis, not ``OpStream``),
a drain that deletes a target's whole pool under a cached answer (every
live pid for ``any``; later inserts refill the relation), close-and-reopen,
the five profile-update shapes — each of which may leave its read for
later, so the basis the update leaves lives through what comes next — reads
of one user at k = 1, K and 3K in a drawn order, with or without a profile
update between two of them, and six faults (the two sweep faults also on a
direct loader call, past every door; the sixth raises inside a read's
profile repair).  Deletes and in-place updates aim at a drawn target:
``any`` live pid, the ``hot`` pids cached answers rank, or the ``boundary``
pids at ranks ``k-1 … 3k+1`` of a cached user's fresh ranking (``k`` its
answer's own), the rows around the repair buffer's edge.  A fresh predicate
is a year bound or a live paper's title, so a text-column equality stays on
the served path.  The five profile-update rules together churn profiles
faster than reads re-warm them, so profile thrash needs no rule of its own.
``event`` records each target, the drain, the predicate kind, each
direct-call fault, and whether a read extended its basis's build outline
(and after how many updates) or built in full for a reason
(``--hypothesis-show-statistics``).  After every step every read, and every
answer still materialised, equals ``fresh_top_k`` at its own k, no
result-cache sweep ran SQL, no exported counter went down, the result
cache's pid index and score-bound factors equal a recomputation from its
entries and bases, every basis equals a fresh fold of its own preference
list, every basis's outline extended by its staged rows equals the build of
the staged profile, no read leaves a basis behind, and every memoised id
list equals a fresh fetch.  Concurrent interleavings are the load auditor's
job; ``test_engines_report_alike`` compares the two engines.  See "One
oracle" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import threading
from itertools import islice

import pytest
from hypothesis import HealthCheck, event, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)
from strategies import bound_state, cache_bound_state, intensities

from repro.algorithms.base import preferences_from_graph
from repro.backend import create_backend
from repro.core.hypre import HypreGraphBuilder
from repro.core.predicate import conjunction, parse_predicate
from repro.core.preference import UserProfile
from repro.loadgen import load_population, population
from repro.serving import (DATA_UPDATE, DELETE, INSERT, READ, UPDATE, Op,
                           OpMix, TopKServer, Uncached, apply_op,
                           build_streams, fresh_top_k)
from repro.serving.ops import audit_materialised, venue_predicate
from repro.workload import (PreferenceExtractor, generate_dblp, load_dataset,
                            load_profiles, profile_rows)
from repro.workload.dblp import DblpConfig, Paper
from worlds import engine_world, start_and_join

pytestmark = pytest.mark.differential

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
INTENSITIES = intensities(0.15, 0.95)
PICK = st.integers(0, 10_000)  # an index, resolved modulo a live list
#: Where a delete or in-place update aims (``ServerMachine.pick_pids``'s
#: ``target``; ``target`` itself is a reserved ``rule`` argument).
TARGETS = st.sampled_from(("any", "hot", "boundary"))
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
        self.sweep_sql = []  # SQL each result-cache sweep ran, since the check
        self.server = self.watch(TopKServer(self.db))
        # Each user's own predicates and qualitative pairs, as stated so far.
        self.users = {profile.uid: {
            "predicates": profile.predicates(),
            "pairs": [(pair.left_sql, pair.right_sql)
                      for pair in profile.qualitative]}
            for profile in self.real.read_profiles()}
        self.next_pid = self.real.max_paper_id() + 1
        self.served = []   # (uid, k, ranking) read since the last check
        self.direct = False  # data ops call the loader, past every door
        self.fresh = {}    # (uid, k) -> fresh_top_k, until the next write
        self.exported = {}  # the server's metrics() at the last check
        self.reads = [0, 0]  # top_k calls completed / served warm, this server
        self.pending = {}  # uid -> profile updates since its last read

    def teardown(self):
        self.server.close()
        self.real.close()

    # -- applying ------------------------------------------------------------

    def watch(self, server):
        """Record the SQL statements each of ``server``'s result-cache
        sweeps runs: the one place a repair's SQL is measured."""
        sweep, real = server.results.on_data_mutation, self.real

        def measured(match):
            before = real.statements_executed
            try:
                return sweep(match)
            finally:
                self.sweep_sql.append(real.statements_executed - before)
        server.results.on_data_mutation = measured
        return server

    def apply(self, op):
        if op.kind != READ:
            self.fresh.clear()
        if self.direct and op.kind in (INSERT, DELETE, DATA_UPDATE):
            # The bare loader; the server still hears the mutation.
            apply_op(Uncached(self.db), op)
            return
        results, sessions = self.server.results, self.server.sessions
        before = (results.profile_repairs,
                  dict(results.profile_repair_fallbacks),
                  sessions.profile_extensions,
                  dict(sessions.profile_extension_fallbacks))
        outcome = apply_op(self.server, op)
        if op.kind == UPDATE:
            self.pending[op.uid] = self.pending.get(op.uid, 0) + 1
        if op.kind == READ:
            updates = self.pending.pop(op.uid, 0)
            self.count_read(outcome)
            self.served.append((op.uid, op.k, list(outcome.ranking)))
            # The read served an answer, and no basis is left for its user.
            assert op.uid not in results._bases
            if results.profile_repairs > before[0]:
                event("read: profile repair")
            for reason, count in results.profile_repair_fallbacks.items():
                if count > before[1][reason]:
                    event(f"read: profile repair fell back ({reason})")
            if sessions.profile_extensions > before[2]:
                event("read: profile extended" + (
                    f" after {updates} updates" if updates > 1 else ""))
            for reason, count in sessions.profile_extension_fallbacks.items():
                if count > before[3][reason]:
                    event(f"read: profile built ({reason})")

    def count_read(self, result):
        self.reads[0] += 1
        self.reads[1] += result.cache_hit

    def pool(self, target):
        """``target``'s pids, ascending — ``any``: every live pid; ``hot``:
        the pids cached answers rank; ``boundary``: the pids at ranks
        ``k-1 … 3k+1`` of each cached user's ``fresh_top_k(…, 3k+2)``,
        ``k`` its answer's own.  An empty pool falls back to every live
        pid."""
        answers = self.server.results._entries.values()
        if target == "hot":
            pool = {pid for entry in answers for pid, _ in entry.ranking}
        elif target == "boundary":
            pool = {pid for entry in answers for pid, _ in fresh_top_k(
                self.real, entry.uid, 3 * entry.k + 2)[entry.k - 1:]}
        else:
            pool = set()
        event(f"target: {target}" + (
            "" if pool or target == "any" else " (empty pool)"))
        return sorted(pool) or self.real.paper_ids()

    def pick_pids(self, picks, target):
        """Pids of ``target``'s pool by index; a pid nobody holds when the
        relation is empty."""
        pids = self.pool(target)
        return sorted({pids[pick % len(pids)] for pick in picks}) if pids \
            else [self.next_pid]

    def paper(self, pid, venue, year):
        return Paper(pid=pid, title=f"P{pid}", venue=venue, year=year,
                     abstract="")

    def state(self, uid, predicate, intensity, over=None, then_read=True):
        """A profile update from the user's own predicates, then — unless
        ``then_read`` is false — a read.  Without the read, the basis the
        update left lives on through whatever comes next: sweeps, another
        update (one cumulative diff), faults or a reopen."""
        update = UserProfile(uid=uid)
        if over is None:
            update.add_quantitative(predicate, intensity)
        else:
            update.add_qualitative(predicate, over, intensity)
        self.apply(Op(UPDATE, uid=uid, profile=update))
        if then_read:
            self.apply(Op(READ, uid=uid, k=K))
        else:
            event("profile update: read deferred")

    # -- the five op kinds ---------------------------------------------------

    @rule(uids=st.lists(st.sampled_from(UIDS), min_size=1, max_size=3))
    def read(self, uids):
        for uid in uids:
            self.apply(Op(READ, uid=uid, k=K))

    @rule(uid=st.sampled_from(UIDS), venue=st.sampled_from(VENUES),
          intensity=INTENSITIES)
    def update(self, uid, venue, intensity):
        self.state(uid, venue_predicate(venue), intensity)

    @rule(uid=st.sampled_from(UIDS), depths=st.permutations((1, K, 3 * K)),
          update_before=st.none() | st.integers(0, 2),
          venue=st.sampled_from(VENUES), intensity=INTENSITIES)
    def read_at_depths(self, uid, depths, update_before, venue, intensity):
        """Read one user at ``k`` = 1, K and 3K in ``depths``' order: the
        user's one answer serves a smaller k as its prefix, and a larger k
        reads cold and replaces it.  A profile update before the read at
        ``update_before`` leaves a basis that read takes, which may be
        shallower than the read."""
        for position, k in enumerate(depths):
            if position == update_before:
                self.every_read_equals_fresh()  # before the update outdates it
                self.state(uid, venue_predicate(venue), intensity,
                           then_read=False)
                basis = self.server.results._bases.get(uid)
                if basis is not None:
                    event("read at depths: basis " + (
                        "shallower than" if basis.k < k
                        else "as deep as" if basis.k == k
                        else "deeper than") + " the read")
            self.apply(Op(READ, uid=uid, k=k))

    @rule(venue=st.sampled_from(VENUES), year=st.integers(1995, 2013),
          aids=st.lists(st.integers(1, DBLP.n_authors), max_size=2,
                        unique=True))
    def insert(self, venue, year, aids):
        pid, self.next_pid = self.next_pid, self.next_pid + 1
        self.apply(Op(INSERT, papers=(self.paper(pid, venue, year),),
                      paper_authors=tuple((pid, aid) for aid in aids)))

    @rule(venue=st.sampled_from(VENUES), year=st.integers(1995, 2013),
          early=st.lists(st.integers(1, DBLP.n_authors), min_size=1,
                         max_size=2, unique=True),
          late=st.lists(st.integers(1, DBLP.n_authors), max_size=1))
    def insert_after_its_links(self, venue, year, early, late):
        """Author links land before their paper (orphan links are legal);
        the paper's insert then joins them as well as its own."""
        pid, self.next_pid = self.next_pid, self.next_pid + 1
        self.apply(Op(INSERT, papers=(),
                      paper_authors=tuple((pid, aid) for aid in early)))
        self.apply(Op(INSERT, papers=(self.paper(pid, venue, year),),
                      paper_authors=tuple((pid, aid) for aid in late)))

    @rule(picks=st.lists(PICK, min_size=1, max_size=3), aim=TARGETS)
    def delete(self, picks, aim):
        self.apply(Op(DELETE, pids=tuple(self.pick_pids(picks, aim))))

    @rule(uid=st.sampled_from(UIDS), aim=TARGETS)
    def drain(self, uid, aim):
        """Warm ``uid``'s answer, then delete ``aim``'s whole pool in one
        op.  ``any`` deletes every live pid: a sweep with no surviving row,
        then top-k over an empty joined view.  ``boundary`` can leave the
        warmed answer's ``3K``-deep buffer ``K-1`` rows deep, one short of
        an answer, so its repair must fall back."""
        event(f"drain: {aim}")
        self.apply(Op(READ, uid=uid, k=K))
        self.every_read_equals_fresh()  # before the delete outdates it
        self.apply(Op(DELETE, pids=tuple(self.pool(aim))))

    @rule(pick=PICK, aim=TARGETS,
          venue=st.none() | st.sampled_from(VENUES),
          year=st.none() | st.integers(1995, 2013))
    def data_update(self, pick, aim, venue, year):
        """Move a paper to another venue and/or year — ``None`` keeps the
        current value, so a paper can also be rewritten in place."""
        (pid,) = self.pick_pids([pick], aim)
        rows = self.real.joined_rows([pid])
        if not rows:  # an empty relation has nothing to update
            return
        self.apply(Op(DATA_UPDATE, papers=(self.paper(
            pid, venue or rows[0]["venue"], year or rows[0]["year"]),)))

    # -- lifecycle -----------------------------------------------------------

    @rule()
    def reopen(self):
        self.server.close()
        self.server = self.watch(TopKServer(self.db))
        self.exported = {}
        self.reads = [0, 0]
        self.pending = {}

    # -- the five profile-update shapes --------------------------------------

    @rule(uid=st.sampled_from([profile.uid for profile in MINED]),
          pick=PICK, intensity=INTENSITIES, then_read=st.booleans())
    def restate_right_side(self, uid, pick, intensity, then_read):
        pairs = self.users[uid]["pairs"]
        self.state(uid, pairs[pick % len(pairs)][1], intensity,
                   then_read=then_read)

    @rule(uid=st.sampled_from([profile.uid for profile in MINED]),
          pick=PICK, intensity=INTENSITIES, then_read=st.booleans())
    def restate_left_side(self, uid, pick, intensity, then_read):
        pairs = self.users[uid]["pairs"]
        self.state(uid, pairs[pick % len(pairs)][0], intensity,
                   then_read=then_read)

    @rule(uid=st.sampled_from(UIDS), pick=PICK, intensity=INTENSITIES,
          then_read=st.booleans())
    def duplicate_quantitative(self, uid, pick, intensity, then_read):
        predicates = self.users[uid]["predicates"]
        self.state(uid, predicates[pick % len(predicates)], intensity,
                   then_read=then_read)

    @rule(uid=st.sampled_from(UIDS), first=PICK, second=PICK,
          intensity=INTENSITIES, then_read=st.booleans())
    def edge_between_existing_nodes(self, uid, first, second, intensity,
                                    then_read):
        predicates = self.users[uid]["predicates"]
        left = first % len(predicates)
        right = (left + 1 + second % (len(predicates) - 1)) % len(predicates)
        self.state(uid, predicates[left], intensity, over=predicates[right],
                   then_read=then_read)
        self.users[uid]["pairs"].append((predicates[left], predicates[right]))

    @rule(uid=st.sampled_from(UIDS), year=st.integers(1990, 2012),
          title=PICK, by_title=st.booleans(), intensity=INTENSITIES,
          then_read=st.booleans())
    def fresh_predicate(self, uid, year, title, by_title, intensity,
                        then_read):
        """A year bound, or equality on a live paper's title (a year bound
        when the relation is empty)."""
        rows = self.real.joined_rows() if by_title else []
        if rows:
            quoted = rows[title % len(rows)]["title"].replace("'", "''")
            predicate = f"dblp.title = '{quoted}'"
        else:
            predicate = f"dblp.year >= {year}"
        event("fresh predicate: " + ("title" if rows else "year"))
        self.state(uid, predicate, intensity, then_read=then_read)
        self.users[uid]["predicates"].append(predicate)

    # -- faults --------------------------------------------------------------

    def arm_sweep(self):
        """Make the server's next sweep raise partway: after the result
        cache repaired, before the id-list memo is patched."""
        sessions = self.server.sessions

        def prune(match):
            del sessions.invalidate_matching
            self.db.fired += 1
            raise InjectedFault("sweep")
        sessions.invalidate_matching = prune

    def arm_patch(self):
        """Make the server's next sweep raise inside the id-list memo's
        patch, right after it rewrote a list — the lists after it are left
        unpatched — or, when it rewrites none, once the patch returns."""
        sessions, runner = self.server.sessions, self.server.sessions.runner
        patch, db = sessions.invalidate_matching, self.db

        def fault():
            db.fired += 1
            return InjectedFault("patch")

        class RaisingMemo(dict):
            def __setitem__(self, key, ids):
                super().__setitem__(key, ids)
                raise fault()

        def raising_patch(match):
            del sessions.invalidate_matching
            runner._ids_cache = RaisingMemo(runner._ids_cache)
            try:
                patch(match)
            finally:
                runner._ids_cache = dict(runner._ids_cache)
            raise fault()
        sessions.invalidate_matching = raising_patch

    def fault_in_repair(self, uid, venue):
        """A read whose profile repair raises refuses, and leaves no answer
        behind and the basis as it was — still held and swept — so the next
        read repairs from it again and is exact.  The repair raises once
        its work is done — after the id lists it fetched reached the shared
        memo."""
        self.apply(Op(READ, uid=uid, k=K))  # an answer to outdate
        self.every_read_equals_fresh()  # before the update outdates it
        self.state(uid, venue_predicate(venue), 0.55, then_read=False)
        results = self.server.results
        basis = results._bases[uid]
        repair, db = results.repair_profile, self.db

        def raising(*args):
            del results.repair_profile
            repair(*args)
            db.fired += 1
            raise InjectedFault("repair")
        results.repair_profile = raising
        errors = "serving.server.errors.top_k.injected_fault"
        before = self.server.metrics().get(errors, 0)
        try:
            self.server.top_k(uid, K)
        except InjectedFault:
            event("fault: repair")
            assert self.server.metrics()[errors] == before + 1
            assert results.peek(uid, K) is None
            assert results._bases[uid] is basis
        else:  # the new list holds no positive preference: nothing to repair
            event("fault: repair (no preference to repair)")
            results.__dict__.pop("repair_profile")
        self.apply(Op(READ, uid=uid, k=K))

    @rule(place=st.sampled_from(
              FaultyBackend.PLACES + ("sweep", "patch", "repair")),
          kind=st.sampled_from((INSERT, DELETE, DATA_UPDATE, UPDATE)),
          pick=PICK, venue=st.sampled_from(VENUES),
          year=st.integers(1995, 2013), other=st.sampled_from(UIDS),
          direct=st.booleans())
    def fault(self, place, kind, pick, venue, year, other, direct):
        """A write whose backend or sweep raises once surfaces at its door,
        is counted there, and leaves the server exact and unwedged.  A data
        mutation's fault leaves no completed sweep, so the server forgets
        every cache, counted by door and place: ``before_sweep`` for a fault
        before the commit, in ``notify`` or in the listener call,
        ``in_sweep`` for one inside the server's sweep — before the id-list
        memo is patched (``sweep``) or partway through its patch
        (``patch``).  With ``direct`` a sweep fault hits a data mutation
        made by a bare loader call: no door counts an error, and the
        forget is counted as ``direct.in_sweep``.  A ``repair`` fault
        raises inside a read's profile repair instead (see
        :meth:`fault_in_repair`)."""
        if place == "repair":
            self.fault_in_repair(other, venue)
            return
        self.direct = direct = direct and place in ("sweep", "patch") \
            and kind != UPDATE
        if direct:
            event(f"fault: {place} on a direct loader call")
        door = "direct" if direct else {
            INSERT: "insert_tuples", DELETE: "delete_tuples",
            DATA_UPDATE: "update_tuples", UPDATE: "update_profile"}[kind]
        errors = f"serving.server.errors.{door}.injected_fault"
        forgets = "serving.server.forgets.{}.{}".format(
            door, "before_sweep" if place in FaultyBackend.PLACES
            else "in_sweep")
        before = self.server.metrics().get(errors, 0)
        forgotten = self.server.metrics().get(forgets, 0)
        fired = self.db.fired
        if place == "sweep":
            self.arm_sweep()
        elif place == "patch":
            self.arm_patch()
        else:
            self.db.armed = place
        try:
            if kind == INSERT:
                self.insert(venue, year, [1 + pick % DBLP.n_authors])
            elif kind == DELETE:
                self.delete([pick], "hot")
            elif kind == DATA_UPDATE:
                self.data_update(pick, "hot", venue, year)
            else:
                self.update(other, venue, 0.55)
        except InjectedFault:
            pass
        finally:
            self.db.armed = None
            self.direct = False
            self.server.sessions.__dict__.pop("invalidate_matching", None)
            self.fresh.clear()
        metrics = self.server.metrics()
        assert metrics.get(errors, 0) == before + (
            self.db.fired - fired if not direct else 0)
        assert metrics.get(forgets, 0) == forgotten + (
            self.db.fired - fired if kind != UPDATE else 0)
        outcome = {}
        start_and_join([threading.Thread(
            target=lambda: outcome.update(read=self.server.top_k(other, K)),
            name="read-after-fault", daemon=True)])
        self.count_read(outcome["read"])
        self.served.append((other, K, list(outcome["read"].ranking)))
        self.pending.pop(other, None)

    # -- invariants ----------------------------------------------------------

    def fresh_top_k(self, uid, k):
        if (uid, k) not in self.fresh:
            self.fresh[uid, k] = fresh_top_k(self.real, uid, k)
        return self.fresh[uid, k]

    @invariant()
    def every_read_equals_fresh(self):
        served, self.served = self.served, []
        for uid, k, ranking in served:
            assert ranking == self.fresh_top_k(uid, k), f"uid={uid} k={k}"

    @invariant()
    def every_materialised_answer_equals_fresh(self):
        _, mismatches, _ = audit_materialised(
            self.server, self.server.results.cached_users())
        assert not mismatches, mismatches

    @invariant()
    def repairs_run_no_sql(self):
        sweeps, self.sweep_sql = self.sweep_sql, []
        assert not any(sweeps), sweeps

    @invariant()
    def bound_state_equals_a_recomputation(self):
        """The sweep's score bound reads three structures kept beside the
        entries: each (conjunct, holder)'s factors, the buffer pid index
        and each key's spare threshold.  All equal what the entries alone
        give."""
        results = self.server.results
        assert bound_state(results) == cache_bound_state(results)

    @invariant()
    def every_memoised_list_equals_a_fetch(self):
        """The id-list memo is a maintained view: each list equals a fresh
        fetch of its predicate, pid order included."""
        for key, ids in self.server.sessions.runner._ids_cache.items():
            predicate = conjunction(parse_predicate(text)
                                    for text in sorted(key))
            assert ids == tuple(self.real.matching_paper_ids(predicate)), key

    @invariant()
    def every_basis_equals_a_fold_of_its_own_list(self):
        """A basis is the exact answer to the preference list it was
        scored with: its buffer is a prefix of a fresh PEPS fold of its own
        conjuncts and intensities (the predicates rebuilt from the conjunct
        texts), in its own preference order — the whole fold when it is
        complete.  No basis has a served answer beside it."""
        results = self.server.results
        assert not results._bases.keys() & results._entries.keys()
        for key, basis in results._bases.items():
            remainder = {}
            for conjuncts, intensity in zip(basis.conjuncts,
                                            basis.intensities):
                predicate = conjunction(parse_predicate(text)
                                        for text in sorted(conjuncts))
                for pid in self.real.matching_paper_ids(predicate):
                    remainder[pid] = remainder.get(pid, 1.0) \
                        * (1.0 - intensity)
            fold = [(pid, 1.0 - remainder[pid]) for _, pid in sorted(
                (missed - 1.0, pid) for pid, missed in remainder.items())]
            buffer = list(basis.buffer)
            assert buffer == fold[:len(buffer)], key
            assert not basis.complete or len(buffer) == len(fold), key
            assert basis.ranking == basis.buffer[:basis.k], key

    @invariant()
    def every_basis_outline_extends_to_the_staged_build(self):
        """A basis's build outline, extended by the rows updates staged
        since, is the build of the user's staged profile: the same
        preference list, floats bit for bit, or a fallback reason."""
        for uid, basis in self.server.results._bases.items():
            if basis.outline is None:
                continue
            extended, _ = basis.outline.extend(*basis.staged)
            if extended is None:
                continue
            builder = HypreGraphBuilder()
            builder.build_rows(uid, *profile_rows(self.real, uid))
            assert [(expr.to_sql(), intensity.hex()) for expr, intensity
                    in extended.preferences()] == [
                (pref.sql, pref.intensity.hex())
                for pref in preferences_from_graph(builder.hypre, uid)], uid

    @invariant()
    def no_exported_counter_decreases(self):
        """Every exported name but the ``*.entries`` gauges is a counter:
        a fault that makes the server forget its caches must not rewind
        one.  ``serving.server.reads`` / ``read_hits``, derived from the
        result cache's ``hits``, count exactly the completed ``top_k``
        calls and the warm ones among them."""
        metrics = self.server.metrics()
        assert [metrics["serving.server.reads"],
                metrics["serving.server.read_hits"]] == self.reads
        rewound = {name: (before, metrics.get(name, 0))
                   for name, before in self.exported.items()
                   if not name.endswith(".entries")
                   and metrics.get(name, 0) < before}
        assert not rewound, rewound
        self.exported = metrics


def pytest_generate_tests(metafunc):
    if metafunc.function is test_served_equals_fresh_top_k:
        metafunc.parametrize("backend", BACKENDS)


def test_served_equals_fresh_top_k(backend):
    machine = type(f"{backend.title()}ServerMachine", (ServerMachine,),
                   {"backend": backend})
    run_state_machine_as_test(machine, settings=MACHINE)


# Hypothesis's own stateful ``TestCase`` sets this flag, so pytest reports the
# machine's ``event`` statistics (``--hypothesis-show-statistics``); the
# parametrisation above adds no ``parametrize`` mark, which the plugin would
# take for a ``@given`` test.
test_served_equals_fresh_top_k.is_hypothesis_test = True


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
