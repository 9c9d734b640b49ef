"""One contract for every storage engine, and the columnar engine against
SQLite.

The conformance class runs on every registered backend
(:data:`repro.backend.BACKEND_NAMES`): SQLite, the served engine, and the
columnar engine kept as its differential arm agree on the workload shape,
lifecycle/notify semantics, lock order, op accounting and predicate
rejection; the protocol's member list is pinned in ``test_public_api.py``.
The images a mutation notifies and the table counts are pinned once on
SQLite (``test_sqldb.py``) and once on the columnar engine against SQLite
(the drawn script below).

The differential drives both engines from empty through one drawn script,
values and predicates from ``tests/strategies.py``: appends (self, orphan,
shared and duplicate citation pairs; replaces, linked or not), deletes (of
unknown pids, of both endpoints of a pair), in-place updates (of unknown
pids too) and staged profiles (two spellings of a predicate) — after every
step the reports or errors, the mutation each subscriber hears, the table
counts, the workload shape and one drawn ``=`` / ``IN`` predicate's ids and
count agree, and each literal's bucket lookup equals the distinct-value
scan; then ``profile_rows`` (and its statements) and the order
``read_profiles`` rebuilds.  The work-counter tests pin what a columnar
call touches — citations by endpoint, staged rows by user, equality by
bucket lookup (``_equality_keys``) — whatever the size of the tables.
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from strategies import (ints, literals, names, pools, predicates, spellings,
                        texts)

from repro.backend import BACKEND_NAMES, StorageBackend, create_backend
from repro.backend import memory as memory_module
from repro.core.predicate import (Condition, _as_number, _compare_values,
                                  in_set)
from repro.core.preference import ProfileRegistry, UserProfile
from repro.exceptions import (PredicateError, PredicateParseError,
                              RelationalError)
from repro.sqldb.events import TUPLES_INSERTED, DataMutation
from repro.workload.dblp import (Author, DblpConfig, DblpDataset, Paper,
                                 generate_dblp)
from repro.workload.loader import (
    append_papers,
    delete_papers,
    load_dataset,
    load_profiles,
    profile_rows,
    read_profiles,
)

DATASET = generate_dblp(DblpConfig(n_papers=150, n_authors=60, n_venues=8, seed=11))


def _row_key(row):
    return tuple(sorted(row.items()))


def _event_signature(event):
    """Order-insensitive identity of a DataMutation payload."""
    return (event.kind,
            sorted(map(_row_key, event.rows)),
            sorted(map(_row_key, event.old_rows)),
            tuple(event.pids))


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend(request):
    db = create_backend(request.param)
    yield db
    db.close()


@pytest.fixture()
def loaded(backend):
    load_dataset(backend, DATASET)
    return backend


@pytest.fixture()
def events(loaded):
    captured = []
    loaded.subscribe(captured.append)
    return captured


class TestBackendContract:
    """The conformance suite (parametrised over every registered backend)."""

    # -- registry / protocol ------------------------------------------------------

    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)
        assert backend.backend_name in BACKEND_NAMES

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(RelationalError):
            create_backend("postgres")

    # -- schema / statistics ------------------------------------------------------

    def test_workload_shape(self, loaded):
        venues, lo, hi = loaded.workload_shape()
        assert venues == sorted({paper.venue for paper in DATASET.papers})
        assert lo == min(paper.year for paper in DATASET.papers)
        assert hi == max(paper.year for paper in DATASET.papers)
        assert loaded.max_paper_id() == max(paper.pid for paper in DATASET.papers)
        assert loaded.paper_ids() == sorted(paper.pid for paper in DATASET.papers)

    def test_empty_backend_shape(self, backend):
        assert backend.workload_shape() == ([], 0, 0)
        assert backend.paper_ids() == []
        assert backend.max_paper_id() == 0
        assert backend.max_author_id() == 0
        assert backend.count_matching(None) == 0

    # -- profiles -----------------------------------------------------------------

    def test_profile_round_trip_preserves_order(self, loaded):
        registry = ProfileRegistry()
        profile = UserProfile(uid=42)
        profile.add_quantitative("dblp.year >= 2005", 0.9)
        profile.add_quantitative("dblp.venue = 'VLDB'", 0.5)
        profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'ICDE'", 0.3)
        registry.add(profile)
        counts = load_profiles(loaded, registry)
        assert counts == {"quantitative_pref": 2, "qualitative_pref": 1}
        restored = read_profiles(loaded, [42]).get(42)
        assert [pref.predicate_sql for pref in restored.quantitative] == [
            "dblp.year >= 2005", "dblp.venue = 'VLDB'"]
        assert len(restored.qualitative) == 1
        assert 999 not in read_profiles(loaded, [999])

    def test_profile_rows_are_one_users_staged_rows(self, loaded):
        """``profile_rows``: plain tuples of one user, in staging order,
        canonical text, raw strengths, duplicates kept; empty for an
        unknown user; two statements either way."""
        registry = ProfileRegistry()
        profile = UserProfile(uid=42)
        profile.add_quantitative("dblp.year>=2005", 0.9)
        profile.add_quantitative("dblp.venue = 'VLDB'", 0.5)
        profile.add_quantitative("dblp.year >= 2005", -0.25)
        profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'ICDE'", -0.3)
        profile.add_qualitative("dblp.venue = 'ICDE'", "dblp.venue = 'ICDE'", 0.5)
        registry.add(profile)
        other = registry.get_or_create(7)
        other.add_quantitative("dblp.venue = 'PODS'", 0.4)
        load_profiles(loaded, registry)
        before = loaded.statements_executed
        rows = profile_rows(loaded, 42)
        assert loaded.statements_executed - before == 2
        assert rows == (
            [("dblp.year >= 2005", 0.9), ("dblp.venue = 'VLDB'", 0.5),
             ("dblp.year >= 2005", -0.25)],
            [("dblp.venue = 'VLDB'", "dblp.venue = 'ICDE'", -0.3),
             ("dblp.venue = 'ICDE'", "dblp.venue = 'ICDE'", 0.5)])
        assert all(type(row) is tuple for part in rows for row in part)
        assert profile_rows(loaded, 7) == ([("dblp.venue = 'PODS'", 0.4)], [])
        before = loaded.statements_executed
        assert profile_rows(loaded, 999) == ([], [])
        assert loaded.statements_executed - before == 2

    # -- lifecycle / notify-after-close -------------------------------------------

    def test_notify_after_close_raises(self, loaded, events):
        loaded.close()
        assert loaded.is_closed
        with pytest.raises(RelationalError):
            loaded.notify(DataMutation(TUPLES_INSERTED, "dblp"))
        # The listener list is cleared too: a closed backend can never
        # mutate again, so subscriptions must not pin caches alive.
        assert not loaded.has_subscribers

    def test_operations_after_close_raise(self, loaded):
        loaded.close()
        for call in (lambda: loaded.count_matching("dblp.year >= 2000"),
                     lambda: loaded.matching_paper_ids(None),
                     lambda: loaded.table_counts(),
                     lambda: loaded.paper_ids(),
                     lambda: profile_rows(loaded, 1),
                     lambda: delete_papers(loaded, [1])):
            with pytest.raises(RelationalError):
                call()

    def test_close_is_idempotent(self, backend):
        backend.close()
        backend.close()
        assert backend.is_closed

    # -- predicate rejection ------------------------------------------------------

    def test_unknown_attributes_raise_like_sql(self, loaded):
        """Unresolvable columns fail fast on every engine — never count 0.

        ``author.venue`` is the treacherous case: the bare suffix exists in
        the joined view, but the qualifier names a table outside the FROM
        clause, so SQL rejects it and so must every backend.
        """
        for predicate in ("bogus = 1", "dblp.bogus = 1",
                          "author.venue = 'V1'", "citation.pid = 3"):
            with pytest.raises(RelationalError):
                loaded.count_matching(predicate)
        # Legal qualified spellings still resolve (dblp_author.pid equals
        # dblp.pid under the join).
        assert (loaded.count_matching("dblp_author.pid >= 0")
                == loaded.count_matching(None))

    def test_empty_in_rejected_before_reaching_engine(self, loaded):
        with pytest.raises((PredicateError, PredicateParseError)):
            loaded.count_matching("dblp.venue IN ()")
        with pytest.raises(PredicateError):
            in_set("dblp.venue", [])

    def test_a_non_finite_literal_is_refused(self, loaded):
        """SQLite refuses ``year < inf`` (inline, ``inf`` names no column);
        the columnar engine used to answer every pid.  No engine gets it."""
        for text in ("dblp.year < 1e999", "dblp.year != nan",
                     "dblp.venue = 'VLDB' AND dblp.year > -1e999"):
            with pytest.raises(PredicateError, match="finite"):
                loaded.matching_paper_ids(text)
            with pytest.raises(PredicateError, match="finite"):
                loaded.count_matching(text)

    # -- concurrency --------------------------------------------------------------

    def test_mutations_notify_outside_the_backend_lock(self, loaded):
        """A listener that re-enters the backend from another thread must
        not deadlock: notifications are delivered after the engine releases
        its own lock (the serving layer's listeners grab the server lock and
        then issue backend queries — delivering under the backend lock would
        invert that order)."""
        barrier_hit = threading.Event()

        def listener(mutation):
            # Re-enter the backend from another thread while the mutation's
            # notification is still being delivered.
            worker = threading.Thread(
                target=lambda: loaded.count_matching("dblp.year >= 0"))
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive(), "backend lock held across notify"
            barrier_hit.set()

        loaded.subscribe(listener)
        append_papers(loaded, [Paper(pid=96_000, title="T", venue="V", year=2001)],
                      [(96_000, 1)])
        assert barrier_hit.is_set()

    # -- op accounting ------------------------------------------------------------

    def test_rows_touched_counts_real_work(self, backend):
        before = backend.rows_touched
        load_dataset(backend, DATASET)
        written = (len(DATASET.papers) + len(DATASET.authors)
                   + len(DATASET.paper_authors) + len(DATASET.citations))
        assert backend.rows_touched - before == written
        before = backend.rows_touched
        append_papers(backend, [Paper(pid=95_000, title="T", venue="V", year=2001)],
                      [(95_000, 1)])
        assert backend.rows_touched - before == 2
        before_ops = backend.statements_executed
        backend.count_matching("dblp.year >= 2000")
        assert backend.statements_executed > before_ops


# -- the columnar engine against SQLite -----------------------------------------

#: A small pid universe, so drawn citations and deletes share endpoints;
#: pids above ``PAPERS_UP_TO`` never get a paper (orphan endpoints).
PIDS = range(1, 13)
PAPERS_UP_TO = 9

@st.composite
def papers(draw, pids=range(1, PAPERS_UP_TO + 1)):
    chosen = draw(st.lists(st.sampled_from(pids), min_size=1, max_size=4,
                           unique=True))
    return [Paper(pid, draw(texts), draw(texts), draw(ints)) for pid in chosen]


pairs = st.tuples(st.sampled_from(PIDS), st.sampled_from(PIDS))
links = st.lists(st.tuples(st.sampled_from(PIDS), st.integers(1, 4)),
                 max_size=5)
citations = st.lists(
    st.one_of(pairs, st.sampled_from(PIDS).map(lambda pid: (pid, pid))),
    max_size=8)


@st.composite
def registries(draw):
    """Profiles over a few drawn predicates, each staged in one of its two
    spellings."""
    pool = draw(pools(predicates().map(lambda expr: expr.to_sql())))
    stated = st.sampled_from(pool).flatmap(spellings)
    registry = ProfileRegistry()
    for uid in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3,
                             unique=True)):
        profile = UserProfile(uid=uid)
        for predicate in draw(st.lists(stated, max_size=3)):
            profile.add_quantitative(predicate, draw(st.sampled_from(
                (0.25, 0.5, -0.5, 1.0))))
        for left, right in draw(st.lists(st.tuples(stated, stated),
                                         max_size=2)):
            profile.add_qualitative(left, right, 0.5)
        registry.add(profile)
    return registry


def _forms(value):
    """``value`` and other spellings SQLite may call equal to it: a numeric
    text's number, the next float above it (``'0.3'`` and
    ``0.30000000000000004``: equal when SQLite renders 15 digits), a
    number's texts and its ``int`` / ``float`` twin."""
    forms = [value]
    if isinstance(value, str):
        number = _as_number(value)
        if number is not None:
            forms += [number, float(number), str(number),
                      math.nextafter(float(number), math.inf)]
    elif isinstance(value, (int, float)) and math.isfinite(value):
        forms += [str(value), repr(float(value)), f" {value} ", float(value)]
        if float(value).is_integer():
            forms.append(int(value))
    return forms


def _registry_rows(registry):
    """A rebuilt registry in its iteration order, rows in theirs."""
    return [(profile.uid,
             [(q.predicate_sql, q.intensity) for q in profile.quantitative],
             [(q.left_sql, q.right_sql, q.intensity)
              for q in profile.qualitative])
            for profile in registry]


def _outcome(call):
    """``call()``'s result, or the kind of error it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc)


def _state(engine):
    return (engine.table_counts(), engine.workload_shape(),
            engine.paper_ids(), engine.max_paper_id(), engine.max_author_id())


def _predicate(data, memory):
    """An ``=`` or ``IN`` over a drawn attribute: any literal, or another
    spelling of a value the column holds."""
    attribute = data.draw(st.one_of(names, st.just("dblp.pid")))
    column = memory._resolve_column(attribute)
    held = sorted({form for row in memory.joined_rows()
                   for form in _forms(row[column])}, key=repr)
    drawn = st.one_of(literals, st.sampled_from(held)) if held else literals
    if data.draw(st.booleans(), label="IN"):
        return Condition(attribute, "IN", data.draw(
            st.lists(drawn, min_size=1, max_size=3)))
    return Condition(attribute, "=", data.draw(drawn))


def _agree_on(predicate, sqlite, memory):
    answers = [(engine.matching_paper_ids(predicate),
                engine.count_matching(predicate))
               for engine in (sqlite, memory)]
    assert answers[0] == answers[1], predicate
    column = memory._resolve_column(predicate.attribute)
    for literal in (predicate.value if predicate.op == "IN"
                    else (predicate.value,)):
        scanned = (set() if literal is None
                   else memory._compared_rowids(column, literal, "="))
        assert set(memory._equal_rowids(column, literal)) == scanned, literal


@pytest.mark.differential
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engines_agree_on_a_drawn_script(data):
    sqlite, memory = create_backend("sqlite"), create_backend("memory")
    heard = {sqlite: [], memory: []}
    for engine in (sqlite, memory):
        engine.subscribe(heard[engine].append)
    try:
        assert _state(sqlite) == _state(memory)
        assert sqlite.count_matching(None) == memory.count_matching(None) == 0
        seed = DblpDataset(papers=data.draw(papers()),
                           authors=[Author(aid, f"a{aid}")
                                    for aid in range(1, 5)],
                           paper_authors=data.draw(links),
                           citations=data.draw(citations))
        assert load_dataset(sqlite, seed) == load_dataset(memory, seed)
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            step = data.draw(st.sampled_from(
                ("append", "delete", "delete_pair", "update", "profiles")),
                label="step")
            if step == "append":
                call = ("append_papers", data.draw(papers()),
                        data.draw(links), data.draw(citations))
            elif step == "delete":
                call = ("delete_papers",
                        data.draw(st.lists(st.sampled_from(PIDS), max_size=4)))
            elif step == "delete_pair":
                # Both endpoints of one stored pair go in one delete.
                stored = sqlite.query_tuples("SELECT pid, cid FROM citation"
                                             " ORDER BY pid, cid")
                call = ("delete_papers", data.draw(st.sampled_from(stored))
                        if stored else data.draw(pairs))
            elif step == "update":
                call = ("update_papers", data.draw(papers(PIDS)))
            else:
                call = ("load_profiles", data.draw(registries()))
            name, *args = call
            outcomes = [(_outcome(lambda: getattr(engine, name)(*args)),
                         _state(engine),
                         [_event_signature(event) for event in heard[engine]])
                        for engine in (sqlite, memory)]
            assert outcomes[0] == outcomes[1], step
            for engine in (sqlite, memory):
                heard[engine].clear()
            _agree_on(_predicate(data, memory), sqlite, memory)

        for uid in range(6):
            rows = []
            for engine in (sqlite, memory):
                before = engine.statements_executed
                rows.append((profile_rows(engine, uid),
                             engine.statements_executed - before))
            assert rows[0] == rows[1], uid
        wanted = data.draw(st.one_of(
            st.none(), st.lists(st.integers(0, 5), max_size=4)), label="uids")
        assert (_registry_rows(sqlite.read_profiles(wanted))
                == _registry_rows(memory.read_profiles(wanted)))
        for _ in range(3):
            _agree_on(_predicate(data, memory), sqlite, memory)
    finally:
        sqlite.close()
        memory.close()


# -- work counters -------------------------------------------------------------


class _Recording(dict):
    """A dict that records every key a call reads or drops, and any walk
    over the whole of it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.touched = []

    def __getitem__(self, key):
        self.touched.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.touched.append(key)
        return super().get(key, default)

    def pop(self, key, *default):
        self.touched.append(key)
        return super().pop(key, *default)

    def __iter__(self):
        self.touched.append("<walk>")
        return super().__iter__()

    def keys(self):
        self.touched.append("<walk>")
        return super().keys()

    def values(self):
        self.touched.append("<walk>")
        return super().values()

    def items(self):
        self.touched.append("<walk>")
        return super().items()


def _chain_world(n_papers):
    """Papers 1…n, each citing the next; paper 1 also cites itself."""
    memory = create_backend("memory")
    load_dataset(memory, DblpDataset(
        papers=[Paper(pid, f"t{pid}", "VLDB", 2000 + pid % 10)
                for pid in range(1, n_papers + 1)],
        paper_authors=[(pid, 1 + pid % 3) for pid in range(1, n_papers + 1)],
        citations=[(pid, pid + 1) for pid in range(1, n_papers)] + [(1, 1)]))
    return memory


@pytest.mark.parametrize("n_papers", [20, 2000])
def test_a_delete_touches_only_its_papers_citations(n_papers):
    memory = _chain_world(n_papers)
    memory._cites = _Recording(memory._cites)
    memory._cited_by = _Recording(memory._cited_by)
    report = memory.delete_papers([5])
    assert report == {"dblp": 1, "dblp_author": 1, "citation": 2}
    # Its own entry on each side, and each partner's entry on the other.
    assert sorted(memory._cites.touched) == [4, 5]
    assert sorted(memory._cited_by.touched) == [5, 6]
    assert memory.table_counts()["citation"] == n_papers - 2


def test_an_equality_fetch_compares_no_value(monkeypatch):
    memory = _chain_world(50)
    calls = []

    def counted(actual, value, op):
        calls.append(op)
        return _compare_values(actual, value, op)

    monkeypatch.setattr(memory_module, "_compare_values", counted)
    for predicate in (Condition("dblp.venue", "=", "VLDB"),
                      Condition("dblp.year", "=", 2005),
                      Condition("dblp.year", "=", "2005"),
                      Condition("dblp.venue", "=", 100),
                      Condition("dblp_author.aid", "IN", (1, "2", None))):
        memory.matching_paper_ids(predicate)
    assert calls == []
    memory.matching_paper_ids(Condition("dblp.year", ">=", 2005))
    assert calls and set(calls) == {">="}


def test_profile_rows_reads_only_that_users_rows():
    memory = create_backend("memory")
    registry = ProfileRegistry()
    for uid in range(200):
        profile = UserProfile(uid=uid)
        profile.add_quantitative("dblp.venue = 'VLDB'", 0.5)
        profile.add_qualitative("dblp.year >= 2005", "dblp.year < 2005", 0.5)
        registry.add(profile)
    memory.load_profiles(registry)
    memory._quant = _Recording(memory._quant)
    memory._qual = _Recording(memory._qual)
    assert memory.profile_rows(7) == ([("dblp.venue = 'VLDB'", 0.5)],
                                      [("dblp.year >= 2005",
                                        "dblp.year < 2005", 0.5)])
    assert memory._quant.touched == [7]
    assert memory._qual.touched == [7]
