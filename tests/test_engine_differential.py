"""The columnar engine against SQLite, and the work each of its calls does.

``MemoryBackend`` keeps every table the way its calls read it: the citation
table as two adjacency maps (citing pid → cited pids, cited pid → citing
pids), the staging tables per user with each row's table-wide pfid, and
each view column's inverted index, which an ``=`` or ``IN`` literal is
looked up in under every key SQLite calls equal to it
(:func:`~repro.core.predicate._equality_keys`).  The differential drives
SQLite and the columnar engine through one drawn script:

* citation graphs with self-citations, orphan endpoints, shared endpoints
  and duplicate appends, and deletes that remove both endpoints of one pair
  — the delete reports and ``table_counts()`` agree after every step;
* staged rows for several uids over several ``load_profiles`` calls —
  ``profile_rows`` and the order ``read_profiles`` rebuilds agree;
* ``=`` and ``IN`` over text, numeric-shaped text, int, full-precision
  float, bool and NULL literals — ``matching_paper_ids`` and
  ``count_matching`` agree.  A float literal equals the text the installed
  SQLite renders it as, whatever its digits; a NaN or infinite ``=`` /
  ``IN`` literal is refused when the predicate is built, as SQLite refuses
  it (inline, ``nan`` / ``inf`` name no column).

The bucket lookup equals the distinct-value scan it replaced, for every
drawn pair of stored value and literal and for every literal over a drawn
world.  The work-counter tests pin what a call touches, whatever the size
of the tables around it.

``HYPOTHESIS_PROFILE=ci`` runs ten times the default examples.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import create_backend
from repro.backend import memory as memory_module
from repro.core.predicate import (Condition, _as_number, _compare_values,
                                  _equality_keys)
from repro.core.preference import ProfileRegistry, UserProfile
from repro.workload.dblp import DblpDataset, Paper
from repro.workload.loader import load_dataset

#: A small pid universe, so drawn citations and deletes share endpoints;
#: pids above ``PAPERS_UP_TO`` never get a paper (orphan endpoints).
PIDS = range(1, 13)
PAPERS_UP_TO = 9

#: Text that is and is not numeric-shaped under SQLite's affinity grammar.
TEXTS = ("VLDB", "abc", "nan", "inf", "NULL", "1", "1.0", " 7 ", "007", "100",
         "2005", "1e2", "1.0e+16", "-0.0", "9007199254740993", "0.3",
         "0.30000000000000004")
INTS = (0, 1, 7, 100, 2005, 9007199254740993, -3)

texts = st.one_of(st.sampled_from(TEXTS),
                  st.text(alphabet="0127.e+- abn", max_size=4))
ints = st.one_of(st.sampled_from(INTS), st.integers(-5, 2100))
# Every finite float, at full precision: ``0.1 + 0.2`` has 17 significant
# digits, and SQLite 3.40's TEXT affinity renders it ``'0.3'``.
floats = st.one_of(
    st.sampled_from((1.0, 7.5, 100.0, 2005.0, 1e16, -0.0, 0.5, 0.1 + 0.2)),
    st.floats(allow_nan=False, allow_infinity=False))
LITERALS = st.one_of(texts, ints, floats, st.booleans(), st.none())
#: Stored values of every kind an index may hold, for the pure property.
STORED = st.one_of(texts, ints, floats, st.booleans(),
                   st.sampled_from((math.nan, math.inf, -math.inf)))

ATTRIBUTES = ("venue", "dblp.venue", "title", "year", "dblp.year",
              "dblp_author.aid", "aid", "dblp.pid")


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

PREDICATE_TEXTS = ("dblp.venue = 'VLDB'", "dblp.year >= 2005",
                   "dblp_author.aid = 1", "dblp.venue = '100'")


@st.composite
def registries(draw):
    registry = ProfileRegistry()
    for uid in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3,
                             unique=True)):
        profile = UserProfile(uid=uid)
        for predicate in draw(st.lists(st.sampled_from(PREDICATE_TEXTS),
                                       max_size=3)):
            profile.add_quantitative(predicate, draw(st.sampled_from(
                (0.25, 0.5, -0.5, 1.0))))
        for left, right in draw(st.lists(
                st.tuples(st.sampled_from(PREDICATE_TEXTS),
                          st.sampled_from(PREDICATE_TEXTS)), max_size=2)):
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


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engines_agree_on_a_drawn_script(data):
    sqlite, memory = create_backend("sqlite"), create_backend("memory")
    try:
        seed = DblpDataset(papers=data.draw(papers()),
                           paper_authors=data.draw(links),
                           citations=data.draw(citations))
        assert load_dataset(sqlite, seed) == load_dataset(memory, seed)
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            step = data.draw(st.sampled_from(
                ("append", "delete", "delete_pair", "profiles")), label="step")
            if step == "append":
                args = (data.draw(papers()), data.draw(links),
                        data.draw(citations))
                reports = [engine.append_papers(*args)
                           for engine in (sqlite, memory)]
            elif step == "delete":
                doomed = data.draw(st.lists(st.sampled_from(PIDS), max_size=4))
                reports = [engine.delete_papers(doomed)
                           for engine in (sqlite, memory)]
            elif step == "delete_pair":
                # Both endpoints of one stored pair go in one delete.
                stored = sqlite.query_tuples("SELECT pid, cid FROM citation"
                                             " ORDER BY pid, cid")
                pair = (data.draw(st.sampled_from(stored), label="pair")
                        if stored else data.draw(pairs))
                reports = [engine.delete_papers(pair)
                           for engine in (sqlite, memory)]
            else:
                registry = data.draw(registries())
                reports = [engine.load_profiles(registry)
                           for engine in (sqlite, memory)]
            assert reports[0] == reports[1], step
            assert sqlite.table_counts() == memory.table_counts(), step

        for uid in range(6):
            assert sqlite.profile_rows(uid) == memory.profile_rows(uid)
        wanted = data.draw(st.one_of(
            st.none(), st.lists(st.integers(0, 5), max_size=4)), label="uids")
        assert (_registry_rows(sqlite.read_profiles(wanted))
                == _registry_rows(memory.read_profiles(wanted)))

        for _ in range(4):
            attribute = data.draw(st.sampled_from(ATTRIBUTES))
            column = memory._resolve_column(attribute)
            # Any literal, or another spelling of a value the column holds.
            held = sorted({form for row in memory.joined_rows()
                           for form in _forms(row[column])}, key=repr)
            literals = (st.one_of(LITERALS, st.sampled_from(held)) if held
                        else LITERALS)
            if data.draw(st.booleans(), label="IN"):
                predicate = Condition(attribute, "IN", data.draw(
                    st.lists(literals, min_size=1, max_size=3)))
            else:
                predicate = Condition(attribute, "=", data.draw(literals))
            items = (predicate.value if predicate.op == "IN"
                     else (predicate.value,))
            answers = [(engine.matching_paper_ids(predicate),
                        engine.count_matching(predicate))
                       for engine in (sqlite, memory)]
            assert answers[0] == answers[1], predicate
            for literal in items:
                scanned = (set() if literal is None
                           else memory._compared_rowids(column, literal, "="))
                assert set(memory._equal_rowids(column, literal)) == scanned, literal
    finally:
        sqlite.close()
        memory.close()


@given(literal=LITERALS, data=st.data())
def test_a_bucket_lookup_finds_what_the_scan_calls_equal(literal, data):
    stored = data.draw(st.one_of(STORED, st.sampled_from(_forms(literal))),
                       label="stored")
    keys = _equality_keys(literal)
    scanned = literal is not None and _compare_values(stored, literal, "=")
    assert any(key in {stored: None} for key in keys) == scanned


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
