"""Differential tests: ``Condition.evaluate`` must agree with SQLite.

The whole selective-invalidation machinery rests on one soundness rule:
:func:`repro.index.selectivity.may_match_row` may only answer ``False`` when
the SQL engine provably cannot match the tuple.  Since ``may_match_row``
delegates to in-memory predicate evaluation, *evaluate disagreeing with
SQLite is an invalidation soundness bug* — a cache entry could be spared
for a tuple the database in fact matches.

These tests run the same predicate both ways over the canonical joined view
— ``SELECT ... FROM dblp JOIN dblp_author`` — and assert the matched pid
sets are identical, focusing on the two historically dangerous corners:

* **NULL-valued attributes** (SQL three-valued logic: a NULL operand never
  satisfies ``=``, ``!=``, ``<`` ... nor ``IN``);
* **mixed string/number comparisons** (SQLite applies the column's affinity
  to the literal: ``year = '2005'`` matches the integer 2005, ``venue = 100``
  only matches the text ``'100'``, and a non-numeric literal compared to a
  numeric column sorts after every number).

A drawn test asks SQLite itself about every judge of an ``attr = literal``
key over relations and literals from ``tests/strategies.py``, whose reach
another test pins.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import event, find, given, settings, strategies as st
from strategies import literals, names, pools, stored, values

from repro.core.predicate import (
    Condition, _as_number, _equality_keys, _sqlite_text, are_and_compatible,
    equals, in_set, not_equals, parse_predicate)
from repro.exceptions import PredicateError, RelationalError
from repro.index.selectivity import ConjunctIndex, RowMatch, may_match_row
from repro.sqldb.database import Database
from repro.sqldb.query_builder import matching_paper_ids
from repro.sqldb.schema import BASE_FROM

#: (pid, title, venue, year, abstract) — venue '100' and NULL abstracts are
#: deliberate: they force the affinity and NULL corners.
PAPERS = (
    (1, "Alpha", "VLDB", 2005, "materialised views"),
    (2, "Beta", "SIGMOD", 2010, None),
    (3, "Gamma", "100", 1999, ""),
    (4, "Delta", "ICDE", 2005, None),
    (5, "Epsilon", "VLDB", 2012, "updates"),
    # Beyond-2**53 integer and SQLite's exponent rendering of 1e16.
    (6, "Zeta", "1.0e+16", 9007199254740993, "big"),
    # A text 0.1 + 0.2 equals when SQLite renders it with 15 digits.
    (7, "Eta", "0.3", 2001, "float"),
    # The text SQLite renders 2**70 (and 2**70 + 1) read as a REAL as.
    (8, "Theta", "1.18059162071741e+21", 2003, None),
)

AUTHOR_LINKS = ((1, 1), (1, 2), (2, 1), (3, 2), (4, 3), (5, 3), (6, 1),
                (7, 2), (8, 3))

PREDICATES = [
    # NULL-valued attributes: NULL never satisfies any comparison.
    equals("abstract", ""),
    not_equals("abstract", ""),
    Condition("abstract", "!=", "updates"),
    in_set("abstract", [""]),
    in_set("abstract", ["updates", "materialised views"]),
    equals("title", None),
    not_equals("title", None),
    # Mixed string/number: numeric column vs. text literal.
    Condition("dblp.year", "=", "2005"),
    Condition("dblp.year", "!=", "2005"),
    Condition("dblp.year", ">=", "2010"),
    Condition("dblp.year", "<", "2005"),
    Condition("dblp.year", "IN", ("2005", 2012)),
    # Non-numeric literal vs. numeric column: text sorts after all numbers.
    Condition("dblp.year", "<", "abc"),
    Condition("dblp.year", ">", "abc"),
    Condition("dblp.year", "=", "abc"),
    # Strings Python's float() accepts but SQLite's affinity grammar does
    # not — they must stay TEXT (and so sort after every number).
    Condition("dblp.year", "<", "1_0"),
    Condition("dblp.year", "<", "nan"),
    Condition("dblp.year", ">=", "inf"),
    # ...while whitespace-padded numerics do coerce.
    Condition("dblp.year", "=", " 2005 "),
    # Integer text beyond 2**53: SQLite converts exactly, so evaluate must
    # not round through float.
    Condition("dblp.year", "=", "9007199254740993"),
    Condition("dblp.year", ">", "9007199254740992"),
    # SQLite renders the literal 1e16 as the text '1.0e+16'.
    Condition("venue", "=", 1e16),
    # Mixed string/number: text column vs. numeric literal.
    Condition("venue", "=", 100),
    Condition("venue", "!=", 100),
    Condition("venue", ">", 100),
    Condition("venue", "IN", (100, "VLDB")),
    # Text column vs. a full-precision float literal: SQLite compares the
    # text it renders the REAL as (15 digits on 3.40: '0.3').
    Condition("venue", "=", 0.1 + 0.2),
    Condition("venue", "!=", 0.1 + 0.2),
    Condition("venue", "<", 0.1 + 0.2),
    Condition("venue", "IN", (0.1 + 0.2, "VLDB")),
    Condition("title", "=", 1 / 3),
    # An int past int64 is the REAL SQLite reads its digits as.
    Condition("venue", "=", 2 ** 70 + 1),
    # Plain composites over the same data, for completeness.
    parse_predicate("venue = 'VLDB' OR dblp.year >= 2010"),
    parse_predicate("venue = 'VLDB' AND dblp.year <= 2005"),
]


@pytest.fixture(scope="module")
def differential_db():
    db = Database(":memory:")
    db.executemany(
        "INSERT INTO dblp (pid, title, venue, year, abstract)"
        " VALUES (?, ?, ?, ?, ?)", PAPERS)
    db.executemany(
        "INSERT INTO dblp_author (pid, aid) VALUES (?, ?)", AUTHOR_LINKS)
    db.commit()
    yield db
    db.close()


def joined_rows(db):
    return db.query(
        "SELECT dblp.pid AS pid, title, venue, year, abstract, aid"
        f" FROM {BASE_FROM}")


@pytest.mark.parametrize(
    "predicate", PREDICATES, ids=[pred.to_sql() for pred in PREDICATES])
def test_evaluate_agrees_with_sqlite(differential_db, predicate):
    sql_pids = set(matching_paper_ids(differential_db, predicate))
    memory_pids = {row["pid"] for row in joined_rows(differential_db)
                   if predicate.evaluate(row)}
    assert memory_pids == sql_pids


@pytest.mark.parametrize(
    "predicate", PREDICATES, ids=[pred.to_sql() for pred in PREDICATES])
def test_may_match_row_never_spares_a_sql_match(differential_db, predicate):
    """The soundness corollary: every paper SQLite matches has at least one
    joined row the relevance test flags, so invalidation driven by
    ``may_match_row`` can never wrongly spare a cache entry."""
    sql_pids = set(matching_paper_ids(differential_db, predicate))
    rows = [dict(row) for row in joined_rows(differential_db)]
    flagged = {row["pid"] for row in rows if may_match_row(predicate, row)}
    assert sql_pids <= flagged
    # RowMatch is that same judge bit for bit — rows missing a referenced
    # attribute included — asked once per key (expression or its SQL text).
    referenced = {name.split(".")[-1] for name in predicate.attributes()}
    rows += [{key: value for key, value in row.items() if key not in referenced}
             for row in rows[:2]]
    forms = [predicate, predicate.to_sql()]
    for asked in forms:
        match = RowMatch(rows)
        assert match.mask(asked) == sum(may_match_row(asked, row) << index
                                        for index, row in enumerate(rows))
        assert match.mask(forms[0]) == match.mask(forms[-1])
        assert match.predicate_row_tests == len(rows)


EQUALITIES = [predicate for predicate in PREDICATES
              if isinstance(predicate, Condition) and predicate.op == "="]


def equality_world(draw, pool):
    """A drawn relation in SQLite: papers whose title, venue, year and
    abstract, and author links whose aids, hold the pool's values or any
    other."""
    db = Database(":memory:")
    column = st.one_of(st.sampled_from(pool), st.sampled_from(pool), values,
                       st.sampled_from((math.inf, -math.inf)))
    papers = [(pid, draw(column), draw(column), draw(column),
               draw(st.one_of(column, st.none())))
              for pid in range(1, draw(st.integers(1, 6)) + 1)]
    links = [(pid, aid) for pid, *_ in papers
             for aid in draw(st.lists(column, min_size=1, max_size=2))]
    db.executemany("INSERT INTO dblp (pid, title, venue, year, abstract)"
                   " VALUES (?, ?, ?, ?, ?)", papers)
    db.executemany("INSERT OR IGNORE INTO dblp_author (pid, aid)"
                   " VALUES (?, ?)", links)
    db.commit()
    return db


@pytest.mark.differential
@pytest.mark.parametrize(
    "case", EQUALITIES, ids=[pred.to_sql() for pred in EQUALITIES])
@settings(deadline=None, max_examples=settings.default.max_examples // 5)
@given(data=st.data())
def test_a_bucket_lookup_selects_sqlites_pids(case, data):
    """SQLite's ``=`` is the oracle for every judge of an ``attr = literal``
    key — the bits ``ConjunctIndex.live`` records (may and sure, nothing
    evaluated), a lookup of ``_equality_keys`` and ``evaluate`` — for the
    case table's ``case`` and a drawn equality, over a drawn relation that
    shares a pool of values with the literals (``case``'s among them); and
    ``are_and_compatible`` when SQLite selects a pid for both."""
    pool = data.draw(pools(values, max_size=5), label="pool")
    if case.value is not None and case.value not in pool:
        pool.append(case.value)
    db = equality_world(data.draw, pool)
    try:
        rows = [dict(row) for row in joined_rows(db)]
        drawn = Condition(data.draw(names, label="attribute"), "=", data.draw(
            st.one_of(st.sampled_from(pool), st.sampled_from(pool),
                      literals), label="literal"))
        selected = [set(matching_paper_ids(db, pred)) for pred in (case, drawn)]
        assert are_and_compatible(case, drawn) or not selected[0] & selected[1]
        for predicate, expected in zip((case, drawn), selected):
            event(f"SQLite selects {'some' if expected else 'no'} pid")
            key = predicate.to_sql()
            index = ConjunctIndex()
            index.add(frozenset({key}))
            match = RowMatch(rows)
            index.live(match)
            may = match._masks.get(key, 0)
            assert match._exact.get(key, 0) == may
            assert {row["pid"] for bit, row in enumerate(rows)
                    if may >> bit & 1} == expected
            assert match.predicate_row_tests == 0
            keys = _equality_keys(predicate.value)
            column = predicate.attribute.split(".")[-1]
            assert {row["pid"] for row in rows if any(
                key in {row[column]: None} for key in keys)} == expected
            assert {row["pid"] for row in rows
                    if predicate.evaluate(row)} == expected
    finally:
        db.close()


#: Built literals at the edge of binding: bools, the int64 maximum, -0.0,
#: ``IN`` lists mixing types, NULL and a NUL char (the two kept inline).
#: Each must keep its inline meaning — or its inline error — when bound.
BINDING_EXTRAS = [
    Condition("dblp.year", "=", True),
    Condition("dblp.year", ">", False),
    Condition("dblp.year", "=", 2 ** 63 - 1),
    Condition("dblp.year", ">", -0.0),
    Condition("venue", "IN", ("VLDB", 100, 1e16, None)),
    equals("venue", None),
    Condition("venue", "!=", "VL\x00DB"),
]


#: Staged SQL texts.  SQLite reads an int past int64 as a REAL (what the
#: parsed literal holds), and ``inf`` / ``nan`` as column names: no
#: ``Condition`` holds a non-finite literal, under any operator.
INLINE = ["dblp.year < 1180591620717411303424", "dblp.year != nan",
          "dblp.year > -1180591620717411303424", "dblp.year < inf",
          "dblp.year IN (2005, '2010', 1999.0, NULL, 1, 1180591620717411303424)",
          "venue = 1180591620717411303425", "dblp.year > -inf"]


def inline_ids(db, predicate):
    """The inline-literal statement: ``to_sql``'s text (or the SQL text
    itself), nothing bound."""
    where = predicate if isinstance(predicate, str) else predicate.to_sql()
    return [row[0] for row in db.query_tuples(
        f"SELECT DISTINCT dblp.pid FROM {BASE_FROM}"
        f" WHERE ({where}) ORDER BY dblp.pid")]


def outcome(run, db, predicate):
    """The pids ``run`` returns, or the SQLite error it raises."""
    try:
        return run(db, predicate)
    except RelationalError as exc:
        return type(exc.__cause__), str(exc.__cause__)


@pytest.mark.parametrize(
    "predicate", PREDICATES + BINDING_EXTRAS + INLINE,
    ids=[repr(pred) if isinstance(pred, str) else repr(pred.to_sql())
         for pred in PREDICATES + BINDING_EXTRAS + INLINE])
def test_bound_statement_agrees_with_inline(differential_db, predicate):
    """The query surface binds every built literal but NULL and a text with
    a NUL, and SQLite reads each bound value as it reads the inline text:
    same pids, or the same error.  A literal SQLite refuses inline is
    refused sooner, when the predicate is built, so neither side answers."""
    inline = outcome(inline_ids, differential_db, predicate)
    if isinstance(predicate, str):
        try:
            predicate = parse_predicate(predicate)
        except PredicateError:
            assert isinstance(inline, tuple) and \
                inline[1].startswith("no such column")
            return
    assert outcome(matching_paper_ids, differential_db, predicate) == inline


def test_binding_edges_are_reached(differential_db):
    """Every built literal binds, a bool as its int, -0.0 as 0.0 and an
    int past int64 as its REAL, but NULL and the NUL, which errors inline
    (and so bound)."""
    bound = [pred.bound_sql[1] for pred in BINDING_EXTRAS]
    assert repr(bound + [parse_predicate(INLINE[4]).bound_sql[1]]) == repr([
        (1,), (0,), (2 ** 63 - 1,), (0.0,), ("VLDB", 100, 1e16), (), (),
        (2005, "2010", 1999.0, 1, 2.0 ** 70)])
    errors = [pred for pred in BINDING_EXTRAS
              if isinstance(outcome(inline_ids, differential_db, pred), tuple)]
    assert len(errors) == 1   # the NUL


def test_the_shared_literals_reach_every_kind():
    """The shared literal strategy reaches every kind an arm relies on:
    a narrower one must fail here, not in a user's profile."""
    for reached in (
            lambda value: type(value) is str and _as_number(value) is not None,
            lambda value: type(value) is int and value > 2 ** 53,
            lambda value: type(value) is int and value > 2 ** 63 - 1,
            lambda value: type(value) is float
            and _sqlite_text(value) != repr(value),  # 0.1 + 0.2 on 3.40
            lambda value: type(value) is bool, lambda value: value is None):
        assert reached(find(literals, reached))
    assert "." in find(names, lambda name: "." in name)
    assert "." not in find(names, lambda name: "." not in name)
    assert math.isnan(find(stored, lambda value: value != value))
    assert find(stored, lambda value: value == math.inf)
