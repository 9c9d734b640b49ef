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
"""

from __future__ import annotations

import pytest

from repro.core.predicate import (
    Condition,
    equals,
    in_set,
    not_equals,
    parse_predicate,
)
from repro.exceptions import RelationalError
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
)

AUTHOR_LINKS = ((1, 1), (1, 2), (2, 1), (3, 2), (4, 3), (5, 3), (6, 1))

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


@pytest.mark.parametrize(
    "predicate", EQUALITIES, ids=[pred.to_sql() for pred in EQUALITIES])
def test_a_bucket_lookup_selects_sqlites_pids(differential_db, predicate):
    """A sweep decides an ``attr = literal`` key by its bucket lookup alone:
    the may-bits ``ConjunctIndex.live`` records over the joined view select
    exactly the pids SQLite matches, with no predicate evaluated."""
    rows = [dict(row) for row in joined_rows(differential_db)]
    key = predicate.to_sql()
    index = ConjunctIndex()
    index.add(frozenset({key}))
    match = RowMatch(rows)
    index.live(match)
    mask = match._masks.get(key, 0)
    assert {row["pid"] for bit, row in enumerate(rows) if mask >> bit & 1} \
        == set(matching_paper_ids(differential_db, predicate))
    assert match.predicate_row_tests == 0


#: Literals at the edge of what binding may touch: a bool, ints beyond
#: int64, ``±inf`` / NaN, ``IN`` lists mixing types, NULL and a NUL char.
#: Each must keep its inline meaning — or its inline error — when bound.
BINDING_EXTRAS = [
    Condition("dblp.year", "=", True),
    Condition("dblp.year", ">", False),
    Condition("dblp.year", "=", 2 ** 63 - 1),
    Condition("dblp.year", "<", 2 ** 70),
    Condition("dblp.year", ">", -(2 ** 70)),
    Condition("dblp.year", "<", float("inf")),
    Condition("dblp.year", ">", float("-inf")),
    Condition("dblp.year", "!=", float("nan")),
    Condition("dblp.year", "IN", (2005, "2010", 1999.0, None, True, 2 ** 70)),
    Condition("venue", "IN", ("VLDB", 100, 1e16, None)),
    equals("venue", None),
    Condition("venue", "!=", "VL\x00DB"),
]


def inline_ids(db, predicate):
    """The inline-literal statement: ``to_sql``'s text, nothing bound."""
    return [row[0] for row in db.query_tuples(
        f"SELECT DISTINCT dblp.pid FROM {BASE_FROM}"
        f" WHERE ({predicate.to_sql()}) ORDER BY dblp.pid")]


def outcome(run, db, predicate):
    """The pids ``run`` returns, or the SQLite error it raises."""
    try:
        return run(db, predicate)
    except RelationalError as exc:
        return type(exc.__cause__), str(exc.__cause__)


@pytest.mark.parametrize(
    "predicate", PREDICATES + BINDING_EXTRAS,
    ids=[repr(pred.to_sql()) for pred in PREDICATES + BINDING_EXTRAS])
def test_bound_statement_agrees_with_inline(differential_db, predicate):
    """The query surface binds a literal only where SQLite reads the bound
    value as it reads the inline one: same pids, or the same error."""
    assert outcome(matching_paper_ids, differential_db, predicate) == \
        outcome(inline_ids, differential_db, predicate)


def test_binding_edges_are_reached(differential_db):
    """The extras cover both sides: some bind, some stay inline, some
    error inline (and so bound)."""
    bound = [pred.bound_sql[1] for pred in BINDING_EXTRAS]
    assert all(bound[:3]) and not any(bound[3:8])
    assert bound[8] == (2005, "2010", 1999.0, True)
    errors = [pred for pred in BINDING_EXTRAS
              if isinstance(outcome(inline_ids, differential_db, pred), tuple)]
    assert len(errors) == 4   # inf, -inf, nan (no such column) and the NUL
