"""Unit tests for predicate construction, parsing, evaluation and compatibility."""

from __future__ import annotations

import math
import sqlite3
from contextlib import closing
from decimal import Decimal

import pytest

from repro.core.predicate import (
    And, Condition, Or, _sqlite_text, are_and_compatible, attribute_names_match,
    between, conjunction, disjunction, ensure_predicate, equals, in_set,
    not_equals, parse_predicate, predicate_key, same_attribute, shared_attributes)
from repro.exceptions import PredicateError, PredicateParseError


class TestConditionConstruction:
    def test_equals_renders_quoted_strings(self):
        assert equals("dblp.venue", "VLDB").to_sql() == "dblp.venue = 'VLDB'"

    def test_equals_renders_numbers_unquoted(self):
        assert equals("year", 2010).to_sql() == "year = 2010"

    def test_not_equals(self):
        assert not_equals("venue", "PODS").to_sql() == "venue != 'PODS'"

    def test_in_set_renders_all_values(self):
        sql = in_set("make", ["BMW", "Honda"]).to_sql()
        assert sql == "make IN ('BMW', 'Honda')"

    def test_empty_in_rejected_at_construction(self):
        # "venue IN ()" is a SQLite syntax error, so the malformed predicate
        # must never survive construction — by either path.
        with pytest.raises(PredicateError, match="at least one value"):
            Condition("venue", "IN", ())
        with pytest.raises(PredicateError, match="at least one value"):
            in_set("venue", [])

    @pytest.mark.parametrize("literal", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_equality_literal_rejected_at_construction(self,
                                                                  literal):
        # Inline, ``nan`` / ``inf`` name no column: SQLite refuses the
        # statement, so the predicate must not be built for a sweep or the
        # columnar engine to answer either.
        with pytest.raises(PredicateError, match="finite"):
            equals("venue", literal)
        with pytest.raises(PredicateError, match="finite"):
            in_set("venue", ["VLDB", literal])

    @pytest.mark.parametrize("op, literal", [
        ("<", math.inf), (">", -math.inf), ("!=", math.nan), ("<=", math.nan),
        (">=", -math.inf), ("<", 10 ** 400)], ids=[
            "lt-inf", "gt--inf", "ne-nan", "le-nan", "ge--inf", "lt-10**400"])
    def test_non_finite_range_literal_rejected_at_construction(self, op,
                                                               literal):
        # One finiteness rule for every operator: SQLite refuses
        # ``year < inf`` as it refuses ``year = inf`` (400 digits read as Inf).
        with pytest.raises(PredicateError, match="finite"):
            Condition("dblp.year", op, literal)

    def test_a_literal_of_another_type_is_refused(self):
        with pytest.raises(PredicateError, match="unsupported literal"):
            in_set("dblp.year", [2005, Decimal("2005")])

    def test_in_requires_sequence(self):
        with pytest.raises(PredicateError):
            Condition("make", "IN", "BMW")

    def test_between_builds_two_conditions(self):
        expr = between("year", 2000, 2005)
        assert expr.to_sql() == "year >= 2000 AND year <= 2005"

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            Condition("a", "LIKE", "x")

    def test_string_with_quote_is_escaped(self):
        assert equals("venue", "O'Reilly").to_sql() == "venue = 'O''Reilly'"


class TestEvaluation:
    def test_equality_against_row(self):
        assert equals("venue", "VLDB").evaluate({"venue": "VLDB"})
        assert not equals("venue", "VLDB").evaluate({"venue": "PODS"})

    def test_qualified_attribute_matches_bare_column(self):
        predicate = equals("dblp.venue", "VLDB")
        assert predicate.evaluate({"venue": "VLDB"})
        assert predicate.evaluate({"dblp.venue": "VLDB"})

    def test_bare_attribute_matches_qualified_column(self):
        assert equals("venue", "VLDB").evaluate({"dblp.venue": "VLDB"})

    def test_range_evaluation(self):
        expr = between("price", 7000, 16000)
        assert expr.evaluate({"price": 7000})
        assert expr.evaluate({"price": 16000})
        assert not expr.evaluate({"price": 20000})

    def test_in_evaluation(self):
        expr = in_set("make", ["BMW", "Honda"])
        assert expr.evaluate({"make": "Honda"})
        assert not expr.evaluate({"make": "VW"})

    def test_missing_attribute_is_false(self):
        assert not equals("venue", "VLDB").evaluate({"year": 2000})

    def test_type_mismatch_follows_sqlite_ordering(self):
        # SQLite sorts every TEXT value after every number, so a non-numeric
        # string is > any numeric literal — evaluate must agree (see the
        # differential tests in test_predicate_sqlite_differential.py).
        assert Condition("year", ">", 2000).evaluate({"year": "not-a-number"})
        assert not Condition("year", "<", 2000).evaluate({"year": "not-a-number"})
        assert not Condition("year", "=", 2000).evaluate({"year": "not-a-number"})

    def test_and_or_evaluation(self):
        expr = Or((equals("make", "BMW"),
                   And((equals("make", "Honda"), Condition("price", "<", 10000)))))
        assert expr.evaluate({"make": "Honda", "price": 7000})
        assert expr.evaluate({"make": "BMW", "price": 99999})
        assert not expr.evaluate({"make": "Honda", "price": 20000})


class TestComposition:
    def test_conjunction_flattens(self):
        expr = conjunction([equals("a", 1), conjunction([equals("b", 2), equals("c", 3)])])
        assert expr.to_sql() == "a = 1 AND b = 2 AND c = 3"

    def test_disjunction_flattens(self):
        expr = disjunction([equals("a", 1), disjunction([equals("b", 2)])])
        assert expr.to_sql() == "a = 1 OR b = 2"

    def test_single_item_composition_returns_item(self):
        single = equals("a", 1)
        assert conjunction([single]) is single
        assert disjunction([single]) is single

    def test_empty_composition_raises(self):
        with pytest.raises(PredicateError):
            conjunction([])
        with pytest.raises(PredicateError):
            disjunction([])

    def test_nested_or_inside_and_gets_parentheses(self):
        expr = And((equals("venue", "VLDB"),
                    Or((equals("aid", 1), equals("aid", 2)))))
        assert expr.to_sql() == "venue = 'VLDB' AND (aid = 1 OR aid = 2)"

    def test_operator_overloads(self):
        expr = equals("a", 1) & equals("b", 2)
        assert isinstance(expr, And)
        expr = equals("a", 1) | equals("b", 2)
        assert isinstance(expr, Or)

    def test_attributes_collected_across_tree(self):
        expr = And((equals("dblp.venue", "VLDB"), equals("dblp_author.aid", 2)))
        assert expr.attributes() == frozenset({"dblp.venue", "dblp_author.aid"})

    def test_conditions_lists_leaves(self):
        expr = And((equals("a", 1), Or((equals("b", 2), equals("c", 3)))))
        assert len(expr.conditions()) == 3

    def test_equality_ignores_child_order(self):
        first = And((equals("a", 1), equals("b", 2)))
        second = And((equals("b", 2), equals("a", 1)))
        assert first == second
        assert hash(first) == hash(second)

    def test_equality_is_the_sql_text(self):
        # On a TEXT column ``a = 1`` selects '1' and ``a = 1.0`` '1.0'.
        assert equals("a", 1) != equals("a", 1.0)
        assert And((in_set("a", [1]), in_set("a", [False]))) == parse_predicate(
            "a IN (0) AND a IN (1)")

    def test_and_is_not_equal_to_or(self):
        assert And((equals("a", 1), equals("b", 2))) != Or((equals("a", 1), equals("b", 2)))


class TestParsing:
    def test_parse_simple_equality(self):
        expr = parse_predicate("dblp.venue = 'VLDB'")
        assert expr == equals("dblp.venue", "VLDB")

    def test_parse_unquoted_value(self):
        expr = parse_predicate("venue=INFOCOM")
        assert expr == equals("venue", "INFOCOM")

    def test_parse_numeric_comparison(self):
        expr = parse_predicate("year >= 2009")
        assert expr == Condition("year", ">=", 2009)

    def test_parse_float(self):
        expr = parse_predicate("score > 0.5")
        assert expr == Condition("score", ">", 0.5)

    @pytest.mark.parametrize("text, value", [
        ("1e+16", 1e16), ("1.5e3", 1500.0), (".5", 0.5), ("1.", 1.0),
        ("-2.5E-3", -0.0025), ("17", 17), ("e5", "e5")])
    def test_parse_numeric_literal_shapes(self, text, value):
        """SQLite's numeric-literal shape, exponent forms included; a bare
        word that merely looks like an exponent stays a word."""
        parsed = parse_predicate(f"venue = {text}").value
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("value", [1e16, 1.5e300, 1e-7, -2.5e20, 0.5, 3])
    def test_rendered_numeric_literal_parses_back(self, value):
        condition = Condition("dblp.venue", "=", value)
        assert parse_predicate(condition.to_sql()) == condition

    @pytest.mark.parametrize("text, condition", [
        ("dblp.venue = NULL", Condition("dblp.venue", "=", None)),
        ("dblp.venue != null", Condition("dblp.venue", "!=", None)),
        ("dblp.venue IN ('VLDB', Null)",
         Condition("dblp.venue", "IN", ("VLDB", None))),
        ("dblp.venue = 'NULL'", Condition("dblp.venue", "=", "NULL"))])
    def test_null_literal_parses_back(self, text, condition):
        """A bare ``NULL`` (any case) is the SQL null literal, also inside
        ``IN (…)``; the quoted text ``'NULL'`` stays text."""
        assert parse_predicate(text) == condition
        assert parse_predicate(condition.to_sql()) == condition

    def test_parse_and(self):
        expr = parse_predicate("year>=2000 AND year<=2005")
        assert expr == between("year", 2000, 2005)

    def test_parse_or_and_precedence(self):
        expr = parse_predicate("venue='A' OR venue='B' AND year>2000")
        # AND binds tighter than OR.
        assert isinstance(expr, Or)
        assert len(expr.children) == 2

    def test_parse_parentheses(self):
        expr = parse_predicate("(venue='A' OR venue='B') AND year>2000")
        assert isinstance(expr, And)

    def test_parse_in(self):
        expr = parse_predicate("venue IN ('CIKM', 'SIGMOD')")
        assert expr == in_set("venue", ["CIKM", "SIGMOD"])

    def test_parse_between(self):
        expr = parse_predicate("price BETWEEN 7000 AND 16000")
        assert expr == between("price", 7000, 16000)

    def test_parse_not_equal_variants(self):
        assert parse_predicate("a != 1") == parse_predicate("a <> 1")

    def test_parse_double_quotes(self):
        expr = parse_predicate('venue = "PODS"')
        assert expr == equals("venue", "PODS")

    def test_parse_empty_raises(self):
        with pytest.raises(PredicateParseError):
            parse_predicate("   ")

    def test_parse_tolerates_residual_whitespace(self):
        # Trailing/leading blanks used to crash the tokenizer with
        # "unexpected character at ' '".
        assert parse_predicate("venue = 'VLDB' ") == equals("venue", "VLDB")
        assert parse_predicate("  venue = 'VLDB'") == equals("venue", "VLDB")
        assert (parse_predicate("\tyear >= 2010  \n")
                == Condition("year", ">=", 2010))

    def test_parse_empty_in_raises(self):
        with pytest.raises(PredicateParseError, match="at least one value"):
            parse_predicate("venue IN ()")

    @pytest.mark.parametrize("text", [
        "venue = nan", "year = 1e999", "year = -1e999", "venue = Infinity",
        "venue IN ('VLDB', nan)", "year IN (2005, 1e999)",
        "dblp.year < 1e999", "dblp.year > -1e999", "dblp.year != nan"])
    def test_parse_non_finite_equality_raises(self, text):
        with pytest.raises(PredicateError, match="finite"):
            parse_predicate(text)

    def test_parse_trailing_tokens_raise(self):
        with pytest.raises(PredicateParseError):
            parse_predicate("a = 1 b = 2")

    def test_parse_missing_value_raises(self):
        with pytest.raises(PredicateParseError):
            parse_predicate("a =")

    def test_parse_keyword_as_attribute_raises(self):
        with pytest.raises(PredicateParseError):
            parse_predicate("AND = 1")

    def test_roundtrip_sql(self):
        text = "dblp.venue = 'VLDB' AND year >= 2010"
        assert parse_predicate(text).to_sql() == text

    def test_ensure_predicate_accepts_both_forms(self):
        expr = equals("a", 1)
        assert ensure_predicate(expr) is expr
        assert ensure_predicate("a = 1") == expr
        with pytest.raises(PredicateError):
            ensure_predicate(42)

    def test_predicate_key_is_normalised_sql(self):
        assert predicate_key("venue='VLDB'") == "venue = 'VLDB'"


class TestAttributeNameMatching:
    def test_exact_and_suffix_matches(self):
        assert attribute_names_match("venue", "venue")
        assert attribute_names_match("dblp.venue", "dblp.venue")
        assert attribute_names_match("dblp.venue", "venue")
        assert attribute_names_match("venue", "dblp.venue")

    def test_distinct_names_do_not_match(self):
        assert not attribute_names_match("venue", "year")
        assert not attribute_names_match("dblp.venue", "author.venue")
        assert not attribute_names_match("dblp.venue", "dblp.year")


class TestCompatibility:
    def test_different_venues_incompatible(self):
        assert not are_and_compatible(equals("venue", "SIGMOD"), equals("venue", "VLDB"))

    def test_same_venue_compatible(self):
        assert are_and_compatible(equals("venue", "VLDB"), equals("venue", "VLDB"))

    def test_different_attributes_compatible(self):
        assert are_and_compatible(equals("venue", "VLDB"), equals("aid", 12))

    def test_ranges_always_considered_compatible(self):
        assert are_and_compatible(Condition("year", ">", 2010), Condition("year", "<", 2000))

    def test_in_sets_with_overlap_compatible(self):
        assert are_and_compatible(in_set("make", ["BMW", "Honda"]), equals("make", "Honda"))
        assert not are_and_compatible(in_set("make", ["BMW"]), equals("make", "Honda"))

    def test_shared_and_same_attributes(self):
        venue_a = equals("dblp.venue", "A")
        venue_b = equals("dblp.venue", "B")
        author = equals("dblp_author.aid", 3)
        assert shared_attributes(venue_a, venue_b) == frozenset({"dblp.venue"})
        assert same_attribute(venue_a, venue_b)
        assert not same_attribute(venue_a, author)
        assert shared_attributes(venue_a, author) == frozenset()


class TestFloatLiteralText:
    """A float literal compares with a TEXT column as the text the installed
    SQLite converts it to, whatever that version's digits."""

    FLOATS = [0.1 + 0.2, 0.1, -0.0, 0.0, 1e16, 1e-05, 2.5, 100.0,
              123456789012345678.0, 1 / 3, 5e-324, 1.7976931348623157e308]

    @staticmethod
    def sqlite_text(value):
        with closing(sqlite3.connect(":memory:")) as connection:
            return connection.execute("SELECT CAST(? AS TEXT)",
                                      (value,)).fetchone()[0]

    @pytest.mark.parametrize("value", FLOATS, ids=repr)
    def test_rendering_is_sqlites(self, value):
        assert _sqlite_text(value) == self.sqlite_text(value)

    @pytest.mark.parametrize("value", FLOATS, ids=repr)
    def test_evaluate_matches_what_sqlite_matches(self, value):
        with closing(sqlite3.connect(":memory:")) as connection:
            connection.execute("CREATE TABLE t (venue TEXT)")
            texts = [repr(value), self.sqlite_text(value), "0.3"]
            connection.executemany("INSERT INTO t VALUES (?)",
                                   [(text,) for text in texts])
            matched = {text for (text,) in connection.execute(
                "SELECT venue FROM t WHERE venue = ?", (value,))}
        assert {text for text in texts
                if equals("venue", value).evaluate({"venue": text})} == matched
