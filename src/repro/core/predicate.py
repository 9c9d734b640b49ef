"""Typed SQL predicates.

Every HYPRE preference node stores a *predicate* — a selection condition such
as ``dblp.venue = 'INFOCOM'`` or ``year >= 2000 AND year <= 2005`` — which is
later used to enhance a user query (paper Sections 3.3 and 4.6).  This module
provides:

* an expression tree (:class:`Condition`, :class:`And`, :class:`Or`) with SQL
  rendering, in-memory evaluation against tuple dictionaries and attribute
  extraction;
* a small parser (:func:`parse_predicate`) for the textual predicates the
  workload extractor produces (equality, comparison, BETWEEN, IN, AND/OR);
* compatibility checks used by the combination algorithms: two equality
  predicates on the same attribute that no stored value equals both of can
  never be satisfied together under AND semantics (the paper's
  ``venue='SIGMOD' AND venue='VLDB'`` example).
"""

from __future__ import annotations

import math
import re
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import (Any, Callable, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..exceptions import PredicateError, PredicateParseError

#: Comparison operators supported by :class:`Condition`.
OPERATORS = ("=", "!=", "<", "<=", ">", ">=", "IN")

Value = Union[str, int, float, bool, None]


#: The range of SQLite's INTEGER storage class: an inline integer literal
#: outside it reads as a REAL (and a Python int outside it cannot be bound).
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _literal(value: Any) -> Value:
    """The value SQLite reads for the inline literal ``value``: the one rule
    every judge of a literal relies on, applied when a :class:`Condition`
    is built (SQLite datatype3.html, sections 3 and 4.2).

    ``None``, a ``str`` and an int64 ``int`` stay; a ``bool`` is the
    INTEGER 0 or 1; an ``int`` past int64 is the REAL its digits read as;
    ``-0.0`` is ``0.0``.  Refused (:class:`PredicateError`): an int past a
    float (SQLite reads ``Inf``), a NaN or infinite float (inline, ``nan``
    / ``inf`` name no column) and every other type.
    """
    kind = type(value)
    if value is None or kind is str:
        return value
    if kind is bool:
        return int(value)
    if kind is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
        try:
            return float(value)
        except OverflowError:
            raise PredicateError(f"an int literal of {value.bit_length()} bits"
                                 " reads as a non-finite REAL") from None
    if kind is float:
        if math.isfinite(value):
            return value + 0.0
        raise PredicateError(f"literals must be finite, not {value!r}")
    raise PredicateError(f"unsupported literal {value!r}")


def _sql_literal(value: Value) -> str:
    """Render a built literal as SQL (single-quoted for strings)."""
    if value is None:
        return "NULL"
    if type(value) is str:
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


@lru_cache(maxsize=4096)
def attribute_names_match(first: str, second: str) -> bool:
    """Whether two attribute references name the same column.

    A qualified name (``dblp.venue``) matches itself and its bare suffix
    (``venue``); two *differently* qualified names stay distinct.  This is
    the one normalisation rule shared by tuple-dict lookup (:func:`_lookup`)
    and row-attribute presence checks
    (:func:`repro.index.selectivity.may_match_row`) — so a predicate written
    as ``dblp.venue = 'VLDB'`` is never silently spared by a row keyed
    ``venue``, and vice versa.  Memoised: the selective-invalidation hot
    path asks this about the same few (predicate attribute, row key) pairs
    hundreds of thousands of times per replay.
    """
    if first == second:
        return True
    if "." in first and "." not in second:
        return first.split(".", 1)[1] == second
    if "." in second and "." not in first:
        return second.split(".", 1)[1] == first
    return False


def _lookup(row: Mapping[str, Any], attribute: str) -> Any:
    """Resolve ``attribute`` in a tuple dict, accepting qualified and bare names."""
    if attribute in row:
        return row[attribute]
    if "." in attribute:
        # Qualified predicate attribute over a bare-keyed joined-view row —
        # the common case on the invalidation hot path; same resolution as
        # the scan below, without walking every key.
        bare = attribute.split(".", 1)[1]
        if bare in row:
            return row[bare]
    for key, value in row.items():
        if attribute_names_match(attribute, key):
            return value
    return None


#: SQLite's numeric-literal shape for affinity conversions: optional sign,
#: digits with an optional fraction (or a bare fraction), optional exponent,
#: surrounding whitespace allowed.  Python's ``float`` is laxer — it also
#: accepts ``'1_0'``, ``'nan'``, ``'inf'`` — and every extra acceptance
#: would make evaluate diverge from the SQL engine.
_NUMERIC_LITERAL_RE = re.compile(
    r"\s*[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\s*")


def _as_number(text: str) -> Optional[Union[int, float]]:
    """The numeric value of ``text`` under SQLite's NUMERIC affinity, or None.

    Integer-shaped text within int64 converts to ``int`` — SQLite's
    conversion is exact, so going through ``float`` would silently round
    values beyond 2**53 and diverge from the SQL engine on equality.  Past
    int64 it is a REAL, as a literal's digits are (:func:`_literal`).
    """
    if _NUMERIC_LITERAL_RE.fullmatch(text):
        try:
            number = int(text)
        except ValueError:
            return float(text)
        return number if _INT64_MIN <= number <= _INT64_MAX else float(text)
    return None


@lru_cache(maxsize=4096, typed=True)
def _sqlite_text(value: Union[int, float]) -> str:
    """Render a numeric literal the way SQLite's TEXT affinity does.

    An integer is its decimal digits.  A REAL is rendered by the installed
    SQLite itself (``CAST(? AS TEXT)``, on a connection of its own, once
    per float): how many digits it keeps differs between versions — SQLite
    3.40 keeps 15, so ``0.30000000000000004`` reads ``'0.3'`` — and only
    the engine's own conversion agrees with it for every float.
    """
    if type(value) is int:
        return str(value)
    with closing(sqlite3.connect(":memory:")) as connection:
        (text,) = connection.execute("SELECT CAST(? AS TEXT)",
                                     (value,)).fetchone()
    return text


def _equality_keys(literal: Value) -> Tuple[Union[str, int, float], ...]:
    """The dict keys under which a stored value equal to ``literal`` sits.

    :func:`_compare_values` calls a text value equal to an ``=`` literal
    when it equals the literal's text (a numeric literal rendered as SQLite
    renders it), and a numeric value when it equals the literal's number (a
    text literal coerced when it is numeric-shaped).  A text key never
    equals a numeric one, and Python's ``==`` and ``hash`` agree across
    ``int``, ``float`` and ``bool``, so a lookup of these keys in one dict
    of text and number values finds exactly the values ``_compare_values``
    calls equal.  The NULL literal equals no value: ``()``.
    """
    if literal is None:
        return ()
    if type(literal) is str:
        number = _as_number(literal)
        return (literal,) if number is None else (literal, number)
    return _sqlite_text(literal), literal


def _compare_values(actual: Any, value: Any, op: str) -> bool:
    """Compare two non-NULL values the way SQLite's comparison rules do.

    ``actual`` comes from a stored tuple, so its Python type mirrors the
    column's storage class — which in this schema's typed, loader-written
    columns also identifies the column's affinity (text ⇒ TEXT column,
    number ⇒ numeric column); ``value`` is the predicate literal.  SQLite
    applies the column's affinity to the literal before comparing:

    * numeric column vs. text literal → the literal is coerced to a number
      (``year = '2005'`` matches 2005); a non-numeric literal stays TEXT and
      sorts *after* every number (``year < 'abc'`` is true for all rows);
    * text column vs. numeric literal → the literal is rendered as text and
      compared lexicographically (``venue = 100`` only matches ``'100'``).

    In-memory evaluation must mirror this, or :func:`may_match_row` would
    declare tuples irrelevant that the SQL engine in fact matches.
    """
    actual_is_number = isinstance(actual, (int, float))
    value_is_number = isinstance(value, (int, float))
    if actual_is_number and not value_is_number:
        coerced = _as_number(value)
        if coerced is not None:
            value = coerced
        else:
            # INTEGER/REAL storage vs. TEXT: numbers sort before all text.
            return op in ("!=", "<", "<=")
    elif value_is_number and not actual_is_number:
        value = _sqlite_text(value)
    try:
        if op == "=":
            return actual == value
        if op == "!=":
            return actual != value
        if op == "<":
            return actual < value
        if op == "<=":
            return actual <= value
        if op == ">":
            return actual > value
        if op == ">=":
            return actual >= value
    except TypeError:
        return False
    raise PredicateError(f"unsupported operator {op!r}")  # pragma: no cover


class PredicateExpr:
    """Base class for predicate expression nodes.

    Trees are immutable (frozen dataclasses holding tuples), so each node
    renders its SQL text, its bound statement and its conjunct key once and
    keeps them: a tree shared through :func:`parse_predicate`'s cache is
    rendered once per process, however many keys, lookups and statements
    read it.
    """

    def to_sql(self) -> str:
        """Render the expression as a SQL boolean expression, every literal
        inline (the predicate's text identity; rendered once)."""
        return self._sql

    @cached_property
    def _sql(self) -> str:
        return self._render(_sql_literal)

    @cached_property
    def bound_sql(self) -> Tuple[str, Tuple[Value, ...]]:
        """``(text, parameters)``: the SQL with each literal as a ``?`` —
        bound, a built literal means what it means inline — but ``NULL``
        and a text holding a NUL (inline, the statement is invalid), and the
        bound values in order.  Predicates of one shape share one statement
        text, so SQLite prepares it once."""
        parameters: List[Value] = []

        def bind(value: Value) -> str:
            if value is None or type(value) is str and "\x00" in value:
                return _sql_literal(value)
            parameters.append(value)
            return "?"

        return self._render(bind), tuple(parameters)

    @cached_property
    def conjunct_texts(self) -> FrozenSet[str]:
        """The SQL texts of the predicate's conjuncts — a conjunction's
        members, in no order; anything else is its own only conjunct (the
        key :meth:`~repro.index.CountCache.key` memoises counts and id lists
        under)."""
        return frozenset((self.to_sql(),))

    def _render(self, literal: Callable[[Value], str]) -> str:
        """The one SQL renderer; ``literal`` renders each literal value."""
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        """Evaluate the expression against a tuple represented as a mapping."""
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """Return the set of attribute names referenced by the expression."""
        raise NotImplementedError

    def conditions(self) -> List["Condition"]:
        """Return all leaf conditions in the expression."""
        raise NotImplementedError

    # Convenience combinators -------------------------------------------------

    def __and__(self, other: "PredicateExpr") -> "And":
        return And(_flatten(And, (self, other)))

    def __or__(self, other: "PredicateExpr") -> "Or":
        return Or(_flatten(Or, (self, other)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PredicateExpr) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def canonical(self) -> str:
        """The SQL text with each composite's children in sorted order: two
        trees are equal exactly when they render the same statement, up to
        child order."""
        return self._sql


def _flatten(kind: type, children: Iterable[PredicateExpr]) -> List[PredicateExpr]:
    """Flatten nested And(And(...)) / Or(Or(...)) structures one level deep."""
    flattened: List[PredicateExpr] = []
    for child in children:
        if isinstance(child, kind):
            flattened.extend(child.children)
        else:
            flattened.append(child)
    return flattened


@dataclass(frozen=True, eq=False)
class Condition(PredicateExpr):
    """A single ``attribute <op> value`` comparison.

    ``attribute`` may be qualified (``dblp.venue``) or bare (``year``).  For
    the ``IN`` operator ``value`` must be a sequence of literals.  Every
    literal is stored as the value SQLite reads for it (:func:`_literal`),
    so no judge downstream looks at its Python type again.
    """

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise PredicateError(f"unsupported operator {self.op!r}")
        if self.op != "IN":
            object.__setattr__(self, "value", _literal(self.value))
            return
        if not isinstance(self.value, (list, tuple, set, frozenset)):
            raise PredicateError("IN conditions require a sequence of values")
        # An empty list would render as "attr IN ()" — a SQLite syntax
        # error — so the malformed predicate is rejected at construction
        # instead of corrupting a query downstream.
        if not self.value:
            raise PredicateError("IN conditions require at least one value")
        object.__setattr__(self, "value", tuple(map(_literal, self.value)))

    # -- rendering / evaluation ------------------------------------------------

    def _render(self, literal: Callable[[Value], str]) -> str:
        if self.op == "IN":
            rendered = ", ".join(literal(item) for item in self.value)
            return f"{self.attribute} IN ({rendered})"
        return f"{self.attribute} {self.op} {literal(self.value)}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        actual = _lookup(row, self.attribute)
        # SQL three-valued logic: a NULL operand never satisfies a
        # comparison (not even != or IN), so the row can never match.
        if actual is None:
            return False
        if self.op == "IN":
            return any(item is not None and _compare_values(actual, item, "=")
                       for item in self.value)
        if self.value is None:
            return False
        return _compare_values(actual, self.value, self.op)

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.attribute})

    def conditions(self) -> List["Condition"]:
        return [self]

    def __repr__(self) -> str:
        return f"Condition({self.to_sql()})"


@dataclass(frozen=True, eq=False)
class _Composite(PredicateExpr):
    """Shared behaviour for :class:`And` / :class:`Or`.

    Equality and hashing intentionally fall back to the canonical-form
    comparison defined on :class:`PredicateExpr`, so two conjunctions with the
    same children in a different order compare equal.
    """

    children: Tuple[PredicateExpr, ...]

    _keyword = ""

    def __post_init__(self) -> None:
        if not self.children:
            raise PredicateError(f"{type(self).__name__} requires at least one child")
        object.__setattr__(self, "children", tuple(self.children))

    def _render(self, literal: Callable[[Value], str]) -> str:
        return f" {self._keyword} ".join(self._parts(
            child._render(literal) for child in self.children))

    def _parts(self, texts: Iterable[str]) -> List[str]:
        """One text per child, a child of the other composite kind's
        parenthesised."""
        return [f"({text})" if isinstance(child, _Composite)
                and type(child) is not type(self) else text
                for child, text in zip(self.children, texts)]

    def attributes(self) -> FrozenSet[str]:
        collected: FrozenSet[str] = frozenset()
        for child in self.children:
            collected |= child.attributes()
        return collected

    def conditions(self) -> List[Condition]:
        leaves: List[Condition] = []
        for child in self.children:
            leaves.extend(child.conditions())
        return leaves

    def canonical(self) -> str:
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        return f" {self._keyword} ".join(sorted(self._parts(
            child.canonical() for child in self.children)))


class And(_Composite):
    """Conjunction of predicate expressions."""

    _keyword = "AND"

    @cached_property
    def conjunct_texts(self) -> FrozenSet[str]:
        return frozenset(child.to_sql() for child in self.children)

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return all(child.evaluate(row) for child in self.children)

    def __repr__(self) -> str:
        return f"And({self.to_sql()})"


class Or(_Composite):
    """Disjunction of predicate expressions."""

    _keyword = "OR"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return any(child.evaluate(row) for child in self.children)

    def __repr__(self) -> str:
        return f"Or({self.to_sql()})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def equals(attribute: str, value: Value) -> Condition:
    """``attribute = value``."""
    return Condition(attribute, "=", value)


def not_equals(attribute: str, value: Value) -> Condition:
    """``attribute != value``."""
    return Condition(attribute, "!=", value)


def in_set(attribute: str, values: Sequence[Value]) -> Condition:
    """``attribute IN (values...)``."""
    return Condition(attribute, "IN", tuple(values))


def between(attribute: str, low: Value, high: Value) -> And:
    """``attribute >= low AND attribute <= high`` (the paper's year ranges)."""
    return And((Condition(attribute, ">=", low), Condition(attribute, "<=", high)))


def conjunction(parts: Iterable[PredicateExpr]) -> PredicateExpr:
    """AND-combine ``parts`` (a single part is returned unchanged)."""
    items = _flatten(And, parts)
    if not items:
        raise PredicateError("cannot build an empty conjunction")
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def disjunction(parts: Iterable[PredicateExpr]) -> PredicateExpr:
    """OR-combine ``parts`` (a single part is returned unchanged)."""
    items = _flatten(Or, parts)
    if not items:
        raise PredicateError("cannot build an empty disjunction")
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


# ---------------------------------------------------------------------------
# Compatibility analysis
# ---------------------------------------------------------------------------


def are_and_compatible(first: PredicateExpr, second: PredicateExpr) -> bool:
    """Return ``False`` when ``first AND second`` is trivially unsatisfiable.

    The check is intentionally conservative (syntactic): it only detects the
    pattern the paper highlights — two equality (or IN) conditions on the same
    attribute no stored value equals both of, such as ``venue='SIGMOD' AND
    venue='VLDB'`` (but not ``venue = '1' AND venue = 1``).  Range conditions
    and different attributes are always considered compatible.
    """
    for cond_a in first.conditions():
        for cond_b in second.conditions():
            if cond_a.attribute != cond_b.attribute:
                continue
            values_a = _equality_values(cond_a)
            values_b = _equality_values(cond_b)
            if values_a is None or values_b is None:
                continue
            if not values_a & values_b:
                return False
    return True


def _equality_values(condition: Condition) -> Optional[FrozenSet[Any]]:
    """The keys of the stored values an equality/IN condition accepts
    (:func:`_equality_keys`), else ``None``."""
    if condition.op not in ("=", "IN"):
        return None
    items = condition.value if condition.op == "IN" else (condition.value,)
    return frozenset(key for item in items for key in _equality_keys(item))


def shared_attributes(first: PredicateExpr, second: PredicateExpr) -> FrozenSet[str]:
    """Attributes referenced by both expressions (drives AND_OR semantics)."""
    return first.attributes() & second.attributes()


def same_attribute(first: PredicateExpr, second: PredicateExpr) -> bool:
    """``True`` when the two predicates reference exactly the same attributes."""
    return first.attributes() == second.attributes()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(
        \(|\)|,                                  # punctuation
        |(?:>=|<=|!=|<>|=|<|>)                   # comparison operators
        |'(?:[^']|'')*'                          # single-quoted string
        |"(?:[^"]|"")*"                          # double-quoted string
        |[A-Za-z_][A-Za-z0-9_.]*                 # identifiers / keywords
        |-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?  # numbers (SQLite's shape)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "IN", "BETWEEN", "NOT"}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        # Skip whitespace explicitly: the token pattern itself must match a
        # real token, so residual whitespace (e.g. a trailing blank) ends the
        # scan cleanly instead of raising.
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PredicateParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def _literal_from_token(token: str) -> Value:
    if token.upper() == "NULL":
        # The SQL null literal, as ``Condition(attr, op, None)`` renders it.
        return None
    if token.startswith("'") and token.endswith("'"):
        return token[1:-1].replace("''", "'")
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1].replace('""', '"')
    try:
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        return float(token)
    except ValueError:
        # Unquoted word used as a value (the paper writes venue=INFOCOM).
        return token


class _Parser:
    """Recursive-descent parser for the predicate mini-language.

    Grammar (case-insensitive keywords)::

        expr     := term (OR term)*
        term     := factor (AND factor)*
        factor   := '(' expr ')' | comparison
        comparison := attr op literal
                    | attr IN '(' literal (',' literal)* ')'
                    | attr BETWEEN literal AND literal
    """

    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise PredicateParseError("unexpected end of predicate")
        self.pos += 1
        return token

    def expect(self, expected: str) -> None:
        token = self.next()
        if token.upper() != expected.upper():
            raise PredicateParseError(f"expected {expected!r}, found {token!r}")

    def parse(self) -> PredicateExpr:
        expr = self.parse_expr()
        if self.peek() is not None:
            raise PredicateParseError(f"trailing tokens starting at {self.peek()!r}")
        return expr

    def parse_expr(self) -> PredicateExpr:
        parts = [self.parse_term()]
        while self.peek() is not None and self.peek().upper() == "OR":
            self.next()
            parts.append(self.parse_term())
        return disjunction(parts)

    def parse_term(self) -> PredicateExpr:
        parts = [self.parse_factor()]
        while self.peek() is not None and self.peek().upper() == "AND":
            self.next()
            parts.append(self.parse_factor())
        return conjunction(parts)

    def parse_factor(self) -> PredicateExpr:
        token = self.peek()
        if token == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> PredicateExpr:
        attribute = self.next()
        if attribute.upper() in _KEYWORDS or attribute in {"(", ")", ","}:
            raise PredicateParseError(f"expected attribute name, found {attribute!r}")
        operator = self.next()
        upper = operator.upper()
        if upper == "IN":
            self.expect("(")
            if self.peek() == ")":
                raise PredicateParseError("IN requires at least one value")
            values: List[Value] = [_literal_from_token(self.next())]
            while self.peek() == ",":
                self.next()
                values.append(_literal_from_token(self.next()))
            self.expect(")")
            return in_set(attribute, values)
        if upper == "BETWEEN":
            low = _literal_from_token(self.next())
            self.expect("AND")
            high = _literal_from_token(self.next())
            return between(attribute, low, high)
        if operator == "<>":
            operator = "!="
        if operator not in OPERATORS:
            raise PredicateParseError(f"unsupported operator {operator!r}")
        value = _literal_from_token(self.next())
        return Condition(attribute, operator, value)


@lru_cache(maxsize=8192)
def _parse_predicate_cached(text: str) -> PredicateExpr:
    """Memoised parser body (see :func:`parse_predicate`).

    Caching is sound because expression trees are immutable (frozen
    dataclasses holding tuples), so every caller may share one instance.
    What still leans on it: a data-mutation sweep parses each distinct
    *conjunct* text of the count and id-list keys once per mutation
    (:class:`~repro.index.selectivity.RowMatch` — never a whole conjunction),
    and every cold-read build parses the user's persisted preference texts.
    Parse errors are not cached (``lru_cache`` re-raises by re-running), so
    failure behaviour is unchanged.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PredicateParseError("empty predicate")
    return _Parser(tokens).parse()


def parse_predicate(text: str) -> PredicateExpr:
    """Parse a textual SQL predicate into an expression tree.

    Repeated parses of the same text return one shared immutable tree (the
    serving layer's invalidation sweeps parse the same conjunct texts on
    every mutation).

    Examples
    --------
    >>> parse_predicate("dblp.venue='VLDB' AND year>=2010").to_sql()
    "dblp.venue = 'VLDB' AND year >= 2010"
    >>> parse_predicate("venue IN ('CIKM', 'SIGMOD')").to_sql()
    "venue IN ('CIKM', 'SIGMOD')"
    """
    if not text or not text.strip():
        raise PredicateParseError("empty predicate")
    return _parse_predicate_cached(text)


def ensure_predicate(value: Union[str, PredicateExpr]) -> PredicateExpr:
    """Accept either a predicate expression or its textual form."""
    if isinstance(value, PredicateExpr):
        return value
    if isinstance(value, str):
        return parse_predicate(value)
    raise PredicateError(f"cannot interpret {value!r} as a predicate")


def predicate_key(value: Union[str, PredicateExpr]) -> str:
    """A normalised string identity for a predicate (used for node dedup)."""
    return ensure_predicate(value).to_sql()
