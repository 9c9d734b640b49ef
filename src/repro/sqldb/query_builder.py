"""SQL SELECT construction helpers.

The combination algorithms repeatedly build queries of the shape::

    SELECT COUNT(DISTINCT dblp.pid)
    FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid
    WHERE <preference predicate combination>;

:class:`SelectQuery` provides a small fluent builder for that shape, and the
module-level helpers run the two variants (count / id list) the algorithms
need against a :class:`~repro.sqldb.database.Database`.

Every statement is a ``(sql, parameters)`` pair: a predicate's literals are
bound as ``?`` parameters (:attr:`~repro.core.predicate.PredicateExpr.bound_sql`
says which), so predicates of one shape — ``dblp.venue = 'A'`` and
``dblp.venue = 'B'`` — run one statement text that sqlite3's statement
cache prepares once.

The helpers take the database as a duck-typed first argument (anything with
``count`` / ``query_tuples`` / ``query_scalars``) rather than importing
:class:`Database` — this module sits *below* the connection wrapper so the
wrapper itself can expose the helpers as its
:class:`~repro.backend.protocol.StorageBackend` surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..core.predicate import PredicateExpr, ensure_predicate
from ..exceptions import QueryBuildError
from .schema import BASE_FROM

#: A runnable statement: SQL text with ``?`` placeholders and their values.
Statement = Tuple[str, Tuple[Any, ...]]


@dataclass
class SelectQuery:
    """A composable SELECT statement.

    A string condition is SQL, copied verbatim; a predicate expression adds
    its :attr:`~repro.core.predicate.PredicateExpr.bound_sql` text and binds
    its values (see :meth:`statement`).

    Example
    -------
    >>> sql, parameters = (SelectQuery(columns=["COUNT(DISTINCT dblp.pid)"])
    ...                    .where(parse_predicate("dblp.venue = 'VLDB'"))
    ...                    .statement())
    """

    columns: Sequence[str] = ("*",)
    from_clause: str = BASE_FROM
    _conditions: List[str] = field(default_factory=list)
    _parameters: List[Any] = field(default_factory=list)
    _order_by: Optional[str] = None
    _limit: Optional[int] = None
    distinct: bool = False

    def where(self, condition: Union[str, PredicateExpr]) -> "SelectQuery":
        """AND-append a condition (a SQL string or a predicate expression)."""
        if isinstance(condition, PredicateExpr):
            rendered, parameters = condition.bound_sql
        else:
            rendered, parameters = str(condition).strip(), ()
        if not rendered:
            raise QueryBuildError("empty WHERE condition")
        self._conditions.append(rendered)
        self._parameters.extend(parameters)
        return self

    def order_by(self, clause: str) -> "SelectQuery":
        """Set the ORDER BY clause (pass the full expression, e.g. ``year DESC``)."""
        self._order_by = clause
        return self

    def limit(self, count: int) -> "SelectQuery":
        """Set a LIMIT; must be non-negative."""
        if count < 0:
            raise QueryBuildError("LIMIT must be non-negative")
        self._limit = count
        return self

    def statement(self) -> Statement:
        """``(to_sql(), parameters)`` — what a database runs: the values
        bound to the ``?`` placeholders, in order."""
        return self.to_sql(), tuple(self._parameters)

    def to_sql(self) -> str:
        """Render the statement as SQL text (``?`` for each bound value)."""
        if not self.columns:
            raise QueryBuildError("a SELECT needs at least one column")
        select_kw = "SELECT DISTINCT" if self.distinct else "SELECT"
        parts = [f"{select_kw} {', '.join(self.columns)}", f"FROM {self.from_clause}"]
        if self._conditions:
            wrapped = [f"({condition})" for condition in self._conditions]
            parts.append("WHERE " + " AND ".join(wrapped))
        if self._order_by:
            parts.append(f"ORDER BY {self._order_by}")
        if self._limit is not None:
            parts.append(f"LIMIT {self._limit}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_sql()


def count_query(predicate: Union[str, PredicateExpr, None] = None) -> Statement:
    """The paper's base counting query, optionally enhanced with a predicate."""
    query = SelectQuery(columns=["COUNT(DISTINCT dblp.pid)"])
    if predicate is not None:
        query.where(ensure_predicate(predicate))
    return query.statement()


def paper_ids_query(predicate: Union[str, PredicateExpr, None] = None,
                    limit: Optional[int] = None) -> Statement:
    """Query returning the distinct paper ids matching ``predicate``."""
    query = SelectQuery(columns=["dblp.pid"], distinct=True)
    if predicate is not None:
        query.where(ensure_predicate(predicate))
    query.order_by("dblp.pid")
    if limit is not None:
        query.limit(limit)
    return query.statement()


def count_matching_papers(db: Any,
                          predicate: Union[str, PredicateExpr, None] = None) -> int:
    """Number of distinct papers matching ``predicate`` (whole table when ``None``)."""
    return db.count(*count_query(predicate))


#: SQLite's default SQLITE_MAX_COMPOUND_SELECT is 500; staying well below it
#: keeps the batched statement valid on stock builds.
BATCH_COUNT_CHUNK = 200


def batched_count_query(predicates: Sequence[Union[str, PredicateExpr]]) -> Statement:
    """One UNION ALL statement counting every predicate in ``predicates``.

    Each arm of the compound SELECT carries its position so the caller can
    map the returned rows back to the input order::

        SELECT 0 AS ord, COUNT(DISTINCT dblp.pid) FROM ... WHERE (p0)
        UNION ALL SELECT 1, COUNT(DISTINCT dblp.pid) FROM ... WHERE (p1) ...

    This is the round-trip collapse the shared count cache relies on: many
    logical ``count()`` calls become a single statement.  The parameters
    are every arm's, in arm order.
    """
    if not predicates:
        raise QueryBuildError("batched count requires at least one predicate")
    arms: List[str] = []
    parameters: List[Any] = []
    for position, predicate in enumerate(predicates):
        sql, bound = (SelectQuery(columns=[f"{position} AS ord", "COUNT(DISTINCT dblp.pid) AS n"])
                      .where(ensure_predicate(predicate)).statement())
        arms.append(sql)
        parameters.extend(bound)
    return " UNION ALL ".join(arms), tuple(parameters)


def count_matching_papers_many(db: Any,
                               predicates: Sequence[Union[str, PredicateExpr]],
                               chunk_size: int = BATCH_COUNT_CHUNK) -> List[int]:
    """Counts for many predicates using one statement per ``chunk_size`` arms.

    Returns one count per input predicate, in input order.
    """
    counts: List[int] = [0] * len(predicates)
    for offset in range(0, len(predicates), chunk_size):
        chunk = predicates[offset:offset + chunk_size]
        rows = db.query_tuples(*batched_count_query(chunk))
        for position, value in rows:
            counts[offset + int(position)] = int(value)
    return counts


def matching_paper_ids(db: Any,
                       predicate: Union[str, PredicateExpr, None] = None,
                       limit: Optional[int] = None) -> List[int]:
    """Distinct paper ids matching ``predicate``, ordered by pid."""
    return db.query_scalars(*paper_ids_query(predicate, limit))
