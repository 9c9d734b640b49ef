"""SQLite relational substrate: schema, connection, query building, enhancement.

Public API
----------
Connection (:mod:`repro.sqldb.database`)
    :class:`Database` — SQLite wrapper owning one connection, with
    execute/query helpers, statement/row accounting
    (``statements_executed`` / ``rows_touched``) and data-mutation
    subscriptions.  Since the backend split it carries the full
    :class:`~repro.backend.protocol.StorageBackend` surface — it *is* the
    SQLite engine :func:`repro.backend.create_backend` returns for
    ``"sqlite"``.

Data-update events (:mod:`repro.sqldb.events`)
    :class:`DataMutation` — the tuple-mutation notification carrying the
    pre-image (``old_rows``) and post-image (``rows``) joined-view rows a
    change removed/added; :meth:`DataMutation.invalidation_rows` is their
    union — the full set of rows a *sound* cache-invalidation check must
    test predicates against (consumed by :mod:`repro.serving`; contract in
    ``docs/INVALIDATION.md``).
    ``TUPLES_INSERTED`` / ``TUPLES_DELETED`` / ``TUPLES_UPDATED`` — the
    event kinds emitted by the loader's mutation API
    (``DATA_MUTATION_KINDS`` lists all three).

Schema (:mod:`repro.sqldb.schema`)
    ``TABLES`` — table name → DDL for the DBLP workload.
    ``BASE_FROM`` / ``BASE_COUNT_QUERY`` / ``BASE_SELECT_QUERY`` — the
    canonical join and base queries every enhanced query starts from.
    :func:`create_schema` / :func:`drop_schema` — (idempotent) DDL execution.
    :func:`existing_tables` / :func:`verify_schema` — presence checks.
    :func:`table_counts` — row counts per table (Table 10).

Query building (:mod:`repro.sqldb.query_builder`)
    :class:`SelectQuery` — small fluent SELECT builder; a predicate's
    literals become bound ``?`` parameters, so every statement builder
    returns ``(sql, parameters)``.
    :func:`count_query` / :func:`count_matching_papers` — single-predicate
    counting.
    :func:`batched_count_query` / :func:`count_matching_papers_many` — many
    predicate counts in one compound statement (used by the count cache).
    :func:`paper_ids_query` / :func:`matching_paper_ids` — id-list queries.

Query enhancement (:mod:`repro.sqldb.enhancer`)
    :class:`EnhancedQuery` — a base query enhanced with preferences.
    :func:`enhance_query` — build the mixed-clause enhanced query (§4.6).
    :func:`conjunctive_clause` / :func:`disjunctive_clause` /
    :func:`mixed_clause` — the three clause-combination policies.
    :func:`group_by_attribute` — group preferences per attribute set.
    :func:`covered_paper_ids` / :func:`rank_tuples` — execute and rank.
"""

from .database import Database
from .events import (
    DATA_MUTATION_KINDS,
    TUPLES_DELETED,
    TUPLES_INSERTED,
    TUPLES_UPDATED,
    DataMutation,
)
from .enhancer import (
    EnhancedQuery,
    conjunctive_clause,
    covered_paper_ids,
    disjunctive_clause,
    enhance_query,
    group_by_attribute,
    mixed_clause,
    rank_tuples,
)
from .query_builder import (
    SelectQuery,
    batched_count_query,
    count_matching_papers,
    count_matching_papers_many,
    count_query,
    matching_paper_ids,
    paper_ids_query,
)
from .schema import (
    BASE_COUNT_QUERY,
    BASE_FROM,
    BASE_SELECT_QUERY,
    TABLES,
    create_schema,
    drop_schema,
    existing_tables,
    table_counts,
    verify_schema,
)

__all__ = [
    "BASE_COUNT_QUERY",
    "BASE_FROM",
    "BASE_SELECT_QUERY",
    "DATA_MUTATION_KINDS",
    "Database",
    "DataMutation",
    "EnhancedQuery",
    "SelectQuery",
    "TABLES",
    "TUPLES_DELETED",
    "TUPLES_INSERTED",
    "TUPLES_UPDATED",
    "batched_count_query",
    "conjunctive_clause",
    "count_matching_papers",
    "count_matching_papers_many",
    "count_query",
    "covered_paper_ids",
    "create_schema",
    "disjunctive_clause",
    "drop_schema",
    "enhance_query",
    "existing_tables",
    "group_by_attribute",
    "matching_paper_ids",
    "mixed_clause",
    "paper_ids_query",
    "rank_tuples",
    "table_counts",
    "verify_schema",
]
