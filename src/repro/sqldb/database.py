"""Connection management for the SQLite workload database.

:class:`Database` is a thin, explicit wrapper around :mod:`sqlite3` that

* owns one connection (file-backed or in-memory),
* creates the workload schema on demand,
* exposes ``execute`` / ``query`` / ``query_one`` / ``executemany`` helpers
  returning plain tuples or dict rows,
* supports use as a context manager so tests and examples always close the
  connection; after :meth:`Database.close` every statement raises a clear
  :class:`~repro.exceptions.RelationalError` instead of a raw sqlite3 error,
* notifies subscribers with a :class:`~repro.sqldb.events.DataMutation`
  whenever the loader's append API inserts new workload tuples — the signal
  the serving layer's caches invalidate on.

It replaces the MySQL + JDBC stack of the paper's prototype with an embedded
engine while keeping the exact SQL surface used by the algorithms.

Since the backend split (:mod:`repro.backend`) this class is also **the
SQLite implementation of the** :class:`~repro.backend.protocol.StorageBackend`
**protocol**: the narrow query surface every consumer is wired against
(:meth:`count_matching` / :meth:`count_many` / :meth:`matching_paper_ids` /
:meth:`joined_rows`), the mutation surface with pre-/post-image capture
(:meth:`load_dataset` / :meth:`append_papers` / :meth:`delete_papers` /
:meth:`update_papers` / profile round-trips) and the op accounting
(:attr:`statements_executed`, :attr:`rows_touched`).
:func:`repro.backend.create_backend` returns this class for ``"sqlite"``, and
it is the one engine every world builder, the experiments and the CLI use.
The members outside the serving surface (:meth:`total_papers` and
:meth:`distinct_count` for the experiments, :meth:`commit` for the loader
bodies) live here and not on the protocol.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..exceptions import RelationalError
from . import schema
from .events import DataMutation, deliver

PathLike = Union[str, Path]


class Database:
    """An open SQLite database holding the DBLP workload."""

    #: Factory name of this backend (see :func:`repro.backend.create_backend`).
    backend_name = "sqlite"

    def __init__(self, path: PathLike = ":memory:", create: bool = True) -> None:
        self.path = str(path)
        try:
            # The serving layer (repro.serving.TopKServer) issues statements
            # from worker threads behind its own lock, so the connection must
            # not be pinned to the creating thread.
            self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise RelationalError(f"could not open database {self.path!r}: {exc}") from exc
        self._connection.row_factory = sqlite3.Row
        #: Number of SQL statements executed through this wrapper; the count
        #: cache and the benchmarks use it to verify batching actually
        #: collapses many logical counts into few round-trips.  A batched
        #: ``executemany`` counts as **one** statement per non-empty batch.
        self.statements_executed = 0
        # One shared connection serves every thread (check_same_thread is
        # off), which makes a *write transaction* connection-global state:
        # two threads interleaving DML race the sqlite3 module's implicit
        # BEGIN ("cannot start a transaction within a transaction") and, far
        # worse, commit each other's half-written batches.  A server runs
        # its own writes one at a time under its lock, but a direct loader
        # call or a second server on the same connection holds no lock of
        # that server's — this lock makes each write transaction atomic on
        # the shared connection.
        self._write_lock = threading.RLock()
        #: Number of rows written by DML through this wrapper (inserts,
        #: deletes, updates; every row of an ``executemany`` batch counts).
        #: Statement counts are an artefact of each backend's batching shape,
        #: so cross-backend comparisons should use this row measure instead.
        self.rows_touched = 0
        # Data-mutation subscribers (see repro.sqldb.events / repro.serving).
        self._listeners: List[Callable[[DataMutation], None]] = []
        if create:
            schema.create_schema(self._connection)

    # -- lifecycle --------------------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying :class:`sqlite3.Connection` (raises once closed)."""
        return self._require_connection()

    @property
    def is_closed(self) -> bool:
        """``True`` after :meth:`close` has been called."""
        return self._connection is None

    def _require_connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise RelationalError("database is closed")
        return self._connection

    def close(self) -> None:
        """Close the connection (safe to call twice).

        After closing, every ``execute``/``query``/``notify`` raises
        :class:`~repro.exceptions.RelationalError` with a clear message
        instead of the raw :class:`sqlite3.ProgrammingError`.  The listener
        list is cleared too: a closed database can never mutate again, so
        keeping the subscriptions would only pin the serving layer's caches
        (and everything they reference) alive.
        """
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        self._listeners.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- data-mutation events -----------------------------------------------------

    def subscribe(self, listener: Callable[[DataMutation], None]) -> Callable[[DataMutation], None]:
        """Register ``listener`` for every :class:`DataMutation` notification.

        Returns the listener so callers can keep the handle for
        :meth:`unsubscribe`.  Listeners run synchronously, in registration
        order, after the rows have been committed.
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Callable[[DataMutation], None]) -> None:
        """Remove a previously registered data-mutation listener (idempotent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    @property
    def has_subscribers(self) -> bool:
        """``True`` when at least one data-mutation listener is registered.

        Bulk loaders consult this to skip building notification row payloads
        nobody would consume.
        """
        return bool(self._listeners)

    def notify(self, mutation: DataMutation) -> None:
        """Deliver ``mutation`` to every subscriber, even past one that
        raises (the first error is re-raised once all have run).

        Public so the loader (which alone knows the joined-row view of a
        mutation) can emit the event after committing.  Raises
        :class:`~repro.exceptions.RelationalError` once the database is
        closed, like every other post-close operation — a mutation event
        for a connection that can no longer mutate is always a caller bug.
        """
        self._require_connection()
        deliver(self._listeners, mutation)

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Execute a statement and return the cursor (errors wrapped)."""
        connection = self._require_connection()
        try:
            self.statements_executed += 1
            cursor = connection.execute(sql, tuple(parameters))
        except sqlite3.Error as exc:
            raise RelationalError(f"SQL error in {sql!r}: {exc}") from exc
        # rowcount is -1 for SELECTs and DDL; only DML contributes real rows.
        if cursor.rowcount > 0:
            self.rows_touched += cursor.rowcount
        return cursor

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> None:
        """Execute a parametrised statement for every row in ``rows``.

        Accounting: one *statement* per non-empty batch (an empty batch
        issues nothing and counts nothing — the historical behaviour counted
        a phantom statement) plus one *row touched* per affected row, so
        ``rows_touched`` reflects real work where ``statements_executed``
        only reflects round-trip shape.
        """
        rows = list(rows)
        connection = self._require_connection()
        if not rows:
            return
        try:
            self.statements_executed += 1
            cursor = connection.executemany(sql, rows)
        except sqlite3.Error as exc:
            raise RelationalError(f"SQL error in {sql!r}: {exc}") from exc
        if cursor.rowcount > 0:
            self.rows_touched += cursor.rowcount

    def commit(self) -> None:
        """Commit the current transaction."""
        self._require_connection().commit()

    @contextmanager
    def write_transaction(self) -> Iterator[None]:
        """``with db.write_transaction(): ...`` — one atomic write on the
        shared connection.

        Holds the write lock throughout; the body's statements commit
        together when it returns, or roll back when it (or the commit)
        raises, and the error propagates.  A failed write therefore leaves
        no open transaction behind for the next write to commit.
        """
        with self._write_lock:
            try:
                yield
                self.commit()
            except BaseException:
                if self._connection is not None:
                    self._connection.rollback()
                raise

    # -- querying -----------------------------------------------------------------

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> List[Dict[str, Any]]:
        """Run a SELECT and return a list of dict rows."""
        cursor = self.execute(sql, parameters)
        return [dict(row) for row in cursor.fetchall()]

    def query_tuples(self, sql: str, parameters: Sequence[Any] = ()) -> List[Tuple]:
        """Run a SELECT and return plain tuples (no row objects are built)."""
        cursor = self.execute(sql, parameters)
        cursor.row_factory = None
        return cursor.fetchall()

    def query_one(self, sql: str, parameters: Sequence[Any] = ()) -> Optional[Dict[str, Any]]:
        """Run a SELECT and return the first row as a dict (or ``None``)."""
        cursor = self.execute(sql, parameters)
        row = cursor.fetchone()
        return dict(row) if row is not None else None

    def scalar(self, sql: str, parameters: Sequence[Any] = ()) -> Any:
        """Run a SELECT and return the first column of the first row."""
        cursor = self.execute(sql, parameters)
        row = cursor.fetchone()
        return row[0] if row is not None else None

    def query_scalars(self, sql: str, parameters: Sequence[Any] = ()) -> List[Any]:
        """Run a SELECT and return the first column of every row.

        This is the shape the batched counting queries use: one statement,
        one value per batched predicate, in statement order.
        """
        return [row[0] for row in self.query_tuples(sql, parameters)]

    def count(self, sql: str, parameters: Sequence[Any] = ()) -> int:
        """Run a counting SELECT and return an int (0 when no rows)."""
        value = self.scalar(sql, parameters)
        return int(value) if value is not None else 0

    # -- schema helpers ------------------------------------------------------------

    def table_counts(self) -> Dict[str, int]:
        """Row counts for every workload table (Table 10 statistics)."""
        return schema.table_counts(self._require_connection())

    def total_papers(self) -> int:
        """Number of rows in the ``dblp`` table."""
        return self.count("SELECT COUNT(*) FROM dblp")

    def distinct_count(self, table: str, column: str) -> int:
        """``COUNT(DISTINCT column)`` for a workload table."""
        if table not in schema.TABLES:
            raise RelationalError(f"unknown table {table!r}")
        return self.count(f"SELECT COUNT(DISTINCT {column}) FROM {table}")

    # -- StorageBackend query surface ---------------------------------------------
    #
    # The narrow read interface every consumer (count cache, query runner,
    # serving layer, replay driver) is wired against — see
    # repro.backend.protocol.StorageBackend.  Implemented with the SQL
    # helpers of repro.sqldb.query_builder, whose statements bind each
    # predicate literal as a parameter; imported lazily so this module
    # stays importable from query_builder's own dependency chain.

    def count_matching(self, predicate: Optional[Any] = None) -> int:
        """Distinct papers matching ``predicate`` (whole relation when ``None``)."""
        from .query_builder import count_matching_papers
        return count_matching_papers(self, predicate)

    def count_many(self, predicates: Sequence[Any]) -> List[int]:
        """Counts for many predicates, batched into compound statements.

        One ``UNION ALL`` statement per
        :data:`~repro.sqldb.query_builder.BATCH_COUNT_CHUNK` predicates;
        returns one count per input predicate, in input order.
        """
        from .query_builder import count_matching_papers_many
        return count_matching_papers_many(self, predicates)

    def matching_paper_ids(self, predicate: Optional[Any] = None,
                           limit: Optional[int] = None) -> List[int]:
        """Distinct paper ids matching ``predicate``, ordered by pid."""
        from .query_builder import matching_paper_ids
        return matching_paper_ids(self, predicate, limit)

    def joined_rows(self, pids: Optional[Sequence[int]] = None
                    ) -> List[Dict[str, Any]]:
        """Rows of the canonical ``dblp JOIN dblp_author`` view.

        One dict per (paper, author-link) pair with the joined-view columns
        ``pid``/``title``/``venue``/``year``/``abstract``/``aid`` — the unit
        every enhanced query's FROM clause produces and the shape every
        :class:`DataMutation` image row uses.  ``pids`` restricts the scan to
        those papers (the loader's pre-/post-image capture path).
        """
        sql = ("SELECT dblp.pid AS pid, title, venue, year, abstract, aid"
               f" FROM {schema.BASE_FROM}")
        parameters: Sequence[Any] = ()
        if pids is not None:
            pids = list(pids)
            if not pids:
                return []
            placeholders = ", ".join("?" for _ in pids)
            sql += f" WHERE dblp.pid IN ({placeholders})"
            parameters = pids
        return self.query(sql, parameters)

    # -- StorageBackend workload-shape surface ------------------------------------

    def workload_shape(self) -> Tuple[List[str], int, int]:
        """``(sorted distinct venues, min year, max year)`` of the relation.

        Returns ``([], 0, 0)`` for an empty relation — the replay driver
        turns that into its own "no papers loaded" error.
        """
        venues = [str(value) for value in self.query_scalars(
            "SELECT DISTINCT venue FROM dblp ORDER BY venue")]
        if not venues:
            return [], 0, 0
        lo = int(self.scalar("SELECT MIN(year) FROM dblp"))
        hi = int(self.scalar("SELECT MAX(year) FROM dblp"))
        return venues, lo, hi

    def paper_ids(self) -> List[int]:
        """Every pid currently in the relation, ascending."""
        return [int(row[0]) for row in self.query_tuples(
            "SELECT pid FROM dblp ORDER BY pid")]

    def max_paper_id(self) -> int:
        """The largest pid in the relation (0 when empty)."""
        value = self.scalar("SELECT MAX(pid) FROM dblp")
        return int(value) if value is not None else 0

    def max_author_id(self) -> int:
        """The largest aid referenced by any author link (0 when none)."""
        value = self.scalar("SELECT MAX(aid) FROM dblp_author")
        return int(value) if value is not None else 0

    # -- StorageBackend mutation surface ------------------------------------------
    #
    # Image capture (the joined-view pre-/post-rows every DataMutation
    # carries) lives behind these methods so the loader front doors in
    # repro.workload.loader stay backend-agnostic.  The SQLite bodies are the
    # sqlite_* functions of that module; imported lazily because the loader
    # imports this module at its own top level.

    def load_dataset(self, dataset: Any) -> Dict[str, int]:
        """Bulk-load a generated dataset; returns per-table row counts."""
        from ..workload.loader import sqlite_load_dataset
        return sqlite_load_dataset(self, dataset)

    def append_papers(self, papers: Sequence[Any],
                      paper_authors: Iterable[Tuple[int, int]] = (),
                      citations: Iterable[Tuple[int, int]] = ()) -> Dict[str, int]:
        """Append papers/links/citations, then notify with both images."""
        from ..workload.loader import sqlite_append_papers
        return sqlite_append_papers(self, papers, paper_authors, citations)

    def delete_papers(self, pids: Iterable[int]) -> Dict[str, int]:
        """Delete papers (and their links/citations), notifying the pre-image."""
        from ..workload.loader import sqlite_delete_papers
        return sqlite_delete_papers(self, pids)

    def update_papers(self, papers: Sequence[Any]) -> Dict[str, int]:
        """Update papers in place, notifying pre- and post-image."""
        from ..workload.loader import sqlite_update_papers
        return sqlite_update_papers(self, papers)

    def load_profiles(self, registry: Any) -> Dict[str, int]:
        """Persist extracted preference profiles into the staging tables,
        in one :meth:`write_transaction`."""
        from ..workload.loader import sqlite_load_profiles
        return sqlite_load_profiles(self, registry)

    def read_profiles(self, uids: Optional[Iterable[int]] = None) -> Any:
        """Rebuild a profile registry from the staging tables."""
        from ..workload.loader import sqlite_read_profiles
        return sqlite_read_profiles(self, uids)

    def profile_rows(self, uid: int) -> Any:
        """One user's staged rows as plain tuples, in pfid order."""
        from ..workload.loader import sqlite_profile_rows
        return sqlite_profile_rows(self, uid)
