"""A pure in-memory columnar storage backend.

:class:`MemoryBackend` keeps the canonical ``dblp JOIN dblp_author`` view as
a **dict of columns** (one ``{rowid: value}`` dict per joined-view column)
plus a **per-attribute inverted index** (``{column: {value: {rowids}}}``),
and answers the :class:`~repro.backend.protocol.StorageBackend` query
surface with pure set algebra:

* an equality or IN condition looks each literal up in the column's index,
  under every key SQLite calls equal to it
  (:func:`~repro.core.predicate._equality_keys`: a text literal under its
  text and, when numeric-shaped, its number; a number under its number and
  its SQLite text) — the rule the sweep's
  :class:`~repro.index.selectivity.ConjunctIndex` buckets by — and unions
  the buckets found,
* a range condition scans the column's *distinct values* and unions the
  qualifying buckets,
* AND intersects child row-id sets, OR unions them,

so a count never touches individual rows, and nothing is memoised across
calls: a write updates the index and nothing else.  The other tables are
kept the way their calls read them, so a call costs what it touches: the
citation table is two adjacency maps (citing pid → cited pids, cited pid →
citing pids), so a delete visits only its papers' citations; the staging
tables keep each user's rows apart (each row with its table-wide pfid), so
:meth:`MemoryBackend.profile_rows` reads one user's rows.

Queries and mutations alike run under the backend's one re-entrant lock (a
direct loader call, a second server over the same backend or an oracle
recomputation may run beside a server's request; everything on one server
is already serialised by the server lock).  Every value comparison goes
through the same SQLite-faithful coercion rules as
:meth:`repro.core.predicate.Condition.evaluate` (NUMERIC/TEXT affinity,
number-before-text ordering, exact integer conversion) — the differential
tests of PR 3 pinned those rules against the real engine, and the
lockstep check in ``tests/test_server_machine.py`` asserts this backend
and :class:`~repro.sqldb.database.Database` stay answer-identical across
the full replay mutation mix.

Mutations mirror the SQLite loader bodies
(:mod:`repro.workload.loader`) operation for operation — REPLACE semantics,
orphan author links, pre-/post-image capture, notification conditions and
report shapes — because the serving layer's invalidation reports must be
bit-identical across backends.

Op accounting: ``statements_executed`` counts *logical operations* (one per
query call, one per non-empty write batch — the shape a SQL engine would
see), ``rows_touched`` counts rows written.  Statement counts are therefore
backend-shaped; cross-backend comparisons should use ``rows_touched``.

The engine is not served: no flag, environment variable or world builder
selects it.  It is reached as ``create_backend("memory")`` by the tests that
pin its answers against SQLite and by the end-to-end benchmark's
``mixed-churn-memory`` workload (``docs/ARCHITECTURE.md``, "Why there is one
served engine").
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.predicate import (
    And,
    Condition,
    Or,
    PredicateExpr,
    _compare_values,
    _equality_keys,
    ensure_predicate,
)
from ..core.preference import ProfileRegistry, QualitativePreference, QuantitativePreference
from ..exceptions import RelationalError, WorkloadError
from ..sqldb.events import (TUPLES_DELETED, TUPLES_INSERTED, TUPLES_UPDATED,
                            DataMutation, deliver)
from ..sqldb.query_builder import BATCH_COUNT_CHUNK
from ..workload.loader import _joined_rows

#: Joined-view columns, in the order the SQL scan selects them.
VIEW_COLUMNS: Tuple[str, ...] = ("pid", "title", "venue", "year", "abstract", "aid")

#: Qualified spellings the canonical FROM clause accepts, per joined table
#: (``dblp_author.pid`` is legal and equals ``dblp.pid`` under the join).
_TABLE_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "dblp": ("pid", "title", "venue", "year", "abstract"),
    "dblp_author": ("pid", "aid"),
}


class MemoryBackend:
    """Dict-of-columns engine over the joined view (see module docs).

    Construction accepts the factory's ``path`` argument for signature
    parity but only the in-memory spelling is meaningful.
    """

    backend_name = "memory"

    def __init__(self, path: str = ":memory:") -> None:
        if str(path) != ":memory:":
            raise RelationalError(
                f"the memory backend cannot persist to {path!r}; "
                "use the sqlite backend for file-backed workloads")
        self.path = ":memory:"
        # Guards the tables and the joined view; never held while a
        # notification is delivered (see the mutation surface).
        self._lock = threading.RLock()
        # Op accounting has its own tiny mutex.
        self._stats_lock = threading.Lock()
        self._closed = False
        # Base tables.
        self._papers: Dict[int, Dict[str, Any]] = {}
        self._authors: Dict[int, str] = {}
        #: Every author link ever inserted, keyed by pid — including links
        #: whose paper does not (yet) exist: SQLite has no FK constraint
        #: here, and a later paper insert makes the joined rows appear.
        self._links: Dict[int, List[int]] = {}
        #: The citation table as adjacency lists, one entry per (pid, cid)
        #: pair on each side: citing pid -> cited pids, cited pid -> citing
        #: pids.  An endpoint with no pair left has no key.
        self._cites: Dict[int, List[int]] = {}
        self._cited_by: Dict[int, List[int]] = {}
        # Preference staging tables, per uid: (pfid, ...) rows in append
        # order; pfid counts appends per table, across users.
        self._quant: Dict[int, List[Tuple[int, str, float]]] = {}
        self._qual: Dict[int, List[Tuple[int, str, str, float]]] = {}
        self._next_quant_pfid = 1
        self._next_qual_pfid = 1
        # The joined view: dict-of-columns keyed by rowid, plus the
        # per-attribute inverted index and a pid -> rowids map.
        self._columns: Dict[str, Dict[int, Any]] = {col: {} for col in VIEW_COLUMNS}
        self._index: Dict[str, Dict[Any, Set[int]]] = {col: {} for col in VIEW_COLUMNS}
        self._rows_of_pid: Dict[int, List[int]] = {}
        self._next_rowid = 1
        #: Op accounting (see module docs).
        self.statements_executed = 0
        self.rows_touched = 0
        self._listeners: List[Callable[[DataMutation], None]] = []

    # -- lifecycle ----------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        """``True`` after :meth:`close` has been called."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RelationalError("database is closed")

    def close(self) -> None:
        """Close the backend (safe to call twice).

        Mirrors :meth:`~repro.sqldb.database.Database.close`: every later
        operation — including :meth:`notify` — raises
        :class:`~repro.exceptions.RelationalError`, and the listener list is
        cleared so nothing keeps the serving layer's caches alive.
        """
        with self._lock:
            self._closed = True
            self._listeners.clear()

    def __enter__(self) -> "MemoryBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _account(self, statements: int = 0, rows: int = 0) -> None:
        """Bump op accounting under its own mutex."""
        with self._stats_lock:
            self.statements_executed += statements
            self.rows_touched += rows

    # -- data-mutation events -----------------------------------------------------

    def subscribe(self, listener: Callable[[DataMutation], None]
                  ) -> Callable[[DataMutation], None]:
        """Register ``listener`` for every :class:`DataMutation`; returns it."""
        with self._lock:
            self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Callable[[DataMutation], None]) -> None:
        """Remove a previously registered listener (idempotent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    @property
    def has_subscribers(self) -> bool:
        """Whether any listener is registered (image capture is skipped
        when nobody would consume the payload)."""
        return bool(self._listeners)

    def notify(self, mutation: DataMutation) -> None:
        """Deliver ``mutation`` to every subscriber, even past one that
        raises (see :func:`~repro.sqldb.events.deliver`; raises once
        closed)."""
        self._require_open()
        deliver(self._listeners, mutation)

    # -- joined-view maintenance --------------------------------------------------

    def _add_row(self, pid: int, aid: int) -> None:
        paper = self._papers[pid]
        rowid = self._next_rowid
        self._next_rowid += 1
        values = {"pid": pid, "title": paper["title"], "venue": paper["venue"],
                  "year": paper["year"], "abstract": paper["abstract"], "aid": aid}
        for column, value in values.items():
            self._columns[column][rowid] = value
            self._index[column].setdefault(value, set()).add(rowid)
        self._rows_of_pid.setdefault(pid, []).append(rowid)

    def _remove_rows(self, pid: int) -> None:
        for rowid in self._rows_of_pid.pop(pid, ()):
            for column in VIEW_COLUMNS:
                value = self._columns[column].pop(rowid)
                bucket = self._index[column][value]
                bucket.discard(rowid)
                if not bucket:
                    del self._index[column][value]

    def _rewrite_rows(self, pid: int) -> None:
        """Refresh the attribute columns of ``pid``'s rows after a REPLACE/UPDATE."""
        paper = self._papers[pid]
        for rowid in self._rows_of_pid.get(pid, ()):
            for column in ("title", "venue", "year", "abstract"):
                old = self._columns[column][rowid]
                new = paper[column]
                if old == new and type(old) is type(new):
                    continue
                bucket = self._index[column][old]
                bucket.discard(rowid)
                if not bucket:
                    del self._index[column][old]
                self._columns[column][rowid] = new
                self._index[column].setdefault(new, set()).add(rowid)

    @staticmethod
    def _paper_record(paper: Any) -> Dict[str, Any]:
        return {"pid": int(paper.pid), "title": str(paper.title),
                "venue": str(paper.venue), "year": int(paper.year),
                "abstract": str(paper.abstract)}

    def _put_paper(self, paper: Any) -> None:
        record = self._paper_record(paper)
        pid = record["pid"]
        replacing = pid in self._papers
        self._papers[pid] = record
        if replacing:
            self._rewrite_rows(pid)
        else:
            # A brand-new paper joins against any links already present
            # (orphan links are legal — see self._links).
            for aid in self._links.get(pid, ()):
                self._add_row(pid, aid)

    def _put_link(self, pid: int, aid: int) -> None:
        pid, aid = int(pid), int(aid)
        aids = self._links.setdefault(pid, [])
        if aid in aids:  # REPLACE on the (pid, aid) primary key is a no-op
            return
        aids.append(aid)
        if pid in self._papers:
            self._add_row(pid, aid)

    def _put_citations(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Insert citation pairs in one pass, making no list a pair does
        not keep: a bulk load sends every citation through here."""
        cites, cited_by = self._cites, self._cited_by
        for pid, cid in pairs:
            pid, cid = int(pid), int(cid)
            cited = cites.get(pid)
            if cited is None:
                cites[pid] = [cid]
            elif cid in cited:  # REPLACE on the (pid, cid) key is a no-op
                continue
            else:
                cited.append(cid)
            citing = cited_by.get(cid)
            if citing is None:
                cited_by[cid] = [pid]
            else:
                citing.append(pid)

    def _delete_citations(self, pid: int) -> int:
        """Drop every citation ``pid`` is an endpoint of; return how many.

        Visits only ``pid``'s own pairs: each is popped from one side and
        unlinked from its partner's list on the other (a self-citation too,
        before the second pop could see it again)."""
        removed = 0
        for adjacency, partners in ((self._cites, self._cited_by),
                                    (self._cited_by, self._cites)):
            for partner in adjacency.pop(pid, ()):
                others = partners[partner]
                others.remove(pid)
                if not others:
                    del partners[partner]
                removed += 1
        return removed

    # -- predicate evaluation (set algebra over the inverted index) ---------------

    def _resolve_column(self, attribute: str) -> str:
        """The view column ``attribute`` names, or :class:`RelationalError`.

        Mirrors the SQL engine over the canonical FROM clause exactly: bare
        names must be joined-view columns, qualified names must use a table
        actually in the join (``dblp`` / ``dblp_author``) and one of *that
        table's* columns — ``author.venue`` or ``bogus = 1`` raise here just
        as SQLite raises "no such column", instead of silently counting 0
        (which a count cache would then memoise).
        """
        if "." in attribute:
            table, _, column = attribute.partition(".")
            if column in _TABLE_COLUMNS.get(table, ()):
                return column
        elif attribute in VIEW_COLUMNS:
            return attribute
        raise RelationalError(f"no such column: {attribute}")

    def _compared_rowids(self, column: str, literal: Any, op: str) -> Set[int]:
        """Row ids whose ``column`` compares true with ``literal`` under
        SQLite coercion: a scan of the column's *distinct values* with the
        ``_compare_values`` the in-memory evaluator uses."""
        matched: Set[int] = set()
        for stored, rowids in self._index[column].items():
            if _compare_values(stored, literal, op):
                matched |= rowids
        return matched

    def _equal_rowids(self, column: str, literal: Any) -> Set[int]:
        """Row ids whose ``column`` equals ``literal`` under SQLite coercion.

        One bucket lookup per key :func:`_equality_keys` names, so
        mixed-type literals (``year = '2005'``, ``venue = 100``) match
        exactly what the SQL engine matches.  The result may be an index
        bucket itself: callers read it and never change it.
        """
        index = self._index[column]
        buckets = [index[key] for key in _equality_keys(literal) if key in index]
        return buckets[0] if len(buckets) == 1 else set().union(*buckets)

    def _condition_rowids(self, condition: Condition) -> Set[int]:
        column = self._resolve_column(condition.attribute)
        if condition.op == "IN":
            matched: Set[int] = set()
            for item in condition.value:
                matched |= self._equal_rowids(column, item)
            return matched
        if condition.op == "=":
            return self._equal_rowids(column, condition.value)
        if condition.value is None:
            return set()
        return self._compared_rowids(column, condition.value, condition.op)

    def _matching_rowids(self, predicate: PredicateExpr) -> Set[int]:
        """Row ids satisfying ``predicate`` — equal, row for row, to
        evaluating :meth:`PredicateExpr.evaluate` on every joined-view row.
        The set may be an index bucket itself (:meth:`_equal_rowids`)."""
        if isinstance(predicate, Condition):
            return self._condition_rowids(predicate)
        if isinstance(predicate, And):
            children = sorted((self._matching_rowids(child)
                               for child in predicate.children), key=len)
            matched = children[0]
            for child in children[1:]:
                matched = matched & child
                if not matched:
                    break
            return matched
        if isinstance(predicate, Or):
            matched = set()
            for child in predicate.children:
                matched |= self._matching_rowids(child)
            return matched
        raise RelationalError(  # pragma: no cover - no other node types exist
            f"unsupported predicate node {type(predicate).__name__}")

    def _matching_pids(self, predicate: Optional[Any]) -> Set[int]:
        if predicate is None:
            return set(self._index["pid"])
        predicate = ensure_predicate(predicate)
        pid_column = self._columns["pid"]
        return {pid_column[rowid] for rowid in self._matching_rowids(predicate)}

    # -- query surface ------------------------------------------------------------

    def count_matching(self, predicate: Optional[Any] = None) -> int:
        """Distinct papers matching ``predicate`` (whole relation on ``None``)."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            return len(self._matching_pids(predicate))

    def count_many(self, predicates: Sequence[Any]) -> List[int]:
        """One count per predicate, in order; accounted one op per chunk
        of :data:`~repro.sqldb.query_builder.BATCH_COUNT_CHUNK`, as SQLite
        would batch them."""
        with self._lock:
            self._require_open()
            if predicates:
                self._account(statements=(len(predicates) + BATCH_COUNT_CHUNK - 1)
                              // BATCH_COUNT_CHUNK)
            return [len(self._matching_pids(predicate)) for predicate in predicates]

    def matching_paper_ids(self, predicate: Optional[Any] = None,
                           limit: Optional[int] = None) -> List[int]:
        """Distinct matching paper ids, ascending, optionally limited."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            pids = sorted(self._matching_pids(predicate))
            return pids[:limit] if limit is not None else pids

    def joined_rows(self, pids: Optional[Sequence[int]] = None
                    ) -> List[Dict[str, Any]]:
        """The joined-view rows (restricted to ``pids``), in row-id order."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            return self._joined_rows_unlocked(pids)

    def _joined_rows_unlocked(self, pids: Optional[Sequence[int]] = None
                              ) -> List[Dict[str, Any]]:
        if pids is None:
            rowids = sorted(self._columns["pid"])
        else:
            rowids = sorted(rowid for pid in set(int(p) for p in pids)
                            for rowid in self._rows_of_pid.get(pid, ()))
        return [{column: self._columns[column][rowid] for column in VIEW_COLUMNS}
                for rowid in rowids]

    # -- schema / statistics ------------------------------------------------------

    def table_counts(self) -> Dict[str, int]:
        """Row counts for every workload table (Table 10 statistics)."""
        with self._lock:
            self._require_open()
            return {
                "dblp": len(self._papers),
                "author": len(self._authors),
                "citation": sum(len(cids) for cids in self._cites.values()),
                "dblp_author": sum(len(aids) for aids in self._links.values()),
                "quantitative_pref": self._next_quant_pfid - 1,
                "qualitative_pref": self._next_qual_pfid - 1,
            }

    # -- workload shape (replay-driver surface) -----------------------------------

    def workload_shape(self) -> Tuple[List[str], int, int]:
        """``(sorted venues, min year, max year)``; ``([], 0, 0)`` if empty."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            if not self._papers:
                return [], 0, 0
            venues = sorted({record["venue"] for record in self._papers.values()})
            years = [record["year"] for record in self._papers.values()]
            return venues, min(years), max(years)

    def paper_ids(self) -> List[int]:
        """Every pid in the relation, ascending."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            return sorted(self._papers)

    def max_paper_id(self) -> int:
        """Largest pid (0 when the relation is empty)."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            return max(self._papers, default=0)

    def max_author_id(self) -> int:
        """Largest aid referenced by an author link (0 when none)."""
        with self._lock:
            self._require_open()
            self._account(statements=1)
            return max((aid for aids in self._links.values() for aid in aids),
                       default=0)

    # -- mutation surface ---------------------------------------------------------
    #
    # Each method mirrors the SQLite loader body of the same name in
    # repro.workload.loader step for step — capture order, notification
    # conditions, payload synthesis and report shapes must stay identical
    # for the cross-backend differential guarantee to hold.
    #
    # Locking shape: the physical writes and image capture run under the
    # backend lock, but the notification is delivered AFTER releasing it —
    # mirroring the SQLite engine, whose loader bodies hold no backend-side lock
    # at all.  Listeners (TopKServer._on_data_mutation) take their own
    # server lock and then issue backend queries; delivering under our lock
    # would order the two locks backend→server here while every serve path
    # orders them server→backend — a textbook AB-BA deadlock.

    def load_dataset(self, dataset: Any) -> Dict[str, int]:
        """Bulk-load a generated dataset; notify; return per-table counts."""
        with self._lock:
            self._require_open()
            batches = 0
            if dataset.papers:
                batches += 1
                for paper in dataset.papers:
                    self._put_paper(paper)
            if dataset.authors:
                batches += 1
                for author in dataset.authors:
                    self._authors[int(author.aid)] = str(author.full_name)
            if dataset.paper_authors:
                batches += 1
                for pid, aid in dataset.paper_authors:
                    self._put_link(pid, aid)
            if dataset.citations:
                batches += 1
                self._put_citations(dataset.citations)
            self._account(statements=batches,
                          rows=(len(dataset.papers) + len(dataset.authors)
                                + len(dataset.paper_authors)
                                + len(dataset.citations)))
            mutation = (DataMutation(
                TUPLES_INSERTED, "dblp",
                rows=_joined_rows(dataset.papers, dataset.paper_authors),
                pids=[paper.pid for paper in dataset.papers])
                if self.has_subscribers else None)
        if mutation is not None:
            self.notify(mutation)
        return self.table_counts()

    def append_papers(self, papers: Sequence[Any],
                      paper_authors: Iterable[Tuple[int, int]] = (),
                      citations: Iterable[Tuple[int, int]] = ()) -> Dict[str, int]:
        """Insert (REPLACE semantics), then notify with post- and pre-image."""
        with self._lock:
            self._require_open()
            papers = list(papers)
            paper_authors = [(int(pid), int(aid)) for pid, aid in paper_authors]
            citations = [(int(pid), int(cid)) for pid, cid in citations]
            replaced_rows = (self._joined_rows_unlocked([p.pid for p in papers])
                             if papers and self.has_subscribers else [])
            # Papers with a link already stored: replaced ones, and new ones
            # whose (orphan) links came first — their post-image is read
            # back from the view, as the SQLite body does.
            linked = ({paper.pid for paper in papers if self._links.get(paper.pid)}
                      if self.has_subscribers else set())
            batches = 0
            if papers:
                batches += 1
                for paper in papers:
                    self._put_paper(paper)
            if paper_authors:
                batches += 1
                for pid, aid in paper_authors:
                    self._put_link(pid, aid)
            if citations:
                batches += 1
                self._put_citations(citations)
            self._account(statements=batches,
                          rows=len(papers) + len(paper_authors) + len(citations))
            mutation = None
            if self.has_subscribers and (papers or paper_authors):
                fetch = sorted(linked
                               | ({pid for pid, _ in paper_authors}
                                  - {paper.pid for paper in papers}))
                post_rows = _joined_rows(
                    [paper for paper in papers if paper.pid not in linked],
                    [(pid, aid) for pid, aid in paper_authors
                     if pid not in linked])
                if fetch:
                    post_rows += self._joined_rows_unlocked(fetch)
                mutation = DataMutation(
                    TUPLES_INSERTED, "dblp",
                    rows=post_rows,
                    old_rows=replaced_rows,
                    pids=[paper.pid for paper in papers])
        if mutation is not None:
            self.notify(mutation)
        return {"dblp": len(papers), "dblp_author": len(paper_authors),
                "citation": len(citations)}

    def delete_papers(self, pids: Iterable[int]) -> Dict[str, int]:
        """Remove papers/links/citations, then notify with the pre-image."""
        with self._lock:
            self._require_open()
            pids = sorted({int(pid) for pid in pids})
            if not pids:
                return {"dblp": 0, "dblp_author": 0, "citation": 0}
            pre_image = (self._joined_rows_unlocked(pids)
                         if self.has_subscribers else [])
            removed = {"dblp": 0, "dblp_author": 0, "citation": 0}
            for pid in pids:
                if pid in self._papers:
                    removed["dblp"] += 1
                    self._remove_rows(pid)
                    del self._papers[pid]
                removed["dblp_author"] += len(self._links.pop(pid, ()))
                removed["citation"] += self._delete_citations(pid)
            self._account(statements=3,  # the three DELETE shapes
                          rows=sum(removed.values()))
            mutation = (DataMutation(TUPLES_DELETED, "dblp",
                                     old_rows=pre_image, pids=pids)
                        if self.has_subscribers and any(removed.values())
                        else None)
        if mutation is not None:
            self.notify(mutation)
        return removed

    def update_papers(self, papers: Sequence[Any]) -> Dict[str, int]:
        """In-place attribute update, then notify with both images."""
        with self._lock:
            self._require_open()
            papers = list(papers)
            if not papers:
                return {"dblp": 0}
            pids = [int(paper.pid) for paper in papers]
            missing = sorted({pid for pid in pids if pid not in self._papers})
            if missing:
                raise WorkloadError(f"cannot update unknown papers: {missing}")
            pre_image = (self._joined_rows_unlocked(pids)
                         if self.has_subscribers else [])
            for paper in papers:  # in order: a duplicated pid's last write wins
                self._papers[int(paper.pid)] = self._paper_record(paper)
                self._rewrite_rows(int(paper.pid))
            self._account(statements=1, rows=len(papers))
            mutation = (DataMutation(
                TUPLES_UPDATED, "dblp",
                rows=self._joined_rows_unlocked(pids),
                old_rows=pre_image,
                pids=pids)
                if self.has_subscribers else None)
        if mutation is not None:
            self.notify(mutation)
        return {"dblp": len(papers)}

    def load_profiles(self, registry: ProfileRegistry) -> Dict[str, int]:
        """Append profiles to the staging tables; return rows per table."""
        with self._lock:
            self._require_open()
            first_quant, first_qual = self._next_quant_pfid, self._next_qual_pfid
            for profile in registry:
                uid = int(profile.uid)
                if profile.quantitative:
                    rows = self._quant.setdefault(uid, [])
                    for preference in profile.quantitative:
                        rows.append((self._next_quant_pfid,
                                     preference.predicate_sql,
                                     float(preference.intensity)))
                        self._next_quant_pfid += 1
                if profile.qualitative:
                    rows = self._qual.setdefault(uid, [])
                    for preference in profile.qualitative:
                        rows.append((self._next_qual_pfid, preference.left_sql,
                                     preference.right_sql,
                                     float(preference.intensity)))
                        self._next_qual_pfid += 1
            quant = self._next_quant_pfid - first_quant
            qual = self._next_qual_pfid - first_qual
            self._account(statements=(1 if quant else 0) + (1 if qual else 0),
                          rows=quant + qual)
            return {"quantitative_pref": quant, "qualitative_pref": qual}

    def read_profiles(self, uids: Optional[Iterable[int]] = None
                      ) -> ProfileRegistry:
        """Rebuild profiles from the staging tables, in insertion order:
        the wanted users' rows, merged by pfid."""
        with self._lock:
            self._require_open()
            self._account(statements=2)  # the two staging-table reads
            wanted = None if uids is None else {int(uid) for uid in uids}
            registry = ProfileRegistry()
            for _, uid, predicate, intensity in self._staged(self._quant, wanted):
                registry.get_or_create(uid).quantitative.append(
                    QuantitativePreference(uid=uid, predicate=predicate,
                                           intensity=intensity))
            for _, uid, left, right, intensity in self._staged(self._qual, wanted):
                registry.get_or_create(uid).qualitative.append(
                    QualitativePreference(uid=uid, left=left, right=right,
                                          intensity=intensity))
            return registry

    @staticmethod
    def _staged(table: Mapping[int, List[Tuple]],
                uids: Optional[Iterable[int]]) -> List[Tuple]:
        """``uids``' rows of one staging table (every user's on ``None``)
        as ``(pfid, uid, ...)``, in pfid order."""
        return sorted(((row[0], uid) + row[1:]
                       for uid in (table if uids is None else uids)
                       for row in table.get(uid, ())),
                      key=itemgetter(0))

    def profile_rows(self, uid: int) -> Tuple[List[Tuple[str, float]],
                                              List[Tuple[str, str, float]]]:
        """One user's staged rows as plain tuples, in insertion order."""
        with self._lock:
            self._require_open()
            self._account(statements=2)  # the two staging-table reads
            uid = int(uid)
            return ([row[1:] for row in self._quant.get(uid, ())],
                    [row[1:] for row in self._qual.get(uid, ())])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MemoryBackend(papers={len(self._papers)}, "
                f"rows={len(self._columns['pid'])}, "
                f"ops={self.statements_executed})")
