"""Load a synthetic DBLP dataset and preferences into a storage backend.

The paper parses the DBLP citation dump into four relational tables plus two
staging tables for extracted preferences (Section 6.1).  This module performs
the equivalent bulk loading for the synthetic workload, and provides the
**mutation API** the serving layer uses for the full data-side update
spectrum: :func:`append_papers` (inserts), :func:`delete_papers` (removals)
and :func:`update_papers` (in-place attribute changes).  Each commits its
rows and then notifies the backend's
:class:`~repro.sqldb.events.DataMutation` subscribers with the *joined-view*
rows the change added (post-image) and/or removed (pre-image), so
result/count caches can invalidate selectively yet soundly.

Since the backend split the public functions here are thin **backend-agnostic
front doors**: each dispatches to the same-named method of the
:class:`~repro.backend.protocol.StorageBackend` it is handed, so callers keep
the historical ``loader.append_papers(db, ...)`` spelling while the image
capture runs inside whichever engine owns the data.  The ``sqlite_*``
functions below are the SQLite implementation bodies —
:class:`~repro.sqldb.database.Database` delegates its mutation methods to
them; :class:`~repro.backend.MemoryBackend`, the differential arm,
implements the same contract natively over its column store.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.preference import (ProfileRegistry, QualitativePreference,
                               QuantitativePreference, UserProfile)
from ..exceptions import WorkloadError
from ..sqldb.database import Database
from ..sqldb.events import TUPLES_DELETED, TUPLES_INSERTED, TUPLES_UPDATED, DataMutation
from .dblp import DblpConfig, DblpDataset, Paper, generate_dblp

#: One user's staged rows: ``(predicate, intensity)`` quantitative rows and
#: ``(left, right, intensity)`` qualitative rows, each in pfid order.
ProfileRows = Tuple[List[Tuple[str, float]], List[Tuple[str, str, float]]]


def _joined_rows(papers: Sequence[Paper],
                 paper_authors: Iterable[Tuple[int, int]]) -> List[Mapping[str, Any]]:
    """The ``dblp JOIN dblp_author`` view rows an insertion adds.

    One dictionary per (paper, author) pair — the unit every enhanced query's
    FROM clause produces.  A paper inserted without any author link yields no
    row: it is invisible to the inner join every count/select runs over, so
    it provably cannot affect any cached result (the notification that later
    adds its first link carries the real joined row).

    Shared by both backends — the synthesized post-image of a paper with no
    earlier author link depends only on the call's own arguments, never on
    the engine.
    """
    authors_of: Dict[int, List[int]] = {}
    for pid, aid in paper_authors:
        authors_of.setdefault(pid, []).append(aid)
    rows: List[Mapping[str, Any]] = []
    for paper in papers:
        base = {"pid": paper.pid, "title": paper.title, "venue": paper.venue,
                "year": paper.year, "abstract": paper.abstract}
        for aid in authors_of.get(paper.pid, ()):
            rows.append({**base, "aid": aid})
    return rows


# ---------------------------------------------------------------------------
# Backend-agnostic front doors
# ---------------------------------------------------------------------------


def load_dataset(db: Any, dataset: DblpDataset) -> Dict[str, int]:
    """Insert every dataset row into the workload tables; returns row counts.

    ``db`` is any :class:`~repro.backend.protocol.StorageBackend`; the bulk
    load commits and then notifies subscribers with one ``TUPLES_INSERTED``
    event carrying the loaded joined-view rows.
    """
    return db.load_dataset(dataset)


def append_papers(db: Any,
                  papers: Sequence[Paper],
                  paper_authors: Iterable[Tuple[int, int]] = (),
                  citations: Iterable[Tuple[int, int]] = ()) -> Dict[str, int]:
    """Append new papers (plus author/citation links) to a loaded workload.

    This is the data-side update path of the serving layer: the rows are
    committed and then every backend subscriber receives one
    :class:`~repro.sqldb.events.DataMutation` carrying the joined-view rows,
    so caches can invalidate exactly the entries whose predicates can match
    the new tuples (REPLACE'd papers ride along with their pre-image).
    Returns the number of rows inserted per table.
    """
    return db.append_papers(papers, paper_authors, citations)


def delete_papers(db: Any, pids: Iterable[int]) -> Dict[str, int]:
    """Delete papers (plus their author links and citations) from the workload.

    The data-side *removal* path of the serving layer: the **pre-image**
    joined-view rows are captured before anything is deleted, and after the
    commit every subscriber receives one
    :class:`~repro.sqldb.events.DataMutation` of kind ``TUPLES_DELETED``
    carrying them in ``old_rows`` — a cached count or answer may only be
    spared when none of its predicates can match a removed row.  Unknown
    pids are ignored (their deletion is a no-op).  Returns the number of
    rows removed per table.
    """
    return db.delete_papers(pids)


def update_papers(db: Any, papers: Sequence[Paper]) -> Dict[str, int]:
    """Update existing papers' attribute values in place.

    The data-side *in-place update* path of the serving layer: the
    **pre-image** joined-view rows are captured before the update, the
    **post-image** after the commit, and subscribers receive both on one
    :class:`~repro.sqldb.events.DataMutation` of kind ``TUPLES_UPDATED`` —
    a cached entry is spared only when no predicate can match *either*
    image.  Every pid must already exist;
    :class:`~repro.exceptions.WorkloadError` is raised otherwise (use
    :func:`append_papers` to insert).  Returns the number of papers updated.
    """
    return db.update_papers(papers)


def load_profiles(db: Any, registry: ProfileRegistry) -> Dict[str, int]:
    """Insert extracted preferences into the two staging tables.

    Returns the number of quantitative and qualitative rows inserted.
    """
    return db.load_profiles(registry)


def staged_rows(profile: UserProfile) -> ProfileRows:
    """The rows :func:`load_profiles` stages for ``profile``, in order and in
    :func:`profile_rows`'s shapes: each preference's rendered predicate
    text(s) and its intensity."""
    return ([(pref.predicate_sql, pref.intensity)
             for pref in profile.quantitative],
            [(pref.left_sql, pref.right_sql, pref.intensity)
             for pref in profile.qualitative])


def read_profiles(db: Any, uids: Optional[Iterable[int]] = None) -> ProfileRegistry:
    """Rebuild a :class:`ProfileRegistry` from the staging tables."""
    return db.read_profiles(uids)


def profile_rows(db: Any, uid: int) -> ProfileRows:
    """One user's staged rows as plain tuples, in insertion (pfid) order:
    ``([(predicate, intensity)], [(left, right, intensity)])``.

    What a cold read builds from
    (:meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_rows`): no
    preference object is made and no text is parsed.  Both lists are empty
    for a user with nothing staged.  Two statements.
    """
    return db.profile_rows(uid)


# ---------------------------------------------------------------------------
# SQLite implementation bodies (Database delegates its mutation methods here)
# ---------------------------------------------------------------------------


def sqlite_load_dataset(db: Database, dataset: DblpDataset) -> Dict[str, int]:
    """SQLite body of :func:`load_dataset` (see that front door's contract)."""
    with db.write_transaction():
        db.executemany(
            "INSERT OR REPLACE INTO dblp (pid, title, venue, year, abstract)"
            " VALUES (?, ?, ?, ?, ?)",
            [(paper.pid, paper.title, paper.venue, paper.year, paper.abstract)
             for paper in dataset.papers])
        db.executemany(
            "INSERT OR REPLACE INTO author (aid, full_name) VALUES (?, ?)",
            [(author.aid, author.full_name) for author in dataset.authors])
        db.executemany(
            "INSERT OR REPLACE INTO dblp_author (pid, aid) VALUES (?, ?)",
            dataset.paper_authors)
        db.executemany(
            "INSERT OR REPLACE INTO citation (pid, cid) VALUES (?, ?)",
            dataset.citations)
    if db.has_subscribers:
        # Bulk loads rarely have listeners (caches are built afterwards);
        # the payload is only materialised when somebody will consume it.
        db.notify(DataMutation(
            TUPLES_INSERTED, "dblp",
            rows=_joined_rows(dataset.papers, dataset.paper_authors),
            pids=[paper.pid for paper in dataset.papers]))
    return db.table_counts()


def _sqlite_linked_image(db: Database, pids: Sequence[int]
                         ) -> Tuple[List[Dict[str, Any]], Set[int]]:
    """``(pre-image rows, linked pids)`` of ``pids``, read before an append.

    The pre-image is every joined-view row of a paper the append replaces;
    the linked pids are those with any ``dblp_author`` link already stored —
    replaced papers, and brand-new ones whose links came first (orphan links
    are legal: there is no foreign key).  One statement.
    """
    placeholders = ", ".join("?" for _ in pids)
    rows = db.query(
        "SELECT dblp_author.pid AS pid, dblp.pid IS NOT NULL AS known,"
        " title, venue, year, abstract, aid"
        " FROM dblp_author LEFT JOIN dblp ON dblp.pid = dblp_author.pid"
        f" WHERE dblp_author.pid IN ({placeholders})", list(pids))
    linked = {row["pid"] for row in rows}
    known = [row.pop("known") for row in rows]
    return [row for row, present in zip(rows, known) if present], linked


def sqlite_append_papers(db: Database,
                         papers: Sequence[Paper],
                         paper_authors: Iterable[Tuple[int, int]] = (),
                         citations: Iterable[Tuple[int, int]] = ()) -> Dict[str, int]:
    """SQLite body of :func:`append_papers` (see that front door's contract)."""
    papers = list(papers)
    paper_authors = list(paper_authors)
    citations = list(citations)
    # REPLACE semantics mutate old rows invisibly, so the *pre-image* of any
    # replaced paper must ride along in the notification: a cached entry may
    # only be spared when neither the old nor the new tuple values can match
    # its predicates.  Captured before the insert overwrites them.
    # One write transaction (atomic against concurrent profile-staging
    # writes on the shared connection, rolled back if any statement fails);
    # the notification below stays OUTSIDE it (listeners take serving-layer
    # locks, and write-lock -> server-lock edges would close a deadlock cycle).
    with db.write_transaction():
        replaced_rows, linked = (
            _sqlite_linked_image(db, [paper.pid for paper in papers])
            if papers and db.has_subscribers else ([], set()))
        if papers:
            db.executemany(
                "INSERT OR REPLACE INTO dblp (pid, title, venue, year, abstract)"
                " VALUES (?, ?, ?, ?, ?)",
                [(paper.pid, paper.title, paper.venue, paper.year, paper.abstract)
                 for paper in papers])
        if paper_authors:
            db.executemany(
                "INSERT OR REPLACE INTO dblp_author (pid, aid) VALUES (?, ?)",
                paper_authors)
        if citations:
            db.executemany(
                "INSERT OR REPLACE INTO citation (pid, cid) VALUES (?, ?)",
                citations)
    if db.has_subscribers and (papers or paper_authors):
        # Post-image rows for papers with no earlier link are derivable in
        # memory from this call's arguments (a paper that gets no link here
        # is invisible to the inner join and carries no row).  Only pids the
        # database knows more about need the committed joined view: a
        # REPLACE'd paper keeps its surviving dblp_author links, a brand-new
        # paper joins the links stored before it, and link-only appends
        # target papers inserted earlier.  Each pid's post rows are then its
        # complete joined image, which the caches' repair relies on.
        fetch = sorted(linked
                       | ({pid for pid, _ in paper_authors}
                          - {paper.pid for paper in papers}))
        post_rows = _joined_rows(
            [paper for paper in papers if paper.pid not in linked],
            [(pid, aid) for pid, aid in paper_authors if pid not in linked])
        if fetch:
            post_rows += db.joined_rows(fetch)
        db.notify(DataMutation(
            TUPLES_INSERTED, "dblp",
            rows=post_rows,
            old_rows=replaced_rows,
            pids=[paper.pid for paper in papers]))
    return {"dblp": len(papers), "dblp_author": len(paper_authors),
            "citation": len(citations)}


def sqlite_delete_papers(db: Database, pids: Iterable[int]) -> Dict[str, int]:
    """SQLite body of :func:`delete_papers` (see that front door's contract)."""
    pids = sorted({int(pid) for pid in pids})
    if not pids:
        return {"dblp": 0, "dblp_author": 0, "citation": 0}
    placeholders = ", ".join("?" for _ in pids)
    # One write transaction (see the append body).
    with db.write_transaction():
        pre_image = db.joined_rows(pids) if db.has_subscribers else []
        removed = {
            "dblp": db.execute(
                f"DELETE FROM dblp WHERE pid IN ({placeholders})", pids).rowcount,
            "dblp_author": db.execute(
                f"DELETE FROM dblp_author WHERE pid IN ({placeholders})",
                pids).rowcount,
            "citation": db.execute(
                f"DELETE FROM citation WHERE pid IN ({placeholders})"
                f" OR cid IN ({placeholders})", pids + pids).rowcount,
        }
    if db.has_subscribers and any(removed.values()):
        db.notify(DataMutation(TUPLES_DELETED, "dblp",
                               old_rows=pre_image, pids=pids))
    return removed


def sqlite_update_papers(db: Database, papers: Sequence[Paper]) -> Dict[str, int]:
    """SQLite body of :func:`update_papers` (see that front door's contract)."""
    papers = list(papers)
    if not papers:
        return {"dblp": 0}
    pids = [paper.pid for paper in papers]
    placeholders = ", ".join("?" for _ in pids)
    # One write transaction (see the append body).  The existence check and
    # both images are taken inside it, as the memory engine does: a delete
    # landing between check and write would leave the update touching no
    # row while still reporting one and notifying an empty post-image.
    with db.write_transaction():
        existing = {int(row["pid"]) for row in db.query(
            f"SELECT pid FROM dblp WHERE pid IN ({placeholders})", pids)}
        missing = sorted(set(pids) - existing)
        if missing:
            raise WorkloadError(f"cannot update unknown papers: {missing}")
        pre_image = db.joined_rows(pids) if db.has_subscribers else []
        db.executemany(
            "UPDATE dblp SET title = ?, venue = ?, year = ?, abstract = ?"
            " WHERE pid = ?",
            [(paper.title, paper.venue, paper.year, paper.abstract, paper.pid)
             for paper in papers])
        post_image = db.joined_rows(pids) if db.has_subscribers else []
    if db.has_subscribers:
        db.notify(DataMutation(
            TUPLES_UPDATED, "dblp",
            rows=post_image,
            old_rows=pre_image,
            pids=pids))
    return {"dblp": len(papers)}


def sqlite_load_profiles(db: Database, registry: ProfileRegistry) -> Dict[str, int]:
    """SQLite body of :func:`load_profiles` (see that front door's contract)."""
    quantitative_rows: List[Tuple[int, str, float]] = []
    qualitative_rows: List[Tuple[int, str, str, float]] = []
    for profile in registry:
        quantitative, qualitative = staged_rows(profile)
        quantitative_rows.extend((profile.uid, *row) for row in quantitative)
        qualitative_rows.extend((profile.uid, *row) for row in qualitative)
    # One write transaction: a concurrent writer on the shared connection
    # can neither interleave with nor commit a half-written profile.
    with db.write_transaction():
        db.executemany(
            "INSERT INTO quantitative_pref (uid, preference, intensity)"
            " VALUES (?, ?, ?)",
            quantitative_rows)
        db.executemany(
            "INSERT INTO qualitative_pref"
            " (uid, left_pref, right_pref, intensity) VALUES (?, ?, ?, ?)",
            qualitative_rows)
    return {
        "quantitative_pref": len(quantitative_rows),
        "qualitative_pref": len(qualitative_rows),
    }


def sqlite_read_profiles(db: Database,
                         uids: Optional[Iterable[int]] = None) -> ProfileRegistry:
    """SQLite body of :func:`read_profiles` (see that front door's contract)."""
    registry = ProfileRegistry()
    params: Tuple = ()
    quant_sql = "SELECT uid, preference, intensity FROM quantitative_pref"
    qual_sql = "SELECT uid, left_pref, right_pref, intensity FROM qualitative_pref"
    uid_filter = ""
    if uids is not None:
        uid_list = sorted(set(int(uid) for uid in uids))
        placeholders = ", ".join("?" for _ in uid_list)
        uid_filter = f" WHERE uid IN ({placeholders})"
        params = tuple(uid_list)
    # Insertion order (pfid) makes profile reconstruction deterministic: the
    # builder's duplicate-merge averaging depends on the order preferences
    # are replayed, and every serving cold read builds from it.
    uid_filter += " ORDER BY pfid"
    for uid, predicate, intensity in db.query_tuples(quant_sql + uid_filter, params):
        registry.get_or_create(int(uid)).quantitative.append(QuantitativePreference(
            uid=int(uid), predicate=predicate, intensity=float(intensity)))
    for uid, left, right, intensity in db.query_tuples(qual_sql + uid_filter, params):
        registry.get_or_create(int(uid)).qualitative.append(QualitativePreference(
            uid=int(uid), left=left, right=right, intensity=float(intensity)))
    return registry


def sqlite_profile_rows(db: Database, uid: int) -> ProfileRows:
    """SQLite body of :func:`profile_rows` (see that front door's contract)."""
    params = (int(uid),)
    return (
        db.query_tuples("SELECT preference, intensity FROM quantitative_pref"
                        " WHERE uid = ? ORDER BY pfid", params),
        db.query_tuples("SELECT left_pref, right_pref, intensity"
                        " FROM qualitative_pref WHERE uid = ? ORDER BY pfid",
                        params))


def build_workload_database(config: DblpConfig = DblpConfig(),
                            path: str = ":memory:") -> Tuple[Database, DblpDataset]:
    """Generate the DBLP dataset for ``config`` and load it into a fresh
    SQLite :class:`~repro.sqldb.database.Database` at ``path``."""
    dataset = generate_dblp(config)
    db = Database(path)
    load_dataset(db, dataset)
    return db, dataset
