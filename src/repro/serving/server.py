"""The multi-user Top-K serving engine's thread-safe front door.

:class:`TopKServer` ties the serving subsystem together:

* ``top_k(uid, k)`` — answer a personalised Top-K request, serving warm
  repeats from the :class:`~repro.serving.results.ResultCache` (zero SQL
  statements) and cold ones by building the user's PEPS from the persisted
  profile (:meth:`~repro.serving.sessions.SessionRegistry.get_or_create`)
  and keeping only the answer;
* ``update_profile(uid, profile)`` — *persist, outdate; the next read
  repairs*: append the new preferences to the staging tables and take the
  user's cached answer out of serving, kept as a repair basis that records
  the rows just staged; the next read extends the basis's build
  outline by those rows when that is exact, else builds from the staging
  tables (:meth:`~repro.serving.sessions.SessionRegistry.get_or_create`) —
  either way Algorithm 1 over the staged rows, so what is served equals
  :func:`fresh_top_k` whichever door a preference came through — and
  rescores only the changed preferences' tuples of the basis
  (:meth:`~repro.serving.results.CachedResult.apply_profile`), or folds in
  full when it cannot;
* ``insert_tuples(...)`` / ``delete_tuples(...)`` / ``update_tuples(...)``
  — mutate the workload relation through the loader's
  :func:`~repro.workload.loader.append_papers` /
  :func:`~repro.workload.loader.delete_papers` /
  :func:`~repro.workload.loader.update_papers`; the resulting
  :class:`~repro.sqldb.events.DataMutation` patches the shared id-list
  memo's lists it touches — dropping one only on an undecidable row — and
  repairs or drops only the cached answers whose predicates may match the
  mutation's pre- or post-image rows.

Every request returns a metrics record (cache hit, SQL statements issued,
wall-clock seconds) so benchmarks and operators can attribute cost; a door
that raises counts the error by kind
(``serving.server.errors.<door>.<exception>``) and re-raises.

**One pipeline.**  Every data mutation runs the same path — door →
:meth:`TopKServer._mutate` (trace → server lock → loader → impact → counter
→ latency) → the database's notification → :meth:`TopKServer._sweep`, which
brings every cache layer up to date through one shared
:class:`~repro.index.RowMatch` and returns the impact the report carries.
A mutation that raises before its sweep completed may still have committed,
so the server then forgets every cached answer and id list, counted as
``serving.server.forgets.<door>.<place>`` — ``before_sweep`` when the loader
or the backend raised and no notification reached the server, ``in_sweep``
when the server's own sweep raised partway.  The listener forgets on its own
sweep's fault, so a direct loader call's is counted too, as
``serving.server.forgets.direct.in_sweep``: after a fault the server serves
the exact answer or refuses, never a stale one.

**Locking.**  A warm hit takes one lock, the result cache's own, and is
counted there; everything else — cold read, profile update, data mutation,
close — runs alone under the server's one re-entrant lock.  Lock order,
outermost first: server lock → result cache → backend.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from ..algorithms.peps import PEPSAlgorithm
from ..core.hypre.builder import HypreGraphBuilder
from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ServingError, TopKError, UnknownUserError
from ..backend.protocol import StorageBackend
from ..index import RowMatch
from ..sqldb.events import (
    TUPLES_DELETED,
    TUPLES_INSERTED,
    TUPLES_UPDATED,
    DataMutation,
)
from ..telemetry import Telemetry, span
from ..telemetry.trace import NULL_SPAN
from ..workload.dblp import Paper
from ..workload.loader import (
    append_papers,
    delete_papers,
    load_profiles,
    read_profiles,
    staged_rows,
    update_papers,
)
from .results import PROFILE_FALLBACKS, REPAIR_MARGIN, ResultCache
from .sessions import SessionRegistry

PaperLike = Union[Paper, Mapping[str, Any]]

#: Data-mutation kind → (front-door name, request counter) of the door that
#: causes it: the span is ``server.<door>``, the counter is exported as
#: ``serving.server.<counter>``.
_DOORS: Dict[str, Tuple[str, str]] = {
    TUPLES_INSERTED: ("insert_tuples", "inserts"),
    TUPLES_DELETED: ("delete_tuples", "deletes"),
    TUPLES_UPDATED: ("update_tuples", "tuple_updates"),
}

#: Result-cache counters reported under ``serving.result_cache.*`` (the
#: repair path's own metric component) instead of ``serving.results.*``.
_REPAIR_METRIC_KEYS = frozenset(
    {"repairs", "repair_fallbacks", "repair_underflows", "deltas_applied",
     "bases.entries", "basis_repairs", "basis_drops", "profile_repairs",
     "profile_tuples_rescored"}
    | {f"profile_repair_fallbacks.{reason}" for reason in PROFILE_FALLBACKS})

class ServeResult(NamedTuple):
    """Outcome and per-request metrics of one ``top_k`` call.

    ``k`` is the k asked for; the cached answer served may be deeper.  A
    named tuple, not a frozen dataclass: it is just as immutable, and a
    warm hit builds it positionally in ≈ 0.5 µs instead of ≈ 1.9 µs by
    keyword (2 cores).
    """

    uid: int
    k: int
    ranking: Tuple[Tuple[int, float], ...]
    cache_hit: bool
    sql_statements: int
    seconds: float

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (for JSON reports)."""
        return {"uid": self.uid, "k": self.k,
                "ranking": [list(entry) for entry in self.ranking],
                "cache_hit": self.cache_hit,
                "sql_statements": self.sql_statements,
                "seconds": self.seconds}


@dataclass(frozen=True)
class UpdateReport:
    """Metrics of one ``update_profile`` call."""

    uid: int
    quantitative: int
    qualitative: int
    results_invalidated: int
    sql_statements: int
    seconds: float


@dataclass(frozen=True)
class DataMutationReport:
    """Metrics of one data-side mutation request.

    ``kind`` is the :class:`~repro.sqldb.events.DataMutation` kind the door
    caused and ``papers`` counts the affected dblp rows.  The rest is the
    sweep's impact record, under the names its ``server.on_data_mutation``
    span annotates.  A no-op mutation notifies nothing: every cached answer
    counts as spared, and every other impact field stays 0.
    """

    kind: str
    papers: int
    sql_statements: int
    seconds: float
    #: The pre- plus post-image joined-view rows the notification carried.
    joined_rows: int = 0
    #: Cached answers dropped, maintained in place by a delta repair, the
    #: drops again as repair fallbacks (every drop is one), and the answers
    #: the mutation did not affect.
    results_invalidated: int = 0
    results_repaired: int = 0
    repair_fallbacks: int = 0
    results_spared: int = 0
    #: The SQL the result cache's sweep issued: always 0, since the cache
    #: holds no backend and repairs in memory
    #: (``tests/test_server_machine.py`` measures it around every sweep).
    repair_sql_statements: int = 0
    #: Cached answers the sweep visited: those holding a stale key (some one
    #: mutation row may match its every conjunct) — exactly the repaired and
    #: invalidated answers.
    entries_visited: int = 0
    #: Stale id lists patched in place from the mutation's rows / dropped
    #: from the shared memo: only those a post-image row may match but
    #: cannot be decided against.
    index_entries_patched: int = 0
    index_entries_dropped: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (for JSON reports)."""
        return asdict(self)


def _as_paper(row: PaperLike) -> Paper:
    if isinstance(row, Paper):
        return row
    return Paper(pid=int(row["pid"]), title=str(row.get("title", "")),
                 venue=str(row["venue"]), year=int(row["year"]),
                 abstract=str(row.get("abstract", "")))


def normalise_papers(papers: Sequence[PaperLike],
                     paper_authors: Iterable[Tuple[int, int]] = (),
                     ) -> Tuple[List[Paper], List[Tuple[int, int]]]:
    """Normalise an insert payload into ``(Paper records, author links)``.

    Accepts :class:`~repro.workload.dblp.Paper` records or plain mappings
    (``pid``/``venue``/``year`` required); an ``aids`` sequence in a mapping
    expands into author links.
    """
    links = list(paper_authors)
    records: List[Paper] = []
    for row in papers:
        record = _as_paper(row)
        records.append(record)
        if isinstance(row, Mapping):
            links.extend((record.pid, int(aid)) for aid in row.get("aids", ()))
    return records, links


class TopKServer:
    """Thread-safe multi-user Top-K serving engine over one workload backend.

    ``db`` is any :class:`~repro.backend.protocol.StorageBackend` — the
    SQLite engine and the in-memory columnar engine serve identical answers
    (asserted by the cross-backend differential harness); the server only
    consumes the protocol surface.  The server subscribes to ``db``'s data
    mutations once, so a mutation through any door — its own or a direct
    loader call — reaches every cache layer exactly once.
    """

    def __init__(self, db: StorageBackend, capacity: object = None) -> None:
        # ``capacity`` is accepted and ignored: no session is resident, but
        # the end-to-end benchmark's world still passes it.
        self.db = db
        # The one server lock (see the module docstring).
        self._lock = threading.RLock()
        self.sessions = SessionRegistry(db)
        # One conjunct index for both stores: the memo's, shared.
        self.results = ResultCache(self.sessions.runner.conjunct_index)
        self._closed = False
        self._telemetry: Optional[Telemetry] = None
        self._read_latency = None
        self._mutation_latency = None
        # The request counters' own little lock, so that ``metrics()`` never
        # waits on the server lock.  A warm hit bumps no counter here: it is
        # counted once, as a result-cache hit (see :attr:`reads`).
        self._stats_lock = threading.Lock()
        #: Reads completed under the server lock (cold reads and peek hits)
        #: / the peek hits among them.
        self._locked_reads = 0
        self._peek_hits = 0
        self.updates = 0
        self.inserts = 0
        self.deletes = 0
        self.tuple_updates = 0
        #: Requests that took the server lock (cold reads + profile
        #: updates).  The name predates the one lock: the e2e benchmark
        #: indexes ``serving.server.stripe_acquisitions``.
        self.stripe_acquisitions = 0
        #: Door errors by ``<door>.<exception kind>``, and :meth:`_forget`
        #: calls by ``<door>.<place>`` of the failed mutation behind them.
        self._errors: Dict[str, int] = {}
        self._forgets: Dict[str, int] = {}
        #: The door of the mutation in flight until its notification reaches
        #: the listener, and the impact of the sweep it caused; written by
        #: ``_mutate`` and the listener, both under the lock.
        self._door: Optional[str] = None
        self._last_sweep: Optional[Dict[str, int]] = None
        self._data_listener = db.subscribe(self._on_data_mutation)

    # -- telemetry ----------------------------------------------------------------

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The adopted telemetry bundle (set by :meth:`Telemetry.observe`)."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry: Optional[Telemetry]) -> None:
        # Latency instruments are resolved once here so the request paths
        # never pay a registry lookup (the warm read path stays lock-free
        # apart from the instrument's own leaf lock).
        self._telemetry = telemetry
        if telemetry is None:
            self._read_latency = None
            self._mutation_latency = None
        else:
            registry = telemetry.registry
            self._read_latency = registry.histogram(
                "serving.server.read_latency")
            self._mutation_latency = registry.histogram(
                "serving.server.mutation_latency")

    def _trace(self, name: str):
        """A root span when telemetry is adopted; an ambient child span
        otherwise (a no-op unless the caller already has a span open)."""
        telemetry = self._telemetry
        if telemetry is not None:
            return telemetry.trace(name, self.db)
        return span(name, self.db)

    # -- lifecycle ----------------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """``with self._locked():`` — the server lock, the time spent
        queueing for it recorded as a ``server.lock_wait`` child span.

        Whoever holds it is alone with the backend and every cached state:
        no cold compute or profile update overlaps a commit or a sweep, and
        no second mutation runs.  Every :meth:`_sweep` runs on the thread
        that holds it, so when the section unwinds — normally or on an
        exception — no sweep is still running.
        """
        with span("server.lock_wait"):
            self._lock.acquire()
        try:
            yield
        finally:
            self._lock.release()

    def close(self) -> None:
        """Stop serving, for good: unsubscribe, drop every cached answer and
        refuse from now on.

        Terminal — without the subscription the cached state can no longer
        be kept exact, so every front door that reaches the cold or the
        mutation path raises ``ServingError("server is closed")`` afterwards
        (with no cached answers left, every read takes the cold path).
        Waits for in-flight requests to drain.
        """
        with self._lock:
            self._closed = True
            if self._data_listener is not None:
                self.db.unsubscribe(self._data_listener)
                self._data_listener = None
            self.results.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError("server is closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _count_error(self, door: str, exc: Exception) -> None:
        """Count one error a front door raised, by exception kind (the class
        name in snake case, a legal metric segment).  Each door calls it
        from a plain ``try``/``except``, which costs nothing until it
        raises; a context manager would add a generator round-trip
        (≈ 1.5 µs) to every warm read, more than the whole untraced hit
        (≈ 1.4 µs on 2 cores: ≈ 0.6 µs result-cache lookup, ≈ 0.5 µs
        record, the rest two clock reads and the calls)."""
        kind = re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()
        key = f"{door}.{kind}"
        with self._stats_lock:
            self._errors[key] = self._errors.get(key, 0) + 1

    def _forget(self, door: str, place: str) -> None:
        """Drop every cached answer and id list after ``door``'s mutation
        failed with no completed sweep behind it; ``place`` is where it
        failed — ``before_sweep`` or ``in_sweep``.  ``door`` is ``direct``
        for a loader call that came through no door of this server."""
        self.results.clear()
        self.sessions.runner.clear()
        key = f"{door}.{place}"
        with self._stats_lock:
            self._forgets[key] = self._forgets.get(key, 0) + 1

    def _bump(self, locked_reads: int = 0, peek_hits: int = 0,
              updates: int = 0, stripe_acquisitions: int = 0) -> None:
        """Fold one request's counter deltas in under a single acquisition.

        Only requests holding the server lock call it; a warm hit is
        counted by the result cache alone."""
        with self._stats_lock:
            self._locked_reads += locked_reads
            self._peek_hits += peek_hits
            self.updates += updates
            self.stripe_acquisitions += stripe_acquisitions

    def _read_counts(self, hits: int) -> Tuple[int, int]:
        """``(reads, read_hits)`` given the result cache's ``hits``.

        Every hit of :meth:`ResultCache.get` is a served warm read, so
        ``reads`` is those hits plus the reads completed under the server
        lock, and ``read_hits`` those hits plus the peek hits.  Reading
        ``hits`` once for both keeps ``read_hits <= reads``."""
        with self._stats_lock:
            return hits + self._locked_reads, hits + self._peek_hits

    @property
    def reads(self) -> int:
        """Completed ``top_k`` calls."""
        return self._read_counts(self.results.hits)[0]

    @property
    def read_hits(self) -> int:
        """Completed ``top_k`` calls served from a cached answer."""
        return self._read_counts(self.results.hits)[1]

    # -- profile storage ----------------------------------------------------------

    def update_profile(self, uid: int, profile: UserProfile) -> UpdateReport:
        """Persist ``profile``'s preferences and outdate the user's answer;
        the next read repairs.

        The preferences are appended to the relational staging tables and
        the user's cached answer leaves serving, kept as a repair basis
        that records the staged rows
        (:meth:`~repro.serving.results.ResultCache.invalidate_user`);
        nothing is built here.  The next read extends the basis's build
        outline by those rows, or builds from the staged rows through
        Algorithm 1's one body,
        :meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_rows`,
        when the extension is not exact; it fetches only the id lists the
        shared memo does not hold, and rescores only the changed
        preferences' tuples of the basis.
        """
        try:
            if profile.uid != uid:
                raise ServingError(f"profile for uid={profile.uid} passed to "
                                   f"update_profile(uid={uid})")
            with self._trace("server.update_profile") as trace:
                trace.annotate("uid", uid)
                with self._locked():
                    self._check_open()
                    start = time.perf_counter()
                    statements_before = self.db.statements_executed
                    registry = ProfileRegistry()
                    registry.add(profile)
                    load_profiles(self.db, registry)
                    invalidated = self.results.invalidate_user(
                        uid, staged_rows(profile))
                    self._bump(updates=1, stripe_acquisitions=1)
                    report = UpdateReport(
                        uid=uid,
                        quantitative=len(profile.quantitative),
                        qualitative=len(profile.qualitative),
                        results_invalidated=invalidated,
                        sql_statements=(self.db.statements_executed
                                        - statements_before),
                        seconds=time.perf_counter() - start)
                if self._mutation_latency is not None:
                    self._mutation_latency.record(report.seconds)
                return report
        except Exception as exc:
            self._count_error("update_profile", exc)
            raise

    # -- reads --------------------------------------------------------------------

    def top_k(self, uid: int, k: int) -> ServeResult:
        """Answer one personalised Top-K request.

        Warm requests are served straight from the result cache — zero SQL
        statements, **no server-level lock** and no counter of the server's
        (see the module docstring), the acceptance criterion of the serving
        benchmark and the load harness' hot path; untraced, a warm hit is
        one result-cache lookup and one named tuple; a larger ``k`` than
        the cached answer's reads cold from its outline and replaces it,
        and ``k < 1`` raises
        :class:`~repro.exceptions.TopKError`.  Cold requests take
        the server lock, take the basis a profile update left, build the
        user's PEPS — from the basis's build outline, or from the persisted
        profile — repair the basis (a ``peps.repair`` span) or
        run the full fold (``peps.top_k``; nested in ``peps.repair`` when
        the repair falls back) and materialise the answer for the next
        caller while still holding it.  A known user
        with no positive preference is served the empty ranking, cached as
        a complete answer that depends on no predicate.
        """
        try:
            trace = self._trace("server.top_k")
            if trace is NULL_SPAN:
                # Nothing traces and nothing records latency (an adopted
                # Telemetry always opens a real span): the bare body.
                return self._serve_top_k(uid, k)
            with trace:
                trace.annotate("uid", uid)
                result = self._serve_top_k(uid, k)
                trace.annotate("cache_hit", result.cache_hit)
        except Exception as exc:
            self._count_error("top_k", exc)
            raise
        if self._read_latency is not None:
            self._read_latency.record(result.seconds)
        return result

    def _serve_top_k(self, uid: int, k: int) -> ServeResult:
        """The uninstrumented ``top_k`` body (see :meth:`top_k`)."""
        start = time.perf_counter()
        entry = self.results.get(uid, k)
        if entry is not None:
            # Counted by ``get`` as a result-cache hit; see :attr:`reads`.
            return ServeResult(
                uid, k, entry.ranking if k == entry.k else entry.buffer[:k],
                True, 0, time.perf_counter() - start)
        if k < 1:
            raise TopKError("k must be positive")
        with self._locked():
            # Another thread may have materialised the answer while we
            # queued on the lock — serve it rather than recompute.  Every
            # answer serves k = 1: ``answer`` is the user's, at its own k.
            answer = self.results.peek(uid, 1)
            if answer is not None and k <= answer.k:
                self._bump(locked_reads=1, peek_hits=1, stripe_acquisitions=1)
                return ServeResult(uid, k, answer.buffer[:k], True, 0,
                                   time.perf_counter() - start)
            # The warm path above never asks: a closed server holds no
            # cached answers, so every read ends up here.
            self._check_open()
            statements_before = self.db.statements_executed
            basis = self.results.take_basis(uid)
            with span("sessions.get_or_create", self.db):
                # A shallower answer's outline is the profile's as it is.
                peps, outline = self.sessions.get_or_create(uid,
                                                            basis or answer)
            # Snapshot *before* the data-reading computation the snapshot
            # guards.  No sweep can run before the put below — both happen
            # under the server lock — so the guard only protects a cache
            # driven without a server.
            epoch = self.results.epoch
            serves = k  # the largest k the answer put below serves
            if peps is None:
                buffer, complete, conjuncts, intensities = [], True, (), ()
            else:
                conjuncts = peps.conjuncts
                intensities = [pref.intensity for pref in peps.preferences]
                if basis is None:
                    buffer, complete = self._fold(peps, k)
                else:
                    with span("peps.repair", self.db):
                        rebased = self.results.repair_profile(
                            basis, self.sessions.runner, peps.preferences,
                            conjuncts, k)
                        if rebased is None:
                            buffer, complete = self._fold(peps, k)
                        else:
                            buffer, complete = rebased.buffer, rebased.complete
                            # As deep as the basis's: serves its k too.
                            if complete or len(buffer) >= basis.k:
                                serves = max(k, basis.k)
            self.results.put(uid, serves, buffer, complete, conjuncts,
                             intensities, epoch=epoch, outline=outline)
            ranking = tuple(buffer[:k])
            self._bump(locked_reads=1, stripe_acquisitions=1)
            return ServeResult(
                uid, k, ranking, False,
                self.db.statements_executed - statements_before,
                time.perf_counter() - start)

    def _fold(self, peps: PEPSAlgorithm, k: int
              ) -> Tuple[List[Tuple[int, float]], bool]:
        """The full fold of a cold read: the ``k + 2k`` deep buffer."""
        with span("peps.top_k", self.db):
            return peps.top_k_buffer(k, REPAIR_MARGIN * k)

    # -- data-side updates --------------------------------------------------------

    def insert_tuples(self, papers: Sequence[PaperLike],
                      paper_authors: Iterable[Tuple[int, int]] = (),
                      citations: Iterable[Tuple[int, int]] = ()
                      ) -> DataMutationReport:
        """Append workload tuples and selectively invalidate every cache.

        ``papers`` accepts :class:`~repro.workload.dblp.Paper` records or
        plain mappings (``pid``/``venue``/``year`` required; an ``aids``
        sequence in a mapping expands into author links).  The append commits
        and then notifies, so by the time this returns every stale cache
        entry is gone and every provably fresh one survived.
        """
        records, links = normalise_papers(papers, paper_authors)
        return self._mutate(
            TUPLES_INSERTED, len(records),
            lambda: append_papers(self.db, records, links, citations))

    def delete_tuples(self, pids: Iterable[int]) -> DataMutationReport:
        """Delete workload tuples and selectively invalidate every cache.

        The delete commits and then notifies with the removed rows'
        *pre-image*, so by the time this returns every cached answer and id
        list a removed tuple may have contributed to is repaired or gone,
        and everything provably unaffected survived.
        """
        pids = list(pids)
        return self._mutate(TUPLES_DELETED, len(pids),
                            lambda: delete_papers(self.db, pids))

    def update_tuples(self, papers: Sequence[PaperLike]) -> DataMutationReport:
        """Update existing workload tuples in place, invalidating selectively.

        ``papers`` carry the new attribute values for already-present pids
        (:class:`~repro.exceptions.WorkloadError` for unknown ones).  The
        notification carries the pre- *and* post-image, so a cached entry is
        spared only when no predicate can match either version of a changed
        tuple.
        """
        records = [_as_paper(row) for row in papers]
        return self._mutate(TUPLES_UPDATED, len(records),
                            lambda: update_papers(self.db, records))

    def _mutate(self, kind: str, papers: int,
                loader_call: Callable[[], object]) -> DataMutationReport:
        """The one data-mutation pipeline: trace → server lock → loader →
        impact → counter → latency.

        ``loader_call`` commits and notifies; the notification re-enters
        :meth:`_on_data_mutation` (the server lock is re-entrant), which
        takes the door, sweeps and leaves the impact in ``_last_sweep``.
        """
        door, counter = _DOORS[kind]
        try:
            with self._trace(f"server.{door}") as trace:
                trace.annotate("papers", papers)
                with self._locked():
                    self._check_open()
                    start = time.perf_counter()
                    statements_before = self.db.statements_executed
                    self._door, self._last_sweep = door, None
                    try:
                        loader_call()
                    except Exception:
                        if self._door is not None:
                            # No notification reached the listener, yet the
                            # write may have committed (a fault in
                            # ``notify`` or in the listener call): nothing
                            # cached is provably fresh any more.  A sweep
                            # that raised has forgotten on its own.
                            self._forget(door, "before_sweep")
                        raise
                    finally:
                        self._door = None
                    impact, self._last_sweep = self._last_sweep, None
                    if impact is None:
                        # A no-op mutation (e.g. deleting unknown pids)
                        # never notifies: nothing was invalidated, so
                        # everything cached counts as spared.
                        impact = {"results_spared": len(self.results)}
                    report = DataMutationReport(
                        kind=kind, papers=papers,
                        sql_statements=(self.db.statements_executed
                                        - statements_before),
                        seconds=time.perf_counter() - start, **impact)
                    with self._stats_lock:
                        setattr(self, counter, getattr(self, counter) + 1)
            if self._mutation_latency is not None:
                self._mutation_latency.record(report.seconds)
            return report
        except Exception as exc:
            self._count_error(door, exc)
            raise

    def _on_data_mutation(self, mutation: DataMutation) -> None:
        """Database listener: sweep once per event, whoever caused it.

        Runs for mutations from this server's own doors *and* for direct
        loader calls against the shared database; the server lock keeps a
        direct mutation from another thread from interleaving with an
        in-flight :meth:`_mutate` and being misattributed to its report.
        A sweep that raises leaves the stores half maintained, so the
        listener forgets them before re-raising, counted under the door in
        flight or, for a direct call, ``direct``.
        """
        with self._lock:
            door, self._door = self._door, None
            try:
                self._last_sweep = self._sweep(mutation)
            except Exception:
                self._forget(door or "direct", "in_sweep")
                raise

    def _sweep(self, mutation: DataMutation) -> Dict[str, int]:
        """Fan one data mutation out to every cache layer of this server.

        Called with the server lock held by the calling thread; returns the
        :class:`DataMutationReport` fields that describe the impact.
        ``invalidation_rows`` covers the full update spectrum — inserted
        post-image, deleted pre-image, both images of an in-place update —
        so one sound relevance test serves all three kinds: one
        :class:`~repro.index.selectivity.RowMatch` per sweep, which carries
        the rows, the post-image and each touched pid's rows, and which is
        all either store is handed.  The stores share one
        :class:`~repro.index.selectivity.ConjunctIndex`, whose one bucket
        pass names the stale keys (memoised on ``match``), and each walks
        only the stale keys it holds, so a sweep costs what the mutation
        touches, not what is cached.  Both are
        maintained from the rows, with no SQL — the result cache repairs its
        answers and the id-list memo patches its lists, each dropping an
        entry only on a row it cannot decide — and each returns its share of
        the impact, which the span annotates under the report's names; the
        result cache adds the answers its score bound could not spare
        (``deltas_applied``).
        """
        with span("server.on_data_mutation") as trace:
            match = RowMatch.of(mutation)
            impact = self.results.on_data_mutation(match)
            impact.update(self.sessions.invalidate_matching(match))
            impact["joined_rows"] = len(match.rows)
            trace.annotate("kind", mutation.kind)
            for name, value in impact.items():
                trace.annotate(name, value)
            trace.annotate("distinct_predicates", match.distinct_predicates)
            trace.annotate("keys_live", match.live_predicates)
            trace.annotate("predicate_row_tests", match.predicate_row_tests)
            return impact

    # -- introspection ------------------------------------------------------------

    def metrics(self) -> Dict[str, Union[int, float]]:
        """Every layer's counters as one flat unified-name mapping.

        The one introspection surface: names follow the telemetry naming
        scheme (``serving.server.reads``, ``serving.results.hits``,
        ``backend.<name>.statements_executed``), so the mapping plugs
        straight into a :class:`~repro.telemetry.MetricsRegistry` as a
        snapshot adapter.

        ``index.count_cache.*`` reads the shared runner's count cache, which
        serving never consults: the keys stay, at 0, because the end-to-end
        benchmark reads them by name.
        """
        cache = self.results.stats()
        reads, read_hits = self._read_counts(cache["hits"])
        with self._stats_lock:
            flat: Dict[str, Union[int, float]] = {
                "serving.server.reads": reads,
                "serving.server.read_hits": read_hits,
                "serving.server.updates": self.updates,
                "serving.server.inserts": self.inserts,
                "serving.server.deletes": self.deletes,
                "serving.server.tuple_updates": self.tuple_updates,
                "serving.server.stripe_acquisitions": self.stripe_acquisitions,
            }
            for key, value in self._errors.items():
                flat[f"serving.server.errors.{key}"] = value
            for key, value in self._forgets.items():
                flat[f"serving.server.forgets.{key}"] = value
        for key, value in self.sessions.stats().items():
            flat[f"serving.sessions.{key}"] = value
        for key, value in cache.items():
            component = ("result_cache" if key in _REPAIR_METRIC_KEYS
                         else "results")
            flat[f"serving.{component}.{key}"] = value
        count_cache = self.sessions.runner.count_cache
        flat["index.count_cache.entries"] = len(count_cache)
        flat["index.count_cache.hits"] = count_cache.hits
        flat["index.count_cache.misses"] = count_cache.misses
        flat["index.count_cache.statements"] = count_cache.statements
        flat[f"backend.{self.db.backend_name}.statements_executed"] = \
            self.db.statements_executed
        return flat


def fresh_top_k(db: StorageBackend, uid: int, k: int) -> List[Tuple[int, float]]:
    """Recompute one user's Top-K from scratch — the serving-path oracle.

    Reads the profile from the staging tables, builds a fresh HYPRE graph and
    a fresh (unshared) runner, and runs PEPS over fresh id lists; a user
    with no positive preference ranks nothing.
    Used by the equivalence tests and the no-cache replay baseline: whatever
    :meth:`TopKServer.top_k` serves must equal this after every mutation.
    It deliberately keeps the ``read_profiles`` → ``build_profile`` path —
    preference objects, then the builder's profile adapter — as the
    differential for the serving read's ``profile_rows`` → ``build_rows``.
    """
    from ..algorithms.base import PreferenceQueryRunner, preferences_from_graph

    registry = read_profiles(db, [uid])
    if uid not in registry:
        raise UnknownUserError(uid)
    builder = HypreGraphBuilder()
    builder.build_profile(registry.get(uid))
    preferences = preferences_from_graph(builder.hypre, uid)
    if not preferences:
        return []
    return PEPSAlgorithm(PreferenceQueryRunner(db), preferences).top_k(k)
