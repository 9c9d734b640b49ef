"""The multi-user Top-K serving engine's thread-safe front door.

:class:`TopKServer` ties the serving subsystem together:

* ``top_k(uid, k)`` — answer a personalised Top-K request, serving warm
  repeats from the :class:`~repro.serving.results.ResultCache` (zero SQL
  statements) and cold ones by building the user's PEPS from the persisted
  profile (:meth:`~repro.serving.sessions.SessionRegistry.get_or_create`)
  and keeping only the answer;
* ``update_profile(uid, profile)`` — *persist, invalidate*: append the new
  preferences to the staging tables and drop the user's cached answers; the
  next read builds from the staging tables — the one way a user's graph is
  ever built, so what is served equals :func:`fresh_top_k` whichever door a
  preference came through;
* ``insert_tuples(...)`` / ``delete_tuples(...)`` / ``update_tuples(...)``
  — mutate the workload relation through the loader's
  :func:`~repro.workload.loader.append_papers` /
  :func:`~repro.workload.loader.delete_papers` /
  :func:`~repro.workload.loader.update_papers`; the resulting
  :class:`~repro.sqldb.events.DataMutation` selectively prunes the shared
  id-list memo and repairs or drops only the cached answers whose
  predicates may match the mutation's pre- or post-image rows.

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
so the server then forgets every cached answer and id list (counted as
``serving.server.forgets.<door>``): after a fault it serves the exact answer
or refuses, never a stale one.

**Locking.**  Warm reads take no server lock; everything else — cold read,
profile update, data mutation, close — runs alone under the server's one
re-entrant lock.  Lock order, outermost first: server lock → build
counter → count cache / result cache → backend.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..core.hypre.builder import HypreGraphBuilder
from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ServingError, UnknownUserError
from ..backend.protocol import StorageBackend
from ..index import RowMatch
from ..sqldb.events import (
    TUPLES_DELETED,
    TUPLES_INSERTED,
    TUPLES_UPDATED,
    DataMutation,
)
from ..telemetry import Telemetry, span
from ..workload.dblp import Paper
from ..workload.loader import (
    append_papers,
    delete_papers,
    load_profiles,
    read_profiles,
    update_papers,
)
from .results import ResultCache
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

#: Over-fetch margin of every cached answer, in multiples of ``k``: a cold
#: ``top_k(uid, k)`` scores ``k + 2k`` tuples, so data mutations can be folded
#: into the cached buffer in place instead of dropping it.
REPAIR_MARGIN = 2

#: Result-cache counters reported under ``serving.result_cache.*`` (the
#: repair path's own metric component) instead of ``serving.results.*``.
_REPAIR_METRIC_KEYS = frozenset(
    {"repairs", "repair_fallbacks", "repair_underflows"})

@dataclass(frozen=True)
class ServeResult:
    """Outcome and per-request metrics of one ``top_k`` call."""

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
    caused, ``papers`` counts the affected dblp rows, ``joined_rows`` the
    pre- plus post-image joined-view rows the notification carried, and the
    cache-impact fields how selectively each layer reacted.
    """

    kind: str
    papers: int
    joined_rows: int
    results_invalidated: int
    results_spared: int
    #: Id lists dropped from the shared memo.
    index_entries_dropped: int
    sql_statements: int
    seconds: float
    #: Cached answers maintained in place by a delta repair, the affected
    #: entries that had to fall back to invalidation, and the SQL the result
    #: cache sweep itself issued (always 0 — repairs are pure in-memory;
    #: ``tests/test_server_machine.py`` asserts it).
    results_repaired: int = 0
    repair_fallbacks: int = 0
    repair_sql_statements: int = 0
    #: Cached answers the sweep visited: those with a preference whose every
    #: conjunct some mutation row may match — every repaired or invalidated
    #: answer, and no other unless a multi-conjunct preference's conjuncts
    #: matched only on different rows.
    entries_visited: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (for JSON reports)."""
        return {"kind": self.kind, "papers": self.papers,
                "joined_rows": self.joined_rows,
                "results_invalidated": self.results_invalidated,
                "results_spared": self.results_spared,
                "results_repaired": self.results_repaired,
                "repair_fallbacks": self.repair_fallbacks,
                "repair_sql_statements": self.repair_sql_statements,
                "entries_visited": self.entries_visited,
                "index_entries_dropped": self.index_entries_dropped,
                "sql_statements": self.sql_statements,
                "seconds": self.seconds}


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
        self.results = ResultCache()
        self._closed = False
        self._telemetry: Optional[Telemetry] = None
        self._read_latency = None
        self._mutation_latency = None
        # Request counters are bumped by the lock-free warm path too, so
        # they get their own little lock.
        self._stats_lock = threading.Lock()
        self.reads = 0
        self.read_hits = 0
        self.updates = 0
        self.inserts = 0
        self.deletes = 0
        self.tuple_updates = 0
        #: Requests that took the server lock (cold reads + profile
        #: updates).  The name predates the one lock: the e2e benchmark
        #: indexes ``serving.server.stripe_acquisitions``.
        self.stripe_acquisitions = 0
        #: Door errors by ``<door>.<exception kind>``, and :meth:`_forget`
        #: calls by the door whose failed mutation caused them.
        self._errors: Dict[str, int] = {}
        self._forgets: Dict[str, int] = {}
        #: The impact of the sweep the mutation in flight caused; written by
        #: the listener, consumed by ``_mutate`` (both under the lock).
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
        raises; a context manager would add a generator round-trip to every
        warm read (~1.4 µs on a ~3 µs hit)."""
        kind = re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()
        key = f"{door}.{kind}"
        with self._stats_lock:
            self._errors[key] = self._errors.get(key, 0) + 1

    def _forget(self, door: str) -> None:
        """Drop every cached answer and id list after ``door``'s mutation
        failed with no completed sweep behind it."""
        self.results.clear()
        self.sessions.runner.clear()
        with self._stats_lock:
            self._forgets[door] = self._forgets.get(door, 0) + 1

    def _bump(self, reads: int = 0, read_hits: int = 0, updates: int = 0,
              stripe_acquisitions: int = 0) -> None:
        """Fold one request's counter deltas in under a single acquisition."""
        with self._stats_lock:
            self.reads += reads
            self.read_hits += read_hits
            self.updates += updates
            self.stripe_acquisitions += stripe_acquisitions

    # -- profile storage ----------------------------------------------------------

    def update_profile(self, uid: int, profile: UserProfile) -> UpdateReport:
        """Persist ``profile``'s preferences and drop what they outdate.

        The preferences are appended to the relational staging tables and
        the user's cached answers are dropped.  The next read builds from
        the staging tables through the same
        :meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_profile`
        every other build uses, fetching only the id lists the shared memo
        does not hold.
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
                    invalidated = self.results.invalidate_user(uid)
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
        statements and **no server-level lock** (see the module docstring),
        the acceptance criterion of the serving benchmark and the load
        harness' hot path.  Cold requests take the server lock, build the
        user's PEPS from the persisted profile, run its fold and materialise
        the answer for the next caller while still holding it.  A known user
        with no positive preference is served the empty ranking, cached as
        a complete answer that depends on no predicate.
        """
        try:
            with self._trace("server.top_k") as trace:
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
            with self._stats_lock:
                self.reads += 1
                self.read_hits += 1
            return ServeResult(
                uid=uid, k=k, ranking=entry.ranking, cache_hit=True,
                sql_statements=0,
                seconds=time.perf_counter() - start)
        with self._locked():
            statements_before = self.db.statements_executed
            # Another thread may have materialised the answer while we
            # queued on the lock — serve it rather than recompute.
            entry = self.results.peek(uid, k)
            if entry is not None:
                self._bump(reads=1, read_hits=1, stripe_acquisitions=1)
                return ServeResult(
                    uid=uid, k=k, ranking=entry.ranking, cache_hit=True,
                    sql_statements=self.db.statements_executed - statements_before,
                    seconds=time.perf_counter() - start)
            # The warm path above never asks: a closed server holds no
            # cached answers, so every read ends up here.
            self._check_open()
            with span("sessions.get_or_create", self.db):
                peps = self.sessions.get_or_create(uid)
            # Snapshot *before* the data-reading computation the snapshot
            # guards.  No sweep can run before the put below — both happen
            # under the server lock — so the guard only protects a cache
            # driven without a server.
            epoch = self.results.epoch
            if peps is None:
                buffer, complete, conjuncts, intensities = [], True, (), ()
            else:
                with span("peps.top_k", self.db):
                    buffer, complete = peps.top_k_buffer(k, REPAIR_MARGIN * k)
                conjuncts = peps.conjuncts
                intensities = [pref.intensity for pref in peps.preferences]
            self.results.put(uid, k, buffer, complete, conjuncts, intensities,
                             epoch=epoch)
            ranking = tuple(buffer[:k])
            self._bump(reads=1, stripe_acquisitions=1)
            return ServeResult(
                uid=uid, k=k, ranking=ranking, cache_hit=False,
                sql_statements=self.db.statements_executed - statements_before,
                seconds=time.perf_counter() - start)

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
        sweeps and leaves the impact in ``_last_sweep``.
        """
        door, counter = _DOORS[kind]
        try:
            with self._trace(f"server.{door}") as trace:
                trace.annotate("papers", papers)
                with self._locked():
                    self._check_open()
                    start = time.perf_counter()
                    statements_before = self.db.statements_executed
                    self._last_sweep = None
                    try:
                        loader_call()
                    except Exception:
                        if self._last_sweep is None:
                            # The write may have committed with no sweep
                            # behind it (a fault in ``notify``, in a
                            # listener ahead of ours, or in the sweep):
                            # nothing cached is provably fresh any more.
                            self._forget(door)
                        raise
                    impact, self._last_sweep = self._last_sweep, None
                    if impact is None:
                        # A no-op mutation (e.g. deleting unknown pids)
                        # never notifies: nothing was invalidated, so
                        # everything cached counts as spared.
                        impact = {"joined_rows": 0, "results_invalidated": 0,
                                  "results_spared": len(self.results),
                                  "index_entries_dropped": 0}
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
        """
        with self._lock:
            self._last_sweep = self._sweep(mutation)

    def _sweep(self, mutation: DataMutation) -> Dict[str, int]:
        """Fan one data mutation out to every cache layer of this server.

        Called with the server lock held by the calling thread; returns the
        :class:`DataMutationReport` fields that describe the impact.
        ``invalidation_rows`` covers the full update spectrum — inserted
        post-image, deleted pre-image, both images of an in-place update —
        so one sound relevance test serves all three kinds: one
        :class:`~repro.index.selectivity.RowMatch` per sweep, shared by
        every layer.  Each layer judges only the conjuncts its
        :class:`~repro.index.selectivity.ConjunctIndex` says a row can
        reach and visits only their holders, so a sweep costs what the
        mutation touches, not what is cached.
        """
        with span("server.on_data_mutation") as trace:
            match = RowMatch(mutation.invalidation_rows())
            repairs_before = self.results.repairs
            fallbacks_before = self.results.repair_fallbacks
            visited_before = self.results.entries_visited
            sweep_statements_before = self.db.statements_executed
            results_invalidated = self.results.on_data_mutation(mutation, match)
            results_repaired = self.results.repairs - repairs_before
            repair_fallbacks = self.results.repair_fallbacks - fallbacks_before
            entries_visited = self.results.entries_visited - visited_before
            repair_sql = self.db.statements_executed - sweep_statements_before
            dropped = self.sessions.invalidate_matching(match)
            trace.annotate("kind", mutation.kind)
            trace.annotate("results_invalidated", results_invalidated)
            trace.annotate("results_repaired", results_repaired)
            trace.annotate("entries_visited", entries_visited)
            trace.annotate("rows", len(match.rows))
            trace.annotate("distinct_predicates", match.distinct_predicates)
            trace.annotate("keys_live", match.live_predicates)
            trace.annotate("predicate_row_tests", match.predicate_row_tests)
            return {"joined_rows": len(match.rows),
                    "results_invalidated": results_invalidated,
                    "results_spared": len(self.results) - results_repaired,
                    "index_entries_dropped": dropped,
                    "results_repaired": results_repaired,
                    "repair_fallbacks": repair_fallbacks,
                    "repair_sql_statements": repair_sql,
                    "entries_visited": entries_visited}

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
        with self._stats_lock:
            flat: Dict[str, Union[int, float]] = {
                "serving.server.reads": self.reads,
                "serving.server.read_hits": self.read_hits,
                "serving.server.updates": self.updates,
                "serving.server.inserts": self.inserts,
                "serving.server.deletes": self.deletes,
                "serving.server.tuple_updates": self.tuple_updates,
                "serving.server.stripe_acquisitions": self.stripe_acquisitions,
            }
            for key, value in self._errors.items():
                flat[f"serving.server.errors.{key}"] = value
            for door, value in self._forgets.items():
                flat[f"serving.server.forgets.{door}"] = value
        for key, value in self.sessions.stats().items():
            flat[f"serving.sessions.{key}"] = value
        for key, value in self.results.stats().items():
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
    """
    from ..algorithms.base import PreferenceQueryRunner, preferences_from_graph
    from ..algorithms.peps import PEPSAlgorithm

    registry = read_profiles(db, [uid])
    if uid not in registry:
        raise UnknownUserError(uid)
    builder = HypreGraphBuilder()
    builder.build_profile(registry.get(uid))
    preferences = preferences_from_graph(builder.hypre, uid)
    if not preferences:
        return []
    return PEPSAlgorithm(PreferenceQueryRunner(db), preferences).top_k(k)
