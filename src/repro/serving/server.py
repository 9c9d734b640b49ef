"""The multi-user Top-K serving engine's thread-safe front door.

:class:`TopKServer` ties the serving subsystem together:

* ``top_k(uid, k)`` — answer a personalised Top-K request, serving warm
  repeats from the :class:`~repro.serving.results.ResultCache` (zero SQL
  statements) and cold ones through the user's resident
  :class:`~repro.serving.sessions.UserSession`;
* ``update_profile(uid, profile)`` — *persist, drop, rebuild*: append the
  new preferences to the staging tables, drop the user's resident session
  and cached answers, and let the next read rebuild the session from the
  persisted profile — the one way a user's graph is ever built, so what is
  served equals :func:`fresh_top_k` whichever door a preference came
  through;
* ``insert_tuples(...)`` / ``delete_tuples(...)`` / ``update_tuples(...)``
  — mutate the workload relation through the loader's
  :func:`~repro.workload.loader.append_papers` /
  :func:`~repro.workload.loader.delete_papers` /
  :func:`~repro.workload.loader.update_papers`; the resulting
  :class:`~repro.sqldb.events.DataMutation` selectively invalidates the
  shared count/id caches, every resident pair index and only the cached
  answers whose predicates may match the mutation's pre- or post-image
  rows.

Every request returns a metrics record (cache hit, SQL statements issued,
wall-clock seconds) so benchmarks and operators can attribute cost.

**One surface.**  :class:`ServingSurface` is the front door shared with the
sharded cluster (:mod:`repro.serving.cluster`): lifecycle, tracing,
telemetry adoption and the three data-mutation doors live there once.  Every
data mutation runs the same pipeline — door → :meth:`ServingSurface._mutate`
(trace → server lock → loader → impact → counter → latency) → the
database's notification → :meth:`ServingSurface._sweep` — and only
``_sweep`` differs: a server sweeps its own caches, the cluster fans the
event out to its shards.  A plain server is its own single shard
(``shards == 1``, ``shard_of(uid) == 0``, ``shard_servers == (self,)``), so
callers never branch on which of the two they hold.

**Locking.**  Warm reads take no server lock; everything else on a server
— cold read, profile update, data mutation, close — runs alone under that
server's one re-entrant lock; a cluster mutation takes every shard's lock in
shard order.  Lock order, outermost first: server lock → session registry →
count cache / result cache → backend.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
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
#: causes it: the span is ``<server|cluster>.<door>``, the counter is
#: exported as ``serving.server.<counter>``.
_DOORS: Dict[str, Tuple[str, str]] = {
    TUPLES_INSERTED: ("insert_tuples", "inserts"),
    TUPLES_DELETED: ("delete_tuples", "deletes"),
    TUPLES_UPDATED: ("update_tuples", "tuple_updates"),
}

#: The cache-impact fields a :class:`DataMutationReport` totals over its
#: per-shard records.
_IMPACT_FIELDS = ("results_invalidated", "results_spared",
                  "index_entries_dropped", "results_repaired",
                  "repair_fallbacks", "repair_sql_statements")

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
    resident: bool
    quantitative: int
    qualitative: int
    results_invalidated: int
    sql_statements: int
    seconds: float


@dataclass(frozen=True)
class ShardMutationReport:
    """One shard's reaction to a data mutation (a server is shard 0)."""

    shard: int
    results_invalidated: int = 0
    results_spared: int = 0
    index_entries_dropped: int = 0
    results_repaired: int = 0
    repair_fallbacks: int = 0
    #: SQL the result-cache sweep itself issued (always 0 — repairs are
    #: pure in-memory; ``benchmarks/bench_repair.py`` asserts it).
    repair_sql_statements: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict rendering (for JSON reports and replay events)."""
        return {"shard": self.shard,
                "results_invalidated": self.results_invalidated,
                "results_spared": self.results_spared,
                "index_entries_dropped": self.index_entries_dropped,
                "results_repaired": self.results_repaired,
                "repair_fallbacks": self.repair_fallbacks,
                "repair_sql_statements": self.repair_sql_statements}


@dataclass(frozen=True)
class DataMutationReport:
    """Metrics of one data-side mutation request, on a server or a cluster.

    ``kind`` is the :class:`~repro.sqldb.events.DataMutation` kind the door
    caused, ``papers`` counts the affected dblp rows, ``joined_rows`` the
    pre- plus post-image joined-view rows the notification carried, and the
    cache-impact fields how selectively each layer reacted — totals over
    ``shard_reports``, which carries one record per shard (a plain server
    is its own single shard).
    """

    kind: str
    papers: int
    joined_rows: int
    results_invalidated: int
    results_spared: int
    #: Counts and id lists dropped from the shared stores (sessions hold none).
    index_entries_dropped: int
    sql_statements: int
    seconds: float
    #: Cached answers maintained in place by a delta repair, the affected
    #: entries that had to fall back to invalidation, and the SQL the result
    #: cache sweeps themselves issued.
    results_repaired: int = 0
    repair_fallbacks: int = 0
    repair_sql_statements: int = 0
    shard_reports: Tuple[ShardMutationReport, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (for JSON reports)."""
        return {"kind": self.kind, "papers": self.papers,
                "joined_rows": self.joined_rows,
                "results_invalidated": self.results_invalidated,
                "results_spared": self.results_spared,
                "results_repaired": self.results_repaired,
                "repair_fallbacks": self.repair_fallbacks,
                "repair_sql_statements": self.repair_sql_statements,
                "index_entries_dropped": self.index_entries_dropped,
                "sql_statements": self.sql_statements,
                "seconds": self.seconds,
                "shards": [report.as_dict() for report in self.shard_reports]}


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


class ServingSurface:
    """The front door a :class:`TopKServer` and the sharded cluster share.

    Owns what is identical on both: the backend handle and its one
    data-mutation subscription, the exclusive section over the shards'
    locks, telemetry adoption and tracing, the terminal
    :meth:`close`, and the three data-mutation doors with their single
    :meth:`_mutate` pipeline.  A subclass supplies
    ``top_k`` / ``update_profile`` / ``metrics``, a ``results`` view and
    :meth:`_sweep` — how one :class:`~repro.sqldb.events.DataMutation`
    reaches its cached state.
    """

    #: Root of the front-door span names (``server.top_k``, ...).
    _span_root = "server"

    def __init__(self, db: StorageBackend, subscribe: bool = True) -> None:
        self.db = db
        self._closed = False
        self._telemetry: Optional[Telemetry] = None
        self._read_latency = None
        self._mutation_latency = None
        # Request counters are bumped by the lock-free warm path too, so
        # they get their own little lock.
        self._stats_lock = threading.Lock()
        self.inserts = 0
        self.deletes = 0
        self.tuple_updates = 0
        #: ``(joined rows, per-shard reports)`` of the sweep the mutation in
        #: flight caused; written by the listener, consumed by ``_mutate``
        #: (both inside :meth:`_exclusive`).
        self._last_sweep: Optional[
            Tuple[int, Tuple[ShardMutationReport, ...]]] = None
        # ``subscribe=False`` leaves event delivery to an outer coordinator:
        # the sharded cluster subscribes once and fans each DataMutation out
        # to every shard itself.
        self._data_listener = (db.subscribe(self._on_data_mutation)
                               if subscribe else None)

    # -- sharding (a plain server is its own single shard) ------------------------

    @property
    def shard_servers(self) -> Tuple["TopKServer", ...]:
        """The :class:`TopKServer` instances holding the serving state."""
        return (self,)

    @property
    def shards(self) -> int:
        """How many shards the users are partitioned across."""
        return len(self.shard_servers)

    def shard_of(self, uid: int) -> int:
        """The shard index owning ``uid``."""
        return 0

    def shard_for(self, uid: int) -> "TopKServer":
        """The :class:`TopKServer` shard owning ``uid``."""
        return self.shard_servers[self.shard_of(uid)]

    def resident_uids(self) -> Dict[int, List[int]]:
        """Resident user ids per shard index (LRU order within each shard)."""
        return {index: shard.sessions.resident_uids()
                for index, shard in enumerate(self.shard_servers)}

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
        otherwise (so an unobserved shard still nests under a traced
        cluster request, and a bare server pays a no-op)."""
        telemetry = self._telemetry
        if telemetry is not None:
            return telemetry.trace(name, self.db)
        return span(name, self.db)

    # -- lifecycle ----------------------------------------------------------------

    def _exclusive(self) -> ExitStack:
        """``with self._exclusive():`` — every shard's (re-entrant) server
        lock, in shard order; a plain server's one lock.

        Whoever holds it is alone with the backend and every cached state:
        no cold compute or profile update anywhere overlaps a commit or a
        sweep, and no second mutation runs — on a cluster exactly as on a
        single server, with no lock of the cluster's own.  Every
        :meth:`_sweep` runs on the thread that holds every shard's lock, so
        when the section unwinds — normally or on an exception — no sweep is
        still running.
        """
        with ExitStack() as held:
            for shard in self.shard_servers:
                held.enter_context(shard._lock)
            return held.pop_all()

    def close(self) -> None:
        """Stop serving, for good: unsubscribe and refuse from now on.

        Terminal — without the subscription the cached state can no longer
        be kept exact, so every front door that reaches the cold or the
        mutation path raises ``ServingError("server is closed")`` afterwards
        (subclasses also drop their cached answers, which sends every read
        down the cold path).  Waits for in-flight requests to drain.
        """
        with self._exclusive():
            self._closed = True
            if self._data_listener is not None:
                self.db.unsubscribe(self._data_listener)
                self._data_listener = None

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError("server is closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
        *pre-image*, so by the time this returns every cached answer, count
        and id list a removed tuple may have contributed to is gone —
        including id-list memos, which deletes shrink in a way counts alone
        would not reveal — and everything provably unaffected survived.
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
        :meth:`_on_data_mutation` (the server locks are re-entrant), which
        sweeps and leaves the per-shard impact in ``_last_sweep``.
        """
        door, counter = _DOORS[kind]
        with self._trace(f"{self._span_root}.{door}") as trace:
            trace.annotate("papers", papers)
            with span("server.lock_wait"):
                held = self._exclusive()
            with held:
                self._check_open()
                start = time.perf_counter()
                statements_before = self.db.statements_executed
                self._last_sweep = None
                loader_call()
                swept, self._last_sweep = self._last_sweep, None
                if swept is None:
                    # A no-op mutation (e.g. deleting unknown pids) never
                    # notifies: nothing was invalidated, so everything
                    # cached counts as spared.
                    swept = 0, tuple(
                        ShardMutationReport(shard=index,
                                            results_spared=len(shard.results))
                        for index, shard in enumerate(self.shard_servers))
                joined_rows, shard_reports = swept
                totals = {name: sum(getattr(shard, name)
                                    for shard in shard_reports)
                          for name in _IMPACT_FIELDS}
                report = DataMutationReport(
                    kind=kind, papers=papers, joined_rows=joined_rows,
                    sql_statements=(self.db.statements_executed
                                    - statements_before),
                    seconds=time.perf_counter() - start,
                    shard_reports=shard_reports, **totals)
                with self._stats_lock:
                    setattr(self, counter, getattr(self, counter) + 1)
        if self._mutation_latency is not None:
            self._mutation_latency.record(report.seconds)
        return report

    def _on_data_mutation(self, mutation: DataMutation) -> None:
        """Database listener: sweep once per event, whoever caused it.

        Runs for mutations from this surface's own doors *and* for direct
        loader calls against the shared database; the exclusive section
        keeps a direct mutation from another thread from interleaving with
        an in-flight :meth:`_mutate` and being misattributed to its report.
        """
        with self._exclusive():
            self._last_sweep = (len(mutation.invalidation_rows()),
                                self._sweep(mutation))

    def _sweep(self, mutation: DataMutation
               ) -> Tuple[ShardMutationReport, ...]:
        """Bring the cached state up to date with ``mutation``.

        Called with :meth:`_exclusive` held by the calling thread; returns
        one impact record per shard.
        """
        raise NotImplementedError

    # -- introspection ------------------------------------------------------------

    def metrics(self) -> Dict[str, Union[int, float]]:
        """Every layer's counters as one flat unified-name mapping."""
        raise NotImplementedError


class TopKServer(ServingSurface):
    """Thread-safe multi-user Top-K serving engine over one workload backend.

    ``db`` is any :class:`~repro.backend.protocol.StorageBackend` — the
    SQLite engine and the in-memory columnar engine serve identical answers
    (asserted by the cross-backend differential harness); the server only
    consumes the protocol surface.
    """

    def __init__(self, db: StorageBackend,
                 capacity: int = 64,
                 subscribe: bool = True,
                 repair_delta: Optional[int] = None) -> None:
        # The one server lock (see the module docstring).
        self._lock = threading.RLock()
        #: Over-fetch depth of the maintainable result buffers: a cold
        #: ``top_k(uid, k)`` scores ``k + repair_delta`` tuples so data
        #: mutations can be folded into the cached answer in place instead
        #: of dropping it.  ``None`` means the default ``2 * k`` per
        #: request; a negative value disables the repair path entirely
        #: (the invalidate-and-recompute baseline).
        self.repair_delta = repair_delta
        self.sessions = SessionRegistry(db, capacity=capacity,
                                        profile_loader=self._load_profile)
        self.results = ResultCache(
            repair=repair_delta is None or repair_delta >= 0)
        self.reads = 0
        self.read_hits = 0
        self.updates = 0
        #: Requests that took the server lock (cold reads + profile
        #: updates).  The name predates the one lock: the e2e benchmark
        #: indexes ``serving.server.stripe_acquisitions``.
        self.stripe_acquisitions = 0
        super().__init__(db, subscribe=subscribe)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Unsubscribe, refuse from now on and drop every cached answer."""
        with self._exclusive():
            super().close()
            self.results.clear()

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """``with self._locked():`` — the server lock, the time spent
        queueing for it recorded as a ``server.lock_wait`` child span."""
        with span("server.lock_wait"):
            self._lock.acquire()
        try:
            yield
        finally:
            self._lock.release()

    def _bump(self, reads: int = 0, read_hits: int = 0, updates: int = 0,
              stripe_acquisitions: int = 0) -> None:
        """Fold one request's counter deltas in under a single acquisition."""
        with self._stats_lock:
            self.reads += reads
            self.read_hits += read_hits
            self.updates += updates
            self.stripe_acquisitions += stripe_acquisitions

    # -- profile storage ----------------------------------------------------------

    def _load_profile(self, uid: int) -> Optional[UserProfile]:
        registry = read_profiles(self.db, [uid])
        return registry.get(uid) if uid in registry else None

    def update_profile(self, uid: int, profile: UserProfile) -> UpdateReport:
        """Persist ``profile``'s preferences and drop what they outdate.

        The preferences are appended to the relational staging tables; the
        user's resident session (a snapshot of the profile as it was) and
        cached answers are dropped.  The next read rebuilds the session from
        the staging tables through the same
        :meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_profile`
        every other build uses, re-counting only the pairs the shared count
        cache has not seen.
        """
        if profile.uid != uid:
            raise ServingError(
                f"profile for uid={profile.uid} passed to update_profile(uid={uid})")
        with self._trace("server.update_profile") as trace:
            trace.annotate("uid", uid)
            with self._locked():
                self._check_open()
                start = time.perf_counter()
                statements_before = self.db.statements_executed
                registry = ProfileRegistry()
                registry.add(profile)
                load_profiles(self.db, registry)
                resident = self.sessions.drop_for_profile_update(uid)
                trace.annotate("resident", resident)
                invalidated = self.results.invalidate_user(uid)
                self._bump(updates=1, stripe_acquisitions=1)
                report = UpdateReport(
                    uid=uid,
                    resident=resident,
                    quantitative=len(profile.quantitative),
                    qualitative=len(profile.qualitative),
                    results_invalidated=invalidated,
                    sql_statements=self.db.statements_executed - statements_before,
                    seconds=time.perf_counter() - start)
            if self._mutation_latency is not None:
                self._mutation_latency.record(report.seconds)
            return report

    # -- reads --------------------------------------------------------------------

    def top_k(self, uid: int, k: int) -> ServeResult:
        """Answer one personalised Top-K request.

        Warm requests are served straight from the result cache — zero SQL
        statements and **no server-level lock** (see the module docstring),
        the acceptance criterion of the serving benchmark and the load
        harness' hot path.  Cold requests take the server lock,
        build/refresh the user's session, run PEPS and materialise the
        answer for the next caller while still holding it.
        """
        with self._trace("server.top_k") as trace:
            trace.annotate("uid", uid)
            result = self._serve_top_k(uid, k)
            trace.annotate("cache_hit", result.cache_hit)
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
            try:
                with span("sessions.get_or_create", self.db):
                    session = self.sessions.get_or_create(uid)
            except ServingError:
                raise UnknownUserError(uid) from None
            # Snapshot *before* the data-reading computation the snapshot
            # guards.  No sweep can run before the put below — both happen
            # under the server lock — so the guard only protects a cache
            # driven without a server.
            epoch = self.results.epoch
            repair = self.results.repair_enabled
            with span("peps.top_k", self.db):
                if repair:
                    delta = (self.repair_delta
                             if self.repair_delta is not None else 2 * k)
                    buffer, complete = session.top_k_buffer(k, delta)
                    ranking = tuple(buffer[:k])
                else:
                    buffer, complete = None, False
                    ranking = tuple(session.top_k(k))
            peps = session.algorithm()
            predicates = [pref.predicate for pref in peps.preferences]
            intensities = ([pref.intensity for pref in peps.preferences]
                           if repair else None)
            self.results.put(
                uid, k, ranking, predicates, epoch=epoch,
                intensities=intensities, buffer=buffer, complete=complete)
            self._bump(reads=1, stripe_acquisitions=1)
            return ServeResult(
                uid=uid, k=k, ranking=ranking, cache_hit=False,
                sql_statements=self.db.statements_executed - statements_before,
                seconds=time.perf_counter() - start)

    # -- data-side updates --------------------------------------------------------

    def _sweep(self, mutation: DataMutation
               ) -> Tuple[ShardMutationReport, ...]:
        """Fan one data mutation out to every cache layer of this server.

        ``invalidation_rows`` covers the full update spectrum — inserted
        post-image, deleted pre-image, both images of an in-place update —
        so one sound relevance test serves all three kinds: one
        :class:`~repro.index.selectivity.RowMatch` per sweep, shared by
        every layer (a cluster builds one per shard — each owns its caches).
        """
        with span("server.on_data_mutation") as trace:
            match = RowMatch(mutation.invalidation_rows())
            repairs_before = self.results.repairs
            fallbacks_before = self.results.repair_fallbacks
            sweep_statements_before = self.db.statements_executed
            results_invalidated = self.results.on_data_mutation(mutation, match)
            results_repaired = self.results.repairs - repairs_before
            repair_fallbacks = self.results.repair_fallbacks - fallbacks_before
            repair_sql = self.db.statements_executed - sweep_statements_before
            dropped = self.sessions.invalidate_matching(match)
            trace.annotate("kind", mutation.kind)
            trace.annotate("results_invalidated", results_invalidated)
            trace.annotate("results_repaired", results_repaired)
            trace.annotate("rows", len(match.rows))
            trace.annotate("distinct_predicates", match.distinct_predicates)
            trace.annotate("predicate_row_tests", match.predicate_row_tests)
            return (ShardMutationReport(
                shard=0,
                results_invalidated=results_invalidated,
                results_spared=len(self.results) - results_repaired,
                index_entries_dropped=dropped,
                results_repaired=results_repaired,
                repair_fallbacks=repair_fallbacks,
                repair_sql_statements=repair_sql),)

    # -- introspection ------------------------------------------------------------

    def metrics(self) -> Dict[str, Union[int, float]]:
        """Every layer's counters as one flat unified-name mapping.

        The one introspection surface: names follow the telemetry naming
        scheme (``serving.server.reads``, ``serving.results.hits``,
        ``index.count_cache.misses``,
        ``backend.<name>.statements_executed``), so the mapping plugs
        straight into a :class:`~repro.telemetry.MetricsRegistry` as a
        snapshot adapter.
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
        for key, value in self.sessions.stats().items():
            flat[f"serving.sessions.{key}"] = value
        for key, value in self.results.stats().items():
            component = ("result_cache" if key in _REPAIR_METRIC_KEYS
                         else "results")
            flat[f"serving.{component}.{key}"] = value
        count_cache = self.sessions.count_cache
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
    a fresh (unshared) runner, and runs PEPS with a from-scratch pair index.
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
    runner = PreferenceQueryRunner(db)
    peps = PEPSAlgorithm(runner, preferences_from_graph(builder.hypre, uid))
    return peps.top_k(k)
