"""Shared, invalidation-aware predicate-count store.

Every combination algorithm (PEPS, Combine-Two, Partially-Combine-All, the TA
baseline) keeps asking the same question — *how many distinct papers match
this predicate?* — and the pairwise combination index asks it O(n²) times per
build.  :class:`CountCache` centralises the answers:

* counts are memoised by the predicate's *conjuncts* (:meth:`CountCache.key`),
  so any number of algorithm instances sharing one cache never repeat a count
  query, whatever order each lists a conjunction's members in — this is the
  one place a pair count lives;
* :meth:`CountCache.count_many` resolves a whole batch of predicates with one
  backend round-trip per ~200 misses (a compound ``UNION ALL`` statement on
  the SQLite backend, one logical batch op on the memory backend) instead of
  one operation per predicate;
* the cache is invalidation-aware: :meth:`invalidate_matching` /
  :meth:`clear` drop entries when the underlying relation changes (the
  preference *graph* changing never invalidates counts — counts depend only
  on predicates and data, which is what lets a rebuilt pair index reuse
  them).

Statistics (``hits``, ``misses``, ``statements``) are tracked so tests and
benchmarks can assert the batching and reuse actually happen.

The cache is **thread-safe**: the serving layer shares one instance across
every resident user session and serves requests from worker threads, so all
lookups and mutations hold an internal re-entrant lock.  The backend
round-trip itself, however, runs **outside** that lock — holding it across
the query would serialise every other session's lookups on the slowest
count (the dominant contention the multi-threaded load harness measured).
Two mechanisms keep the released-lock window sound:

* **in-flight coalescing** — a predicate being counted by one thread is
  marked in flight; concurrent lookups of the same predicate wait on the
  cache's condition variable instead of issuing a duplicate query, so each
  unique predicate is still a miss (and a statement) exactly once however
  many threads race on it;
* an **invalidation epoch** — every ``invalidate_matching``/``clear`` bumps
  it, and a count resolved under an older epoch is returned to its caller but
  never memoised, closing the check-then-act window where a pre-mutation
  count could be stored *after* the mutation's invalidation sweep already
  dropped everything stale.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Sequence, Union

from ..backend.protocol import StorageBackend
from ..core.predicate import And, PredicateExpr, ensure_predicate
from ..sqldb.query_builder import BATCH_COUNT_CHUNK
from ..telemetry import span
from .selectivity import RowMatch

PredicateLike = Union[str, PredicateExpr]


class CountCache:
    """Memoising predicate-count store over one storage backend.

    ``db`` is any :class:`~repro.backend.protocol.StorageBackend` — the
    cache only consumes the protocol's ``count_matching`` / ``count_many``
    surface, so SQLite and the in-memory columnar engine are
    interchangeable underneath every algorithm sharing this store.
    """

    def __init__(self, db: StorageBackend) -> None:
        self.db = db
        self._counts: Dict[FrozenSet[str], int] = {}
        # Guards the memo dict, the statistics, the epoch and the in-flight
        # set; backend round-trips run with it released (module docstring).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: Predicate keys currently being counted by some thread.
        self._inflight: set = set()
        #: Monotonic invalidation epoch — a count resolved while it was
        #: older than it is now is never memoised.
        self._epoch = 0
        #: Cache lookups answered without touching the database.
        self.hits = 0
        #: Predicates that had to be counted against the database.
        self.misses = 0
        #: SQL statements issued (``misses`` collapses into fewer of these).
        self.statements = 0

    # -- lookups ----------------------------------------------------------------

    @staticmethod
    def key(predicate: PredicateLike) -> FrozenSet[str]:
        """Canonical cache key: the SQL texts of the predicate's conjuncts —
        a conjunction's members, in no order; anything else is its own only
        conjunct."""
        predicate = ensure_predicate(predicate)
        if isinstance(predicate, And):
            return frozenset(child.to_sql() for child in predicate.children)
        return frozenset((predicate.to_sql(),))

    def peek(self, predicate: PredicateLike) -> Optional[int]:
        """The cached count, or ``None`` — never executes a query."""
        with self._lock:
            return self._counts.get(self.key(predicate))

    @property
    def epoch(self) -> int:
        """The current invalidation epoch (see module docstring)."""
        with self._lock:
            return self._epoch

    def count(self, predicate: PredicateLike) -> int:
        """The number of distinct papers matching ``predicate`` (cached)."""
        key = self.key(predicate)
        with self._cond:
            while True:
                if key in self._counts:
                    self.hits += 1
                    return self._counts[key]
                if key not in self._inflight:
                    break
                # Another thread is counting this predicate right now —
                # wait for its answer instead of issuing a duplicate query.
                self._cond.wait()
            self._inflight.add(key)
            self.misses += 1
            self.statements += 1
            epoch = self._epoch
        done = False
        try:
            # Backend round-trip with the lock released: other predicates'
            # lookups proceed while this count runs.
            with span("count_cache.backend_query", self.db):
                value = self.db.count_matching(ensure_predicate(predicate))
            done = True
        finally:
            # Store (epoch permitting) and land the flight atomically, so a
            # waiter can never wake between the two and requery.
            with self._cond:
                if done and epoch == self._epoch:
                    self._counts[key] = value
                self._inflight.discard(key)
                self._cond.notify_all()
        return value

    def count_many(self, predicates: Sequence[PredicateLike]) -> List[int]:
        """Counts for ``predicates`` in order, batching every miss.

        Cached entries are served from memory; the remaining predicates are
        resolved with one compound statement per ``BATCH_COUNT_CHUNK`` misses.
        """
        keys = [self.key(predicate) for predicate in predicates]
        resolved: Dict[FrozenSet[str], int] = {}
        with self._cond:
            missing: List[int] = []
            pending = set()
            for position, key in enumerate(keys):
                if key in self._counts:
                    self.hits += 1
                    resolved[key] = self._counts[key]
                elif key in pending:
                    # Resolved by an earlier occurrence in this same batch —
                    # served without a query, and hits + misses stays equal
                    # to the number of lookups.
                    self.hits += 1
                else:
                    pending.add(key)
                    missing.append(position)
            # Wait out predicates another thread is already counting; their
            # answers arrive as hits, leaving only truly unclaimed misses.
            # Waiting happens *before* claiming anything, so no thread ever
            # sleeps while holding a flight (no deadlock between batches).
            while any(keys[position] in self._inflight for position in missing):
                self._cond.wait()
                still_missing: List[int] = []
                for position in missing:
                    key = keys[position]
                    if key in self._counts:
                        self.hits += 1
                        resolved[key] = self._counts[key]
                    else:
                        still_missing.append(position)
                missing = still_missing
            if missing:
                for position in missing:
                    self._inflight.add(keys[position])
                self.misses += len(missing)
                self.statements += (len(missing) + BATCH_COUNT_CHUNK - 1) // BATCH_COUNT_CHUNK
                epoch = self._epoch
        if missing:
            to_count = [ensure_predicate(predicates[position]) for position in missing]
            done = False
            try:
                # Backend round-trip with the lock released (module docstring).
                with span("count_cache.backend_query", self.db) as trace:
                    trace.annotate("predicates", len(to_count))
                    values = self.db.count_many(to_count)
                done = True
            finally:
                with self._cond:
                    for position in missing:
                        self._inflight.discard(keys[position])
                    if done:
                        memoise = epoch == self._epoch
                        for position, value in zip(missing, values):
                            resolved[keys[position]] = value
                            if memoise:
                                self._counts[keys[position]] = value
                    self._cond.notify_all()
        return [resolved[key] for key in keys]

    # -- invalidation ---------------------------------------------------------------

    def invalidate_matching(self, match: RowMatch) -> int:
        """Drop every cached count whose predicate may match a mutation row.

        The selective hook for data mutations (the serving layer calls it
        from the :class:`~repro.sqldb.events.DataMutation` sweep): a count
        can only have changed if one of the mutation rows (pre ∪ post image)
        may match every conjunct of its key — everything else stays cached.
        ``match`` is the sweep's shared
        :class:`~repro.index.selectivity.RowMatch`, never handed a whole
        conjunction to parse again; a mutation that carries no rows visits
        no key.  Returns the number of entries dropped.
        """
        with self._lock:
            self._epoch += 1
            if not match.rows:
                return 0
            stale = [key for key in self._counts if match.shared(key)]
            for key in stale:
                del self._counts[key]
            return len(stale)

    def clear(self) -> None:
        """Drop every cached count and reset the statistics."""
        with self._lock:
            self._epoch += 1
            self._counts.clear()
            self.hits = 0
            self.misses = 0
            self.statements = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CountCache(entries={len(self._counts)}, hits={self.hits}, "
                f"misses={self.misses}, statements={self.statements})")
