"""Invalidation-aware predicate-count memo.

Every combination algorithm (PEPS, Combine-Two, Partially-Combine-All, the TA
baseline) keeps asking the same question — *how many distinct papers match
this predicate?* — and the pairwise combination index asks it O(n²) times per
build.  :class:`CountCache` centralises the answers:

* counts are memoised by the predicate's *conjuncts* (:meth:`CountCache.key`),
  so any number of algorithm instances sharing one runner never repeat a count
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

The cache is single-threaded: each
:class:`~repro.algorithms.base.PreferenceQueryRunner` owns one, and only the
paper's pairwise-combination index and the figures built on it count
(serving counts nothing).  A backend call that raises memoises nothing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Union

from ..backend.protocol import StorageBackend
from ..core.predicate import PredicateExpr, ensure_predicate
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
        conjunct.  Built once per predicate tree
        (:attr:`~repro.core.predicate.PredicateExpr.conjunct_texts`)."""
        return ensure_predicate(predicate).conjunct_texts

    def peek(self, predicate: PredicateLike) -> Optional[int]:
        """The cached count, or ``None`` — never executes a query."""
        return self._counts.get(self.key(predicate))

    def count(self, predicate: PredicateLike) -> int:
        """The number of distinct papers matching ``predicate`` (cached)."""
        key = self.key(predicate)
        if key in self._counts:
            self.hits += 1
            return self._counts[key]
        self.misses += 1
        self.statements += 1
        with span("count_cache.backend_query", self.db):
            value = self.db.count_matching(ensure_predicate(predicate))
        self._counts[key] = value
        return value

    def count_many(self, predicates: Sequence[PredicateLike]) -> List[int]:
        """Counts for ``predicates`` in order, batching every miss.

        Cached entries are served from memory; the remaining predicates are
        resolved with one compound statement per ``BATCH_COUNT_CHUNK`` misses.
        A predicate repeated within the batch is counted once and its later
        occurrences are hits, so ``hits + misses`` equals the lookups.
        """
        keys = [self.key(predicate) for predicate in predicates]
        missing: Dict[FrozenSet[str], int] = {}
        for position, key in enumerate(keys):
            if key in self._counts or key in missing:
                self.hits += 1
            else:
                missing[key] = position
        if missing:
            self.misses += len(missing)
            self.statements += (len(missing) + BATCH_COUNT_CHUNK - 1) // BATCH_COUNT_CHUNK
            to_count = [ensure_predicate(predicates[position])
                        for position in missing.values()]
            with span("count_cache.backend_query", self.db) as trace:
                trace.annotate("predicates", len(to_count))
                values = self.db.count_many(to_count)
            self._counts.update(zip(missing, values))
        return [self._counts[key] for key in keys]

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
        if not match.rows:
            return 0
        stale = [key for key in self._counts if match.shared(key)]
        for key in stale:
            del self._counts[key]
        return len(stale)

    def clear(self) -> None:
        """Drop every cached count and reset the statistics."""
        self._counts.clear()
        self.hits = 0
        self.misses = 0
        self.statements = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CountCache(entries={len(self._counts)}, hits={self.hits}, "
                f"misses={self.misses}, statements={self.statements})")
