"""Materialised Top-K answers, invalidated selectively under updates.

:class:`ResultCache` keeps finished ``(uid, k) -> ranking`` answers so a
repeated request costs zero SQL statements.  Its correctness rests on two
invalidation paths, in the spirit of incremental query answering under
updates (Berkholz, Keppeler & Schweikardt — the materialised answer is the
view, the events are the deltas):

* **profile updates** — the server calls :meth:`ResultCache.invalidate_user`
  after persisting one, which drops every cached answer *of that user only*
  (persist, invalidate: the next read builds from the persisted profile).
* **data events** — :class:`~repro.sqldb.events.DataMutation` notifications
  from the workload database, covering the full update spectrum.  A
  mutation touches a cached answer **iff** one of the predicates it was
  computed from may match one of the event's invalidation rows
  (:func:`~repro.index.selectivity.may_match_row`, asked through the
  sweep's shared :class:`~repro.index.selectivity.RowMatch`) — the new
  joined-view rows for an insert, the removed pre-image rows for a delete,
  either image for an in-place update — and repairs it, or drops it when it
  cannot; every other user's answer provably cannot change and survives
  unvisited: the cache's :class:`~repro.index.selectivity.ConjunctIndex`
  leads the sweep from the rows' values to the answers that hold a
  conjunct they may match.

Every entry therefore remembers the predicates it was computed from — the
same positive-intensity predicates PEPS scored with — as each one's conjunct
keys (:meth:`~repro.index.CountCache.key`), rendered once when the cold
read built the user's PEPS: the sweep judges an answer by the same rule,
:meth:`~repro.index.selectivity.RowMatch.shared`, as every count, id list and
pair, and renders no predicate.

**Repair, don't recompute.**  Dropping an answer makes the *next* read pay a
full PEPS recomputation, so a data mutation that merely moves one tuple in
or out of a ranking is far more expensive than it needs to be.  Every entry
is therefore a *maintainable view* — there is no other kind: the exact
``k + delta`` over-fetched prefix of the user's total order (``buffer``),
each predicate's intensity and conjunct keys, and a ``complete`` flag set
when the buffer holds the entire covered universe.
:meth:`CachedResult.apply_delta` then folds a
:class:`~repro.sqldb.events.DataMutation` into the view in memory — insert
post-image tuples that score above the buffer floor, remove deleted
pre-image pids, re-score in-place updates — with **zero SQL**, scoring each
tuple by bit tests against the verdicts the sweep's
:class:`~repro.index.selectivity.RowMatch` already holds: one
:func:`~repro.index.selectivity.exact_match_row` per (distinct predicate,
row), however many entries ask.  The exactness argument rests on two
invariants: per-tuple scores are independent (a tuple's score depends only
on which predicates *its own* joined rows match), and the buffer is an exact
prefix of the total order under the sort key ``(-score, pid)``, so a tuple
absent from a truncated buffer provably ranks below its floor.  Repair
**must** fall back to invalidation when a predicate cannot be evaluated
exactly against an event row (``exact_match_row`` returns ``None``) or when
removals underflow a truncated buffer below ``k`` — the conditions
``docs/INVALIDATION.md`` spells out.  A repair is itself an epoch-bumping
sweep step, so a stale put racing the sweep still loses.

**Thread safety and the re-cache race.**  The cache carries its own
re-entrant lock, so warm lookups no longer need the server's big lock (the
multi-threaded load harness showed every warm read serialising on it).
That exposes a classic check-then-act window: a Top-K computed from
pre-mutation data could be :meth:`~ResultCache.put` back *after* the
mutation's invalidation sweep already ran — a stale answer re-cached where
the sweep can never find it again.  The cache therefore keeps a monotonically
increasing **invalidation epoch**: every sweep (data mutation, profile
invalidation, clear) bumps it, and a caller that snapshots
:attr:`~ResultCache.epoch` *before* computing can pass it to
:meth:`~ResultCache.put`, which refuses the insert — counting it in
``stale_puts_rejected`` — when any invalidation ran in between.  Serving
paths lose nothing (the freshly computed answer is still returned to the
requester); they only skip materialising an answer that can no longer be
proven fresh.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.intensity import combine_and
from ..index.selectivity import ConjunctIndex, RowMatch
from ..sqldb.events import DataMutation
from ..telemetry import annotate

ResultKey = Tuple[int, int]
Ranking = Tuple[Tuple[int, float], ...]

#: ``apply_delta`` outcome labels (the second element of its return pair).
REPAIRED = "repaired"
#: A predicate could not be evaluated exactly against an event row.
FALLBACK_UNSCORABLE = "unscorable"
#: Removals sank a truncated buffer below ``k`` ranked tuples.
FALLBACK_UNDERFLOW = "underflow"


@dataclass(frozen=True)
class CachedResult:
    """One materialised Top-K answer plus the state needed to maintain it.

    ``ranking`` is what gets served, ``buffer[:k]``.  ``buffer`` is the exact
    over-fetched prefix of the user's total order under ``(-score, pid)``;
    ``complete`` marks a buffer that holds the *whole* covered universe;
    ``depth`` is the capacity the buffer was fetched with (repairs trim
    truncated buffers back to it).  ``conjuncts`` (each scored predicate's
    conjunct keys) and ``intensities`` run in parallel, in PEPS preference
    order, so repair scoring folds intensities exactly as
    :meth:`~repro.algorithms.peps.PEPSAlgorithm.top_k` does.
    """

    uid: int
    k: int
    ranking: Ranking
    conjuncts: Tuple[FrozenSet[str], ...]
    intensities: Tuple[float, ...]
    buffer: Ranking
    complete: bool
    depth: int

    # -- repair ------------------------------------------------------------------

    def apply_delta(self, mutation: DataMutation,
                    match: Optional[RowMatch] = None,
                    positions: Optional[Sequence[int]] = None,
                    ) -> Tuple[Optional["CachedResult"], str]:
        """Fold one data mutation into the maintained view, in memory.

        ``match`` is the sweep's :class:`~repro.index.selectivity.RowMatch`
        over ``mutation.invalidation_rows()`` (built here when omitted);
        post-image rows lead it, so a tuple is scored by bit tests against
        the verdicts the sweep already holds — a predicate counts when one
        of the tuple's post-image rows surely matches it, and a row that
        may match it but cannot be decided makes the tuple unscorable.
        ``positions`` are the ascending preference positions some row may
        match (the sweep found them through its
        :class:`~repro.index.selectivity.ConjunctIndex`; every position when
        omitted): no other position can score a tuple, so none other is
        asked.  Intensities fold in
        preference order, mirroring PEPS's scoring pass bit for bit.

        Returns ``(repaired entry, REPAIRED)`` on success — possibly
        ``self`` when the delta provably leaves the buffer untouched — or
        ``(None, reason)`` when invalidation is mandatory:
        ``FALLBACK_UNSCORABLE`` (a predicate cannot be evaluated exactly
        against an event row) or ``FALLBACK_UNDERFLOW`` (removals sank a
        truncated buffer below ``k``).  **Producer obligation**: the
        mutation's post-image rows for each pid must be that pid's
        *complete* joined-row image (the loader guarantees this for every
        mutation kind) — scoring a partial image would silently under-score.
        """
        if match is None:
            match = RowMatch(mutation.invalidation_rows())
        post: Dict[int, int] = {}
        for index, row in enumerate(mutation.rows):
            pid = int(row["pid"])
            post[pid] = post.get(pid, 0) | 1 << index
        affected = set(post)
        affected.update(int(row["pid"]) for row in mutation.old_rows)
        # (surely, maybe, intensity) of each scored predicate some post-image
        # row may match — no other can score a tuple; a delete asks nothing.
        verdicts = []
        if post:
            post_rows = (1 << len(mutation.rows)) - 1
            if positions is None:
                positions = range(len(self.conjuncts))
            for position in positions:
                conjuncts = self.conjuncts[position]
                intensity = self.intensities[position]
                maybe = match.shared(conjuncts) & post_rows
                if maybe and intensity > 0.0:
                    verdicts.append((match.exact(conjuncts), maybe, intensity))
        buffer = list(self.buffer)
        changed = False
        for pid in sorted(affected):
            rows = post.get(pid, 0)
            values = []
            for surely, maybe, intensity in verdicts:
                if surely & rows:
                    values.append(intensity)
                elif maybe & rows:
                    return None, FALLBACK_UNSCORABLE
            score = combine_and(values) if values else 0.0
            index = next((position for position, (member, _) in enumerate(buffer)
                          if member == pid), None)
            if index is not None:
                del buffer[index]
                changed = True
            if score <= 0.0:
                continue
            key = (-score, pid)
            if not self.complete:
                # A truncated buffer is an exact prefix: a tuple ranking at
                # or below the current floor lives among the unseen tail, so
                # leaving it out keeps the prefix exact.  An empty truncated
                # buffer has no floor to compare against — skip; the
                # underflow check below forces the fallback.
                if not buffer or key >= (-buffer[-1][1], buffer[-1][0]):
                    continue
            position = 0
            while position < len(buffer) and \
                    (-buffer[position][1], buffer[position][0]) < key:
                position += 1
            buffer.insert(position, (pid, score))
            changed = True
        if not self.complete:
            if len(buffer) < self.k:
                return None, FALLBACK_UNDERFLOW
            cap = max(self.depth, self.k)
            if len(buffer) > cap:
                del buffer[cap:]
        if not changed:
            return self, REPAIRED
        return CachedResult(
            uid=self.uid, k=self.k, ranking=tuple(buffer[:self.k]),
            conjuncts=self.conjuncts, intensities=self.intensities,
            buffer=tuple(buffer), complete=self.complete,
            depth=self.depth), REPAIRED


class ResultCache:
    """Update-aware cache of materialised Top-K answers keyed by (uid, k)."""

    def __init__(self) -> None:
        # The cache is a shared leaf structure: warm lookups, puts and
        # invalidation sweeps may arrive from different threads without the
        # server lock, so every access holds this lock.
        self._lock = threading.RLock()
        self._entries: Dict[ResultKey, CachedResult] = {}
        #: Every conjunct an entry holds -> the ``(uid, k)`` keys holding it:
        #: a sweep visits the holders of the conjuncts a row may match.
        self._held = ConjunctIndex()
        #: Monotonic invalidation epoch (see module docs).
        self._epoch = 0
        #: Warm requests answered from memory / requests that had to compute.
        self.hits = 0
        self.misses = 0
        #: Entries dropped by profile mutations / by data inserts.
        self.profile_invalidations = 0
        self.data_invalidations = 0
        #: Entries a data insert did not affect (kept) / entries a sweep
        #: visited: one of their preferences has every conjunct live.
        self.data_spared = 0
        self.entries_visited = 0
        #: Affected entries maintained in place by a zero-SQL delta repair /
        #: affected entries that had to be dropped after a repair attempt
        #: (every fallback is also counted in ``data_invalidations``) /
        #: the fallbacks caused specifically by buffer underflow.
        self.repairs = 0
        self.repair_fallbacks = 0
        self.repair_underflows = 0
        #: Materialisations refused because an invalidation ran since the
        #: caller snapshotted the epoch (the check-then-act guard firing).
        self.stale_puts_rejected = 0

    # -- lookups ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current invalidation epoch.

        Snapshot it *before* computing an answer and hand the snapshot to
        :meth:`put`: the put then only materialises when no invalidation
        sweep ran in between, which is what makes caching safe for callers
        that compute outside the invalidation lock.
        """
        with self._lock:
            return self._epoch

    def get(self, uid: int, k: int) -> Optional[CachedResult]:
        """The cached answer for ``(uid, k)``, counting hit/miss."""
        with self._lock:
            entry = self._entries.get((uid, k))
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        annotate("result_cache", "miss" if entry is None else "hit")
        return entry

    def peek(self, uid: int, k: int) -> Optional[CachedResult]:
        """The cached answer without touching the statistics."""
        with self._lock:
            return self._entries.get((uid, k))

    def put(self, uid: int, k: int, buffer: Sequence[Tuple[int, float]],
            complete: bool, conjuncts: Sequence[FrozenSet[str]],
            intensities: Sequence[float],
            epoch: Optional[int] = None) -> Optional[CachedResult]:
        """Materialise a freshly computed answer as a maintainable view.

        ``buffer`` is the exact over-fetched prefix PEPS returned (the answer
        served is its first ``k`` entries), ``complete`` whether it holds the
        whole covered universe, and ``conjuncts`` / ``intensities`` the
        scored predicates' conjunct keys and intensities in PEPS preference
        order.

        ``epoch`` is the :attr:`epoch` snapshot taken before the answer was
        computed; when given and an invalidation sweep has run since, the
        answer may be stale (computed from pre-sweep data after the sweep
        already passed) and the put is **refused** — ``None`` is returned
        and ``stale_puts_rejected`` incremented.  ``epoch=None`` preserves
        the unguarded behaviour for callers that serialise puts and sweeps
        externally.
        """
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                self.stale_puts_rejected += 1
                annotate("result_cache_put", "stale_rejected")
                return None
            buffer = tuple(buffer)
            entry = CachedResult(
                uid=uid, k=k, ranking=buffer[:k], conjuncts=tuple(conjuncts),
                intensities=tuple(intensities), buffer=buffer,
                complete=complete, depth=len(buffer))
            replaced = self._entries.get((uid, k))
            if replaced is not None:
                self._release((uid, k), replaced)
            self._entries[(uid, k)] = entry
            self._hold((uid, k), entry)
        annotate("result_cache_put", "materialised")
        return entry

    # -- invalidation -------------------------------------------------------------

    def _hold(self, key: ResultKey, entry: CachedResult) -> None:
        for conjuncts in entry.conjuncts:
            for conjunct in conjuncts:
                self._held.add(conjunct, key)

    def _release(self, key: ResultKey, entry: CachedResult) -> None:
        for conjunct in frozenset().union(*entry.conjuncts):
            self._held.remove(conjunct, key)

    def _drop(self, key: ResultKey) -> None:
        self._release(key, self._entries.pop(key))

    def invalidate_user(self, uid: int) -> int:
        """Drop every cached answer of one user (profile changed)."""
        with self._lock:
            self._epoch += 1
            stale = [key for key in self._entries if key[0] == uid]
            for key in stale:
                self._drop(key)
            self.profile_invalidations += len(stale)
            return len(stale)

    def on_data_mutation(self, mutation: DataMutation,
                         match: Optional[RowMatch] = None) -> int:
        """Data-event handler: repair the affected answers, drop the rest.

        Handles every :data:`~repro.sqldb.events.DATA_MUTATION_KINDS` kind by
        checking predicates against the event's pre- *and* post-image rows —
        ``match``, the :class:`~repro.index.selectivity.RowMatch` over
        ``mutation.invalidation_rows()`` that a server sweep shares with its
        other caches (a cache listening on its own builds one).  The sweep
        costs what the mutation touches: the cache's
        :class:`~repro.index.selectivity.ConjunctIndex` names the *live*
        conjuncts — held ones some row may match — and only their holders
        are looked at.  An answer is *visited* (counted in
        :attr:`entries_visited`) when one of its preferences has every
        conjunct live, and affected iff some one row may match all of them
        (:meth:`~repro.index.selectivity.RowMatch.shared`) — so with
        single-conjunct preferences visited and affected are the same; a
        mutation that carries no rows visits none.  An affected answer is
        folded forward by :meth:`CachedResult.apply_delta` at exactly its
        affected positions, scored from ``match``'s verdicts (zero SQL,
        counted in :attr:`repairs`), and only an entry whose repair is
        impossible is dropped (counted in :attr:`repair_fallbacks` *and*
        :attr:`data_invalidations`, which are therefore equal; underflow
        fallbacks additionally in :attr:`repair_underflows`).  The sweep
        bumps the epoch exactly like a pure invalidation sweep — a repaired
        entry reflects post-mutation data, so an answer computed from
        pre-mutation data must still lose the put race.  Returns the number
        of entries dropped; unaffected entries are counted in
        :attr:`data_spared` — the benchmark asserts this stays positive,
        i.e. no mutation kind ever blindly flushes the cache.
        """
        if match is None:
            match = RowMatch(mutation.invalidation_rows())
        with self._lock:
            self._epoch += 1
            live = self._held.live(match)
            held: Set[ResultKey] = set()
            for conjunct in live:
                held |= self._held.holders(conjunct)
            stale: List[ResultKey] = []
            visited = repaired = underflows = 0
            for key in held:
                entry = self._entries[key]
                # A preference with a conjunct no row may match is provably
                # unaffected; the entry is visited when one has none.
                positions = [position for position, conjuncts
                             in enumerate(entry.conjuncts)
                             if conjuncts <= live]
                if not positions:
                    continue
                visited += 1
                positions = [position for position in positions
                             if match.shared(entry.conjuncts[position])]
                if not positions:
                    continue
                replacement, reason = entry.apply_delta(
                    mutation, match, positions)
                if replacement is not None:
                    if replacement is not entry:
                        self._entries[key] = replacement
                    repaired += 1
                else:
                    stale.append(key)
                    if reason == FALLBACK_UNDERFLOW:
                        underflows += 1
            for key in stale:
                self._drop(key)
            self.entries_visited += visited
            self.repairs += repaired
            self.repair_fallbacks += len(stale)
            self.repair_underflows += underflows
            self.data_invalidations += len(stale)
            self.data_spared += len(self._entries) - repaired
        annotate("result_cache_sweep",
                 f"repaired={repaired} invalidated={len(stale)}")
        return len(stale)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._epoch += 1
            self._entries.clear()
            self._held.clear()
            self.hits = 0
            self.misses = 0
            self.profile_invalidations = 0
            self.data_invalidations = 0
            self.data_spared = 0
            self.entries_visited = 0
            self.repairs = 0
            self.repair_fallbacks = 0
            self.repair_underflows = 0
            self.stale_puts_rejected = 0

    # -- introspection ------------------------------------------------------------

    def cached_users(self) -> List[int]:
        """Distinct user ids with at least one cached answer."""
        with self._lock:
            return sorted({uid for uid, _ in self._entries})

    def stats(self) -> Dict[str, int]:
        """Cache counters for reports and benchmarks."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "profile_invalidations": self.profile_invalidations,
                "data_invalidations": self.data_invalidations,
                "data_spared": self.data_spared,
                "entries_visited": self.entries_visited,
                "repairs": self.repairs,
                "repair_fallbacks": self.repair_fallbacks,
                "repair_underflows": self.repair_underflows,
                "stale_puts_rejected": self.stale_puts_rejected,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ResultKey) -> bool:
        with self._lock:
            return key in self._entries
