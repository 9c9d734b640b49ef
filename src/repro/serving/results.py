"""Materialised Top-K answers, invalidated selectively under updates.

:class:`ResultCache` keeps one finished answer per user: fetched at
some k, it serves that k and every smaller one at zero SQL statements.  Its
correctness rests on two invalidation paths, in the spirit of incremental
query answering under updates (Berkholz, Keppeler & Schweikardt — the
materialised answer is the view, the events are the deltas):

* **profile updates** — the server calls :meth:`ResultCache.invalidate_user`
  after persisting one, which takes the cached answer *of that user only*
  out of serving and keeps it as a *basis* (persist, outdate; the next read
  repairs) that records the rows the update staged: the next read builds
  the user's new preference list — by extending the basis's build outline
  with those rows, or from the persisted profile — and
  :meth:`CachedResult.apply_profile` rescores only the tuples of the
  preferences that changed.
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
:meth:`CachedResult.apply_delta` then folds a data mutation into the view
in memory — insert post-image tuples that score above the buffer floor,
remove deleted pre-image pids, re-score in-place updates — with **zero
SQL**, reading nothing but the sweep's
:class:`~repro.index.selectivity.RowMatch`: each touched pid's rows come
from its ``images`` and each tuple is scored by bit tests against the
verdicts it already holds — one
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
sweep step, so a stale put racing the sweep still loses.  Most affected
answers never reach ``apply_delta``: a per-answer score bound, accumulated
in the sweep's one pass over the live conjuncts' holders, proves that no
inserted or rescored tuple can reach the buffer's floor (the threshold
argument of Fagin's algorithm, applied to one cached answer).

**A profile update is maintained too.**  A PEPS score is ``f_and``'s
product of ``1 − i`` over the matched preferences, in preference order, so
a tuple outside every changed preference's id list keeps the same factors
in the same order — the same float — when the unchanged preferences keep
their relative order.  :meth:`ResultCache.invalidate_user` therefore moves
the user's answer into a separate store of *bases* instead of dropping
it.  A basis is never served (:meth:`~ResultCache.get` and
:meth:`~ResultCache.peek` read only the answers), yet every data sweep
maintains it like an answer — through the same holdings, pid index and
:meth:`CachedResult.apply_delta`, counted apart — so it stays the exact
answer to its *own* preference list.  The next cold read takes it
(:meth:`~ResultCache.take_basis`) and
:meth:`CachedResult.apply_profile` folds only the changed preferences'
tuples over the new list, merges them into the basis's buffer and cuts at
its old floor; it falls back to the full fold, counted by reason, when it
cannot prove the exact answer.

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

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from ..core.intensity import combine_and
from ..index.selectivity import ConjunctIndex, RowMatch
from ..telemetry import annotate

if TYPE_CHECKING:
    from ..algorithms.base import PreferenceQueryRunner, ScoredPreference
    from ..core.hypre.builder import BuildOutline

Ranking = Tuple[Tuple[int, float], ...]
#: Staged rows, as :func:`~repro.workload.loader.profile_rows` returns them:
#: ``((predicate, intensity), …)`` and ``((left, right, intensity), …)``.
StagedRows = Tuple[Tuple[Tuple[str, float], ...],
                   Tuple[Tuple[str, str, float], ...]]

#: ``apply_delta`` / ``apply_profile`` outcome labels (the second element
#: of their return pairs).
REPAIRED = "repaired"
#: A predicate could not be evaluated exactly against an event row.
FALLBACK_UNSCORABLE = "unscorable"
#: Removals sank a truncated buffer below ``k`` ranked tuples.
FALLBACK_UNDERFLOW = "underflow"
#: The preferences a profile update left unchanged changed relative order.
FALLBACK_REORDERED = "reordered"
#: A preference the update removed has no memoised id list to rescore from.
FALLBACK_UNMEMOISED = "unmemoised"
#: A truncated basis holds no tuple, so it has no floor to cut at.
FALLBACK_EMPTY = "empty"
#: Over-fetch margin of every cached answer, in multiples of ``k``: a cold
#: read at ``k`` keeps ``k + 2k`` tuples, so mutations repair in place.
REPAIR_MARGIN = 2
#: Every ``apply_profile`` fallback, in the order it checks them; exported
#: as ``serving.result_cache.profile_repair_fallbacks.<reason>``.
PROFILE_FALLBACKS = (FALLBACK_REORDERED, FALLBACK_EMPTY, FALLBACK_UNMEMOISED,
                     FALLBACK_UNDERFLOW)
#: Absolute slack on the sweep's score bound: the bound multiplies its
#: factors in conjunct order, a repair in preference order, so the two
#: products may differ in their last bits.
BOUND_MARGIN = 1e-9

#: What an entry carries under one conjunct it holds (see :func:`holdings`):
#: ``Π(1 − i)`` over its single-conjunct preferences on exactly that
#: conjunct (``None`` when it has none), and ``(conjuncts, Π(1 − i))`` per
#: multi-conjunct preference set whose least conjunct it is.
Holding = Tuple[Optional[float], Tuple[Tuple[FrozenSet[str], float], ...]]


class Rebased(NamedTuple):
    """A profile repair's answer (see :meth:`CachedResult.apply_profile`)."""

    #: The exact prefix of the new total order, as ``(pid, score)`` pairs.
    buffer: List[Tuple[int, float]]
    #: Whether ``buffer`` holds the whole covered universe.
    complete: bool
    #: The tuples folded over the new list: every pid in a changed
    #: preference's id list.
    tuples_rescored: int


@dataclass(frozen=True)
class CachedResult:
    """One materialised Top-K answer plus the state needed to maintain it.

    ``k`` is the largest k the answer serves: ``ranking``, ``buffer[:k]``,
    at ``k``, the prefix ``buffer[:k']`` at a smaller k'.  ``buffer`` is
    the exact over-fetched prefix of the user's total order under
    ``(-score, pid)``; ``complete`` marks a buffer that holds the *whole*
    covered universe; ``depth`` is the capacity the buffer was fetched with
    (repairs trim truncated buffers back to it).  ``conjuncts`` (each scored
    predicate's conjunct keys) and ``intensities`` run in parallel, in PEPS
    preference order, so repair scoring folds intensities exactly as
    :meth:`~repro.algorithms.peps.PEPSAlgorithm.top_k` does.  ``outline``
    is the build the answer was scored from
    (:class:`~repro.core.hypre.builder.BuildOutline`; ``None`` when the
    caller kept none), and ``staged`` the rows profile updates staged since
    — always empty on a served answer, accumulated on a basis.
    """

    uid: int
    k: int
    ranking: Ranking
    conjuncts: Tuple[FrozenSet[str], ...]
    intensities: Tuple[float, ...]
    buffer: Ranking
    complete: bool
    depth: int
    outline: Optional[BuildOutline] = None
    staged: StagedRows = ((), ())

    # -- repair ------------------------------------------------------------------

    def apply_delta(self, match: RowMatch,
                    positions: Optional[Sequence[int]] = None,
                    ) -> Tuple[Optional["CachedResult"], str]:
        """Fold one data mutation into the maintained view, in memory.

        ``match`` is the sweep's :class:`~repro.index.selectivity.RowMatch`
        (:meth:`~repro.index.selectivity.RowMatch.of` the mutation): its
        ``images`` name the touched pids and their rows, and a tuple is
        scored by bit tests against the verdicts the sweep already holds —
        a predicate counts when one of the tuple's post-image rows surely
        matches it, and a row that may match it but cannot be decided makes
        the tuple unscorable.  ``positions`` are the ascending preference
        positions some row may match (the sweep found them through its
        :class:`~repro.index.selectivity.ConjunctIndex`; every position when
        omitted): no other position can score a tuple, so none other is
        asked.  Intensities fold in preference order, mirroring PEPS's
        scoring pass bit for bit.

        Returns ``(repaired entry, REPAIRED)`` on success — possibly
        ``self`` when the delta provably leaves the buffer untouched — or
        ``(None, reason)`` when invalidation is mandatory:
        ``FALLBACK_UNSCORABLE`` (a predicate cannot be evaluated exactly
        against an event row) or ``FALLBACK_UNDERFLOW`` (removals sank a
        truncated buffer below ``k``).  The exactness rests on the producer
        obligation :attr:`~repro.index.selectivity.RowMatch.images` states:
        each pid's post-image rows are its complete joined-row image.
        """
        # (surely, maybe, intensity) of each scored predicate some post-image
        # row may match — no other can score a tuple; a delete asks nothing.
        verdicts = []
        post_rows = match.post_rows
        if post_rows:
            if positions is None:
                positions = range(len(self.conjuncts))
            for position in positions:
                conjuncts = self.conjuncts[position]
                intensity = self.intensities[position]
                maybe = match.shared(conjuncts) & post_rows
                if maybe and intensity > 0.0:
                    verdicts.append(
                        (match.exact(conjuncts) & maybe, maybe, intensity))
        buffer = list(self.buffer)
        changed = False
        for pid, rows in match.images:
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
        return replace(self, ranking=tuple(buffer[:self.k]),
                       buffer=tuple(buffer)), REPAIRED

    def apply_profile(self, runner: "PreferenceQueryRunner",
                      preferences: Sequence["ScoredPreference"],
                      conjuncts: Sequence[FrozenSet[str]], k: int,
                      ) -> Tuple[Optional[Rebased], str]:
        """Rescore this answer for the user's new preference list.

        ``self`` is a basis: the exact answer to its own ``conjuncts`` /
        ``intensities`` on the current data, which every sweep since it was
        outdated has maintained.  ``preferences`` and ``conjuncts`` are the
        new PEPS list and its conjunct keys, in preference order;
        ``runner`` is the shared id-list memo; ``k`` is the k being read,
        which may exceed the basis's own.

        A preference is *changed* when its ``(conjuncts, intensity)`` pair
        is on one list and not the other; a restated intensity changes its
        key.  When the other preferences keep their relative order, a tuple
        in none of the changed keys' id lists matches the same preferences
        with the same intensities in the same order, so its score is the
        same float.  Only the tuples in those lists are folded over the new
        list, in preference order, as
        :meth:`~repro.algorithms.peps.PEPSAlgorithm.top_k` folds them, and
        merged with the rest of the buffer on ``(m − 1.0, pid)``.  A
        truncated buffer is cut at its old floor: a tuple it never held
        and did not rescore still ranks below it.  The result is capped at
        the deeper of a full fold's ``k + REPAIR_MARGIN·k`` and
        ``self.depth``, and it is ``complete`` only when the basis was and
        the cap cut nothing.  The new list's id lists are read through
        ``runner.ids`` — the statements a full fold would run — and a
        removed key's from the memo alone.

        Returns ``(Rebased, REPAIRED)``, or ``(None, reason)`` when only a
        full fold gives the exact answer: ``FALLBACK_REORDERED``,
        ``FALLBACK_EMPTY`` (a truncated basis with no floor),
        ``FALLBACK_UNMEMOISED`` (a removed key's list is not memoised) or
        ``FALLBACK_UNDERFLOW`` (fewer than ``k`` tuples above the floor).
        """
        old = list(zip(self.conjuncts, self.intensities))
        new = list(zip(conjuncts, (pref.intensity for pref in preferences)))
        changed = {key for key, _ in set(old).symmetric_difference(new)}
        annotate("preferences_changed", len(changed))
        # The other pairs must be the same sequence: in the same order, and
        # a pair stated twice (two texts of one key) as often.
        if [pair for pair in old if pair[0] not in changed] != \
                [pair for pair in new if pair[0] not in changed]:
            return None, FALLBACK_REORDERED
        if not self.complete and not self.buffer:
            return None, FALLBACK_EMPTY
        rescored: Set[int] = set()
        for key in changed.difference(conjuncts):
            ids = runner.memoised(key)
            if ids is None:
                return None, FALLBACK_UNMEMOISED
            rescored.update(ids)
        # The memo by key first: ``ids`` would render the key again.
        lists = [runner.memoised(key) or runner.ids(pref.predicate)
                 for pref, key in zip(preferences, conjuncts)]
        for key, ids in zip(conjuncts, lists):
            if key in changed:
                rescored.update(ids)
        annotate("tuples_rescored", len(rescored))
        remainder: Dict[int, float] = {}
        if rescored:
            # Lists are pid-ordered: only the slice between the least and
            # the greatest rescored pid can hold one.
            low, high = min(rescored), max(rescored)
            for pref, ids in zip(preferences, lists):
                miss = 1.0 - pref.intensity
                for pid in rescored.intersection(
                        ids[bisect_left(ids, low):bisect_right(ids, high)]):
                    remainder[pid] = remainder.get(pid, 1.0) * miss
        # ``-score`` is exactly ``m - 1.0``: both sides use PEPS's key.
        merged = [(-score, pid) for pid, score in self.buffer
                  if pid not in rescored]
        keys = [(missed - 1.0, pid) for pid, missed in remainder.items()]
        if not self.complete:
            pid, score = self.buffer[-1]
            floor = (-score, pid)
            keys = [key for key in keys if key <= floor]
            if len(merged) + len(keys) < k:
                return None, FALLBACK_UNDERFLOW
        merged.extend(keys)
        merged.sort()
        cap = max(k + REPAIR_MARGIN * k, self.depth)
        return Rebased([(pid, -negated) for negated, pid in merged[:cap]],
                       self.complete and len(merged) < cap,
                       len(rescored)), REPAIRED


def spare_threshold(entry: CachedResult) -> float:
    """The score a sweep's bound must stay below to spare ``entry``: its
    buffer's floor less :data:`BOUND_MARGIN`, or ``-inf`` — never spared —
    for a ``complete``, empty or shorter-than-``k`` buffer, which
    :meth:`CachedResult.apply_delta` may extend or must drop."""
    buffer = entry.buffer
    if entry.complete or not buffer or len(buffer) < entry.k:
        return -math.inf
    return buffer[-1][1] - BOUND_MARGIN


def holdings(entry: CachedResult) -> Dict[str, Holding]:
    """Each conjunct ``entry`` holds -> the score-bound factors it carries.

    A tuple's repaired score is ``1 − Π(1 − i)`` over the preferences it
    matches, so multiplying ``1 − i`` over every preference a post-image row
    may match bounds every such score from above.  A single-conjunct
    preference's factor sits under its conjunct; a multi-conjunct one's
    under its least conjunct only, so a sweep counts it once.  Every
    conjunct set is non-empty (:meth:`~repro.index.CountCache.key`).
    """
    single: Dict[str, float] = {}
    groups: Dict[str, Dict[FrozenSet[str], float]] = {}
    for conjuncts, intensity in zip(entry.conjuncts, entry.intensities):
        # Intensities lie in [-1, 1]; a non-positive one scores nothing
        # (``apply_delta`` skips it).
        factor = 1.0 - intensity if intensity > 0.0 else 1.0
        if len(conjuncts) == 1:
            (conjunct,) = conjuncts
            single[conjunct] = single.get(conjunct, 1.0) * factor
        else:
            group = groups.setdefault(min(conjuncts), {})
            group[conjuncts] = group.get(conjuncts, 1.0) * factor
    held: Dict[str, Holding] = {conjunct: (factor, ())
                                for conjunct, factor in single.items()}
    for least, group in groups.items():
        for conjuncts in group:
            for conjunct in conjuncts:
                held.setdefault(conjunct, (None, ()))
        held[least] = (held[least][0], tuple(group.items()))
    return held


class ResultCache:
    """Update-aware cache of materialised Top-K answers: every store is
    keyed by ``uid``, one answer or one basis per user."""

    def __init__(self) -> None:
        # The cache is a shared leaf structure: warm lookups, puts and
        # invalidation sweeps may arrive from different threads without the
        # server lock, so every access holds this lock.
        self._lock = threading.RLock()
        self._entries: Dict[int, CachedResult] = {}
        #: The answers profile updates outdated, kept as repair bases and
        #: never served.  A uid is in ``_entries`` or here, never in both,
        #: so the indexes below hold both stores under plain uids.
        self._bases: Dict[int, CachedResult] = {}
        #: Every conjunct an entry holds -> the uids holding it, each
        #: carrying its :func:`holdings` factors under it: a sweep visits
        #: the holders of the conjuncts a row may match.
        self._held = ConjunctIndex()
        #: Every pid some entry's buffer holds -> the uids holding it: a
        #: removal or rescore changes only the buffers holding its pid.
        self._pids: Dict[int, Set[int]] = {}
        #: Every held uid -> the score its sweep bound must stay below to
        #: spare the entry (:func:`spare_threshold`).
        self._thresholds: Dict[int, float] = {}
        #: Monotonic invalidation epoch (see module docs).
        self._epoch = 0
        #: Warm requests answered from memory / requests that had to compute.
        self.hits = 0
        self.misses = 0
        #: Entries profile updates took out of serving (each kept as a
        #: basis) / entries data mutations dropped.
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
        #: :meth:`CachedResult.apply_delta` calls: the affected entries the
        #: sweep's score bound could not prove unchanged.
        self.deltas_applied = 0
        #: Affected bases a sweep maintained / dropped (their own counts:
        #: the entry counters above describe served answers only).
        self.basis_repairs = 0
        self.basis_drops = 0
        #: Reads answered by :meth:`CachedResult.apply_profile`, the tuples
        #: those repairs folded, and the repairs that fell back, by reason.
        self.profile_repairs = 0
        self.profile_tuples_rescored = 0
        self.profile_repair_fallbacks = dict.fromkeys(PROFILE_FALLBACKS, 0)
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
        """The user's cached answer when it serves ``k`` (``0 < k <=
        entry.k``), counting hit/miss.

        A server's warm read is this call and nothing else, so a hit is
        what counts it (``serving.server.reads`` / ``read_hits``); the
        server's span, not this call, says whether the read hit.
        """
        with self._lock:
            entry = self._entries.get(uid)
            if entry is not None and 0 < k <= entry.k:
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def peek(self, uid: int, k: int) -> Optional[CachedResult]:
        """:meth:`get` without touching the statistics.  Like :meth:`get`,
        it never returns a basis."""
        with self._lock:
            entry = self._entries.get(uid)
            return entry if entry is not None and 0 < k <= entry.k else None

    def take_basis(self, uid: int) -> Optional[CachedResult]:
        """Remove and return ``uid``'s basis, or ``None``; the cold read
        that takes it repairs it (:meth:`repair_profile`) or lets it go."""
        with self._lock:
            basis = self._bases.pop(uid, None)
            if basis is not None:
                self._release(uid, basis)
            return basis

    def repair_profile(self, basis: CachedResult,
                       runner: "PreferenceQueryRunner",
                       preferences: Sequence["ScoredPreference"],
                       conjuncts: Sequence[FrozenSet[str]], k: int,
                       ) -> Optional[Rebased]:
        """:meth:`CachedResult.apply_profile` on a taken ``basis``, counted:
        the repaired answer, or ``None`` — the caller folds in full — after
        counting the fallback's reason (annotated as ``fallback``)."""
        rebased, reason = basis.apply_profile(runner, preferences, conjuncts,
                                              k)
        with self._lock:
            if rebased is None:
                self.profile_repair_fallbacks[reason] += 1
            else:
                self.profile_repairs += 1
                self.profile_tuples_rescored += rebased.tuples_rescored
        if rebased is None:
            annotate("fallback", reason)
        return rebased

    def put(self, uid: int, k: int, buffer: Sequence[Tuple[int, float]],
            complete: bool, conjuncts: Sequence[FrozenSet[str]],
            intensities: Sequence[float],
            epoch: Optional[int] = None,
            outline: Optional[BuildOutline] = None) -> Optional[CachedResult]:
        """Materialise a freshly computed answer as ``uid``'s one
        maintainable view, replacing its answer or basis.

        ``buffer`` is the exact over-fetched prefix PEPS returned (the answer
        served is its first ``k`` entries), ``complete`` whether it holds the
        whole covered universe, and ``conjuncts`` / ``intensities`` the
        scored predicates' conjunct keys and intensities in PEPS preference
        order; ``outline`` is the build they came from, which the answer
        keeps for the read after a profile update.

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
                complete=complete, depth=len(buffer), outline=outline)
            replaced = self._entries.get(uid) or self._bases.pop(uid, None)
            if replaced is not None:
                self._release(uid, replaced)
            self._entries[uid] = entry
            self._hold(uid, entry)
        annotate("result_cache_put", "materialised")
        return entry

    # -- invalidation -------------------------------------------------------------

    def _hold(self, uid: int, entry: CachedResult) -> None:
        for conjunct, holding in holdings(entry).items():
            self._held.add(conjunct, uid, holding)
        self._index_pids(uid, (), entry.buffer)
        self._thresholds[uid] = spare_threshold(entry)

    def _release(self, uid: int, entry: CachedResult) -> None:
        for conjunct in frozenset().union(*entry.conjuncts):
            self._held.remove(conjunct, uid)
        self._index_pids(uid, entry.buffer, ())
        del self._thresholds[uid]

    def _index_pids(self, uid: int, old: Ranking, new: Ranking) -> None:
        """Move ``uid`` in the pid index from buffer ``old`` to ``new``:
        only the pids that left or entered."""
        left = {pid for pid, _ in old}
        entered = {pid for pid, _ in new}
        if left and entered:
            left, entered = left - entered, entered - left
        for pid in left:
            uids = self._pids[pid]
            uids.discard(uid)
            if not uids:
                del self._pids[pid]
        for pid in entered:
            uids = self._pids.get(pid)
            if uids is None:
                self._pids[pid] = {uid}
            else:
                uids.add(uid)

    def invalidate_user(self, uid: int,
                        rows: Optional[StagedRows] = None) -> int:
        """Outdate ``uid``'s cached answer (profile changed): it becomes
        the user's basis, held and swept as before (a basis an earlier
        update left stays); returns the answers that left serving, 0 or 1.
        The basis records ``rows``, the rows the update staged, after those
        it holds, so the next read can extend its outline
        (:meth:`~repro.serving.sessions.SessionRegistry.get_or_create`).
        Without ``rows`` what changed is unknown, and the basis drops its
        outline: the next read builds in full."""
        with self._lock:
            self._epoch += 1
            entry = self._entries.pop(uid, None)
            basis = entry or self._bases.get(uid)
            if basis is None:
                return 0
            if basis.outline is not None:
                if rows is None:
                    basis = replace(basis, outline=None, staged=((), ()))
                else:
                    basis = replace(basis, staged=(
                        basis.staged[0] + tuple(rows[0]),
                        basis.staged[1] + tuple(rows[1])))
            self._bases[uid] = basis
            self.profile_invalidations += entry is not None
            return int(entry is not None)

    def on_data_mutation(self, match: RowMatch) -> Dict[str, int]:
        """Data-event handler: repair the affected answers, drop the rest.

        Handles every :data:`~repro.sqldb.events.DATA_MUTATION_KINDS` kind by
        checking predicates against the event's pre- *and* post-image rows —
        ``match``, the sweep's one
        :class:`~repro.index.selectivity.RowMatch` (built by
        :meth:`~repro.index.selectivity.RowMatch.of`), which it shares with
        the id-list memo.  The sweep costs what the mutation touches: the
        cache's :class:`~repro.index.selectivity.ConjunctIndex` names the
        *live* conjuncts — held ones some row may match — and only their
        holders are looked at.  An answer is *visited* (counted in
        :attr:`entries_visited`) when one of its preferences has every
        conjunct live, and affected iff some one row may match all of them
        (:meth:`~repro.index.selectivity.RowMatch.shared`) — so with
        single-conjunct preferences visited and affected are the same; a
        mutation that carries no rows visits none.

        **The score bound.**  One pass over the live conjuncts' holders
        multiplies each affected answer's ``miss`` by the :func:`holdings`
        factor it carries under a conjunct some *post-image* row may match:
        no inserted or rescored tuple can score above ``1 − miss``.  An
        affected answer is handed to :meth:`CachedResult.apply_delta`
        (counted in :attr:`deltas_applied`) only when it holds a touched
        pid in its buffer, has a post row its preferences may but need not
        match (the unscorable fallback) — together the answers that *must*
        be handed over — or its bound reaches the :func:`spare_threshold`
        the cache keeps per user: its buffer's floor less
        :data:`BOUND_MARGIN`, or ``-inf`` for a ``complete`` buffer or a
        truncated one shorter than ``k`` (the underflow fallback).  Any
        other affected answer provably comes back from ``apply_delta`` as
        itself, so it is counted as repaired without the call: one
        comparison and one set lookup per affected answer.

        A repair scores from ``match``'s verdicts (zero SQL, counted in
        :attr:`repairs`), and only an entry whose repair is impossible is
        dropped (counted in :attr:`repair_fallbacks` *and*
        :attr:`data_invalidations`, which are therefore equal; underflow
        fallbacks additionally in :attr:`repair_underflows`).  The sweep
        bumps the epoch exactly like a pure invalidation sweep — a repaired
        entry reflects post-mutation data, so an answer computed from
        pre-mutation data must still lose the put race.  Unaffected entries
        are counted in :attr:`data_spared` — the benchmark asserts this
        stays positive, i.e. no mutation kind ever blindly flushes the cache.
        A basis is swept by the same rules and counted apart, in
        :attr:`basis_repairs` and :attr:`basis_drops`.

        Returns this store's share of the sweep's impact under the
        :class:`~repro.serving.server.DataMutationReport` names —
        ``results_invalidated`` (= ``repair_fallbacks``),
        ``results_repaired``, ``results_spared``, ``entries_visited`` — the
        amounts its counters just grew by.
        """
        post_rows = match.post_rows
        with self._lock:
            self._epoch += 1
            live = self._held.live(match)
            # Affected entry -> Π(1 − i) over the preferences a post row may
            # match; visited entries none of whose preferences is affected;
            # entries ``apply_delta`` must see whatever their bound.
            misses: Dict[int, float] = {}
            visited: Set[int] = set()
            must: Set[int] = set()
            for conjunct in live:
                hit = match.mask(conjunct) & post_rows
                holders = self._held.holders(conjunct)
                if hit & ~match.exact((conjunct,)):
                    must.update(uid for uid, (factor, _) in holders.items()
                                if factor is not None)
                for uid, (factor, groups) in holders.items():
                    if factor is not None:
                        # A conjunct only pre-image rows may match scores no
                        # tuple: the entry is affected, its bound unmoved.
                        misses[uid] = misses.get(uid, 1.0) * (
                            factor if hit else 1.0)
                    if not groups:
                        continue
                    for conjuncts, product in groups:
                        if not conjuncts <= live:
                            continue
                        visited.add(uid)
                        shared = match.shared(conjuncts)
                        if not shared:
                            continue
                        miss = misses.get(uid, 1.0)
                        if shared & post_rows:
                            miss *= product
                            if shared & post_rows & ~match.exact(conjuncts):
                                must.add(uid)
                        misses[uid] = miss
            for pid, _ in match.images:
                must.update(self._pids.get(pid, ()))
            # A held uid is an answer's or a basis's; both are maintained
            # alike, and only the answers count in the impact.
            entries, bases = self._entries, self._bases
            thresholds = self._thresholds
            stale: List[int] = []
            underflows = applied = 0
            for uid, miss in misses.items():
                if 1.0 - miss < thresholds[uid] and uid not in must:
                    continue
                served = uid in entries
                store = entries if served else bases
                entry = store[uid]
                # A delete scores no tuple: its repair asks no position.
                positions = () if not post_rows else [
                    position for position, conjuncts
                    in enumerate(entry.conjuncts)
                    if conjuncts <= live and match.shared(conjuncts)]
                applied += served
                replacement, reason = entry.apply_delta(match, positions)
                if replacement is None:
                    stale.append(uid)
                    if served and reason == FALLBACK_UNDERFLOW:
                        underflows += 1
                elif replacement is not entry:
                    store[uid] = replacement
                    self._index_pids(uid, entry.buffer, replacement.buffer)
                    thresholds[uid] = spare_threshold(replacement)
            # Every affected uid not dropped was repaired: spared or not.
            affected_bases = len(bases.keys() & misses.keys())
            visits = len(misses) - affected_bases + len(
                visited.difference(misses, bases))
            invalidated = len(entries.keys() & stale)
            repaired = len(misses) - affected_bases - invalidated
            rebased = affected_bases - (len(stale) - invalidated)
            for uid in stale:
                self._release(uid, entries.pop(uid, None) or bases.pop(uid))
            impact = {"results_invalidated": invalidated,
                      "repair_fallbacks": invalidated,
                      "results_repaired": repaired,
                      "results_spared": len(entries) - repaired,
                      "entries_visited": visits}
            self.entries_visited += visits
            self.repairs += repaired
            self.deltas_applied += applied
            self.repair_fallbacks += invalidated
            self.repair_underflows += underflows
            self.data_invalidations += invalidated
            self.data_spared += impact["results_spared"]
            self.basis_repairs += rebased
            self.basis_drops += len(stale) - invalidated
        annotate("result_cache_sweep",
                 f"repaired={repaired} invalidated={invalidated}")
        annotate("deltas_applied", applied)
        return impact

    def clear(self) -> None:
        """Drop every entry and basis and bump the epoch.  The statistics are
        cumulative and stay: a server exports them as counters, which never
        go backwards."""
        with self._lock:
            self._epoch += 1
            self._entries.clear()
            self._bases.clear()
            self._held.clear()
            self._pids.clear()
            self._thresholds.clear()

    # -- introspection ------------------------------------------------------------

    def cached_users(self) -> List[int]:
        """The user ids with a cached answer, ascending."""
        with self._lock:
            return sorted(self._entries)

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
                "deltas_applied": self.deltas_applied,
                "stale_puts_rejected": self.stale_puts_rejected,
                "bases.entries": len(self._bases),
                "basis_repairs": self.basis_repairs,
                "basis_drops": self.basis_drops,
                "profile_repairs": self.profile_repairs,
                "profile_tuples_rescored": self.profile_tuples_rescored,
                **{f"profile_repair_fallbacks.{reason}": count
                   for reason, count in self.profile_repair_fallbacks.items()},
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, uid: int) -> bool:
        with self._lock:
            return uid in self._entries
