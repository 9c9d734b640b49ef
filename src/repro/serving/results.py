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
  unvisited: the server's one :class:`~repro.index.selectivity.ConjunctIndex`,
  shared with the id-list memo, leads the sweep from the rows' values to
  the stale conjunct keys, and the cache visits only the answers scoring
  with one.

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
in the sweep's one pass over the stale keys' holders, proves that no
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
maintains it like an answer — through the same key factors, pid index and
:meth:`CachedResult.apply_delta`, counted apart — so it stays the exact
answer to its *own* preference list.  The next cold read takes it
(:meth:`~ResultCache.take_basis`) and
:meth:`CachedResult.apply_profile` folds only the changed preferences'
tuples over the new list and merges them into the basis's buffer — the
one merge :meth:`CachedResult.apply_delta` uses too; it falls back to the
full fold, counted by reason, when it cannot prove the exact answer.  The
read's :meth:`~ResultCache.put` hands the basis's holdings to the new
answer, rewriting only the conjunct keys that changed.

**Thread safety and the re-cache race.**  A warm lookup takes no lock:
:meth:`~ResultCache.get` is one dict read plus one ``itertools.count``
step, both single operations under the GIL.  Every write holds the cache's
own re-entrant lock and becomes visible to such a reader in one step — a
put stores one key, a profile invalidation pops one, and a data sweep pops
its dropped answers and then publishes every repaired one with a single
``dict.update`` (the publication argument is at
:meth:`~ResultCache.on_data_mutation`).  Puts and sweeps may also arrive
without a server's lock, which exposes a classic check-then-act window: a
Top-K computed from pre-mutation data could be :meth:`~ResultCache.put`
back *after* the mutation's invalidation sweep already ran — a stale answer
re-cached where the sweep can never find it again.  The cache therefore keeps a monotonically
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

import itertools
import math
import threading
from operator import itemgetter
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
#: factors in stale-key order, a repair in preference order, so the two
#: products may differ in their last bits.
BOUND_MARGIN = 1e-9


class Rebased(NamedTuple):
    """A profile repair's answer (see :meth:`CachedResult.apply_profile`)."""

    #: The exact prefix of the new total order, as ``(pid, score)`` pairs.
    buffer: Ranking
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
        positions some row may match (the sweep passes those whose key is
        stale; every position when omitted): no other position can score a
        tuple, so none other is asked.  Intensities fold in preference
        order, mirroring PEPS's scoring pass bit for bit, and the touched
        pids' fresh keys go through the one merge both repairs share
        (:meth:`_merge`), capped at ``max(depth, k)`` unless ``complete``.

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
        fresh = []
        for pid, rows in match.images:
            values = []
            for surely, maybe, intensity in verdicts:
                if surely & rows:
                    values.append(intensity)
                elif maybe & rows:
                    return None, FALLBACK_UNSCORABLE
            score = combine_and(values) if values else 0.0
            if score > 0.0:
                fresh.append((pid, score))
        buffer = self._merge({pid for pid, _ in match.images}, fresh, self.k,
                             None if self.complete
                             else max(self.depth, self.k))
        if buffer is None:
            return None, FALLBACK_UNDERFLOW
        if buffer == self.buffer:
            return self, REPAIRED
        # Positional: ``dataclasses.replace`` reads every field by name
        # first, a cost paid for each changed answer of a sweep.
        return CachedResult(self.uid, self.k, buffer[:self.k], self.conjuncts,
                            self.intensities, buffer, self.complete,
                            self.depth, self.outline, self.staged), REPAIRED

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
        merged with the rest of the buffer on ``(m − 1.0, pid)`` by the one
        merge :meth:`apply_delta` uses too (:meth:`_merge`: a truncated
        buffer keeps what ranks at or above its old floor).  The result is
        capped at the deeper of a full fold's ``k + REPAIR_MARGIN·k`` and
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
        # ``1.0 - m`` is PEPS's score, bit for bit.
        cap = max(k + REPAIR_MARGIN * k, self.depth)
        buffer = self._merge(rescored, [(pid, 1.0 - missed) for pid, missed
                                        in remainder.items()], k, cap)
        if buffer is None:
            return None, FALLBACK_UNDERFLOW
        return Rebased(buffer, self.complete and len(buffer) < cap,
                       len(rescored)), REPAIRED

    def _merge(self, rescored: Set[int], fresh: List[Tuple[int, float]],
               k: int, cap: Optional[int]) -> Optional[Ranking]:
        """The one merge of both repairs: the buffer without the
        ``rescored`` pids, plus the ``(pid, score)`` pairs they scored anew
        (``fresh``), sorted into ``(−score, pid)`` order and cut at ``cap``
        (``None`` cuts nothing); ``None`` when a truncated buffer keeps
        fewer than ``k`` tuples.

        A truncated buffer is an exact prefix: every tuple it does not hold
        ranks below its floor as it was *before* the change.  A fresh pair
        at or above that floor is therefore kept and one below it left out,
        so what is kept is exactly the tuples at or above the old floor — an
        exact prefix again.  An empty truncated buffer has no floor and
        keeps no fresh pair."""
        buffer = self.buffer
        if not self.complete:
            floor = (-buffer[-1][1], buffer[-1][0]) if buffer else (-math.inf,)
            fresh = [pair for pair in fresh if (-pair[1], pair[0]) <= floor]
        merged = [pair for pair in buffer if pair[0] not in rescored]
        if not self.complete and len(merged) + len(fresh) < k:
            return None
        if fresh:
            # By pid, then stably by score, highest first: ``(−score, pid)``
            # order with no key tuple built.
            merged.extend(fresh)
            merged.sort(key=itemgetter(0))
            merged.sort(key=itemgetter(1), reverse=True)
        return tuple(merged[:cap])


def _counted(counter: itertools.count) -> int:
    """The next value ``counter`` would yield — the count so far — read
    from its ``repr`` (``count(n)``) without advancing it."""
    return int(repr(counter)[6:-1])


def spare_threshold(entry: CachedResult) -> float:
    """The score a sweep's bound must stay below to spare ``entry``: its
    buffer's floor less :data:`BOUND_MARGIN`, or ``-inf`` — never spared —
    for a ``complete``, empty or shorter-than-``k`` buffer, which
    :meth:`CachedResult.apply_delta` may extend or must drop."""
    buffer = entry.buffer
    if entry.complete or not buffer or len(buffer) < entry.k:
        return -math.inf
    return buffer[-1][1] - BOUND_MARGIN


def factors(entry: CachedResult) -> Dict[FrozenSet[str], float]:
    """Each conjunct key ``entry`` scores with -> ``Π(1 − i)`` over its
    preferences on that key, in preference order.

    A tuple's repaired score is ``1 − Π(1 − i)`` over the preferences it
    matches, so multiplying the factors of every key a post-image row may
    match bounds every such score from above.  Intensities lie in
    ``[-1, 1]``; a non-positive one scores nothing (``apply_delta`` skips
    it), so its factor is 1.
    """
    held: Dict[FrozenSet[str], float] = {}
    for conjuncts, intensity in zip(entry.conjuncts, entry.intensities):
        held[conjuncts] = held.get(conjuncts, 1.0) * (
            1.0 - intensity if intensity > 0.0 else 1.0)
    return held


class ResultCache:
    """Update-aware cache of materialised Top-K answers: every store is
    keyed by ``uid``, one answer or one basis per user.  It registers its
    answers' keys in ``conjunct_index`` — a server's is its id-list memo's,
    shared — or, built alone, in its own."""

    def __init__(self, conjunct_index: Optional[ConjunctIndex] = None) -> None:
        # The cache is a shared leaf structure: puts and invalidation sweeps
        # may arrive from different threads without the server lock, so
        # every write and every read but :meth:`get` holds this lock.
        # ``get`` reads ``_entries`` with one dict lookup and no lock; each
        # write changes what it can see in one step (see
        # :meth:`on_data_mutation`).
        self._lock = threading.RLock()
        self._entries: Dict[int, CachedResult] = {}
        #: The answers profile updates outdated, kept as repair bases and
        #: never served.  A uid is in ``_entries`` or here, never in both,
        #: so the indexes below hold both stores under plain uids.
        self._bases: Dict[int, CachedResult] = {}
        #: Every conjunct key an entry scores with -> the uids holding it,
        #: each with its :func:`factors` product: a sweep visits the holders
        #: of the stale keys.
        self._factors: Dict[FrozenSet[str], Dict[int, float]] = {}
        self._index = conjunct_index or ConjunctIndex()
        #: Every pid some entry's buffer holds -> the uids holding it: a
        #: removal or rescore changes only the buffers holding its pid.
        self._pids: Dict[int, Set[int]] = {}
        #: Every held uid -> the score its sweep bound must stay below to
        #: spare the entry (:func:`spare_threshold`).
        self._thresholds: Dict[int, float] = {}
        #: Monotonic invalidation epoch (see module docs).
        self._epoch = 0
        #: Warm requests answered from memory / requests that had to
        #: compute, counted lock-free: ``next`` on a count is one step under
        #: the GIL, so no increment is lost (read by :attr:`hits` /
        #: :attr:`misses`).
        self._hits = itertools.count()
        self._misses = itertools.count()
        #: Entries profile updates took out of serving (each kept as a
        #: basis) / entries data mutations dropped: every one a repair that
        #: fell back, so it is exported as ``repair_fallbacks`` too.
        self.profile_invalidations = 0
        self.data_invalidations = 0
        #: Entries a data mutation did not affect (kept).
        self.data_spared = 0
        #: Affected entries maintained in place by a zero-SQL delta repair /
        #: the fallbacks caused specifically by buffer underflow.
        self.repairs = 0
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
    def hits(self) -> int:
        """Requests :meth:`get` answered from memory."""
        return _counted(self._hits)

    @property
    def misses(self) -> int:
        """Requests :meth:`get` found no serving answer for."""
        return _counted(self._misses)

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

        Takes no lock: one dict lookup, and the hit or miss counted by one
        ``next`` on a count.  What it returns is an answer some write
        published whole — the state before or after a sweep's one
        publication, never a mix (:meth:`on_data_mutation`).

        A server's warm read is this call and nothing else, so a hit is
        what counts it (``serving.server.reads`` / ``read_hits``); the
        server's span, not this call, says whether the read hit.
        """
        entry = self._entries.get(uid)
        if entry is not None and 0 < k <= entry.k:
            next(self._hits)
            return entry
        next(self._misses)
        return None

    def peek(self, uid: int, k: int) -> Optional[CachedResult]:
        """:meth:`get` without touching the statistics.  Like :meth:`get`,
        it never returns a basis."""
        with self._lock:
            entry = self._entries.get(uid)
            return entry if entry is not None and 0 < k <= entry.k else None

    def take_basis(self, uid: int) -> Optional[CachedResult]:
        """``uid``'s basis, or ``None``; the cold read that takes it
        repairs it (:meth:`repair_profile`) or folds in full.  It stays held
        and swept until that read's :meth:`put`, which hands its holdings
        to the new answer."""
        with self._lock:
            return self._bases.get(uid)

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
        keeps for the read after a profile update.  The replaced answer's or
        basis's holdings move to the new answer (:meth:`_move`): a read
        after a profile update rewrites only the keys that changed.

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
            self._entries[uid] = entry
            self._move(uid, replaced, entry)
        annotate("result_cache_put", "materialised")
        return entry

    # -- invalidation -------------------------------------------------------------

    def _move(self, uid: int, old: Optional[CachedResult],
              new: Optional[CachedResult]) -> None:
        """Move ``uid``'s holdings from entry ``old`` to entry ``new``
        (``None``: held nothing / holds nothing): only the keys whose factor
        appeared, vanished or changed, only the pids that left or entered
        the buffer, and the threshold.  A sweep's replacement keeps its
        ``conjuncts`` and ``intensities``, so no factor is compared there."""
        if old is None or new is None or old.conjuncts is not new.conjuncts \
                or old.intensities is not new.intensities:
            was = factors(old) if old is not None else {}
            now = factors(new) if new is not None else {}
            for key in was.keys() - now.keys():
                holders = self._factors[key]
                del holders[uid]
                if not holders:
                    del self._factors[key]
                    self._index.remove(key)
            for key, factor in now.items():
                if was.get(key) != factor:
                    holders = self._factors.get(key)
                    if holders is None:
                        holders = self._factors[key] = {}
                        self._index.add(key)
                    holders[uid] = factor
        left = {pid for pid, _ in old.buffer} if old is not None else set()
        entered = {pid for pid, _ in new.buffer} if new is not None else set()
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
        if new is None:
            del self._thresholds[uid]
        else:
            self._thresholds[uid] = spare_threshold(new)

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
        server's one :class:`~repro.index.selectivity.ConjunctIndex`, which
        it shares with the memo, names the *stale* keys — every conjunct
        live and :meth:`~repro.index.selectivity.RowMatch.shared` non-zero,
        found once per sweep for both stores — and only the holders of those
        the cache holds are looked at.  An answer is *visited* and affected
        when one of its keys is stale — it is then repaired or dropped, so
        the visits are ``results_repaired + results_invalidated``; a
        mutation that carries no rows visits none.

        **The score bound.**  One pass over the stale keys' holders
        multiplies each affected answer's ``miss`` by its :func:`factors`
        product under each key some *post-image* row may match:
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
        dropped (counted in :attr:`data_invalidations`, exported as
        ``repair_fallbacks`` too; underflow fallbacks additionally in
        :attr:`repair_underflows`).  The sweep
        bumps the epoch exactly like a pure invalidation sweep — a repaired
        entry reflects post-mutation data, so an answer computed from
        pre-mutation data must still lose the put race.  Unaffected entries
        are counted in :attr:`data_spared` — the benchmark asserts this
        stays positive, i.e. no mutation kind ever blindly flushes the cache.
        A basis is swept by the same rules and counted apart, in
        :attr:`basis_repairs` and :attr:`basis_drops`.

        **The publication.**  :meth:`get` reads without the lock, so the
        sweep changes what it can see in two steps, last of all: it pops
        every dropped answer, and then stores every repaired one with one
        ``dict.update`` — one C call over int keys, which runs no Python
        code a thread switch could interrupt (an answer it frees has no
        finaliser).  Every hit
        therefore returns the answer from before that update or the one
        from after it; a dropped answer is gone before any repaired one
        appears; and a miss queues on the server lock, which the sweeping
        thread holds.  So no reader sees a post-mutation answer and then a
        pre-mutation one.

        Returns this store's share of the sweep's impact under the
        :class:`~repro.serving.server.DataMutationReport` names —
        ``results_invalidated``, ``results_repaired``, ``results_spared`` —
        the amounts its counters just grew by.
        """
        post_rows = match.post_rows
        with self._lock:
            self._epoch += 1
            stale = self._index.stale(match)
            # Affected entry -> Π(1 − i) over the preferences a post row may
            # match; entries ``apply_delta`` must see whatever their bound.
            misses: Dict[int, float] = {}
            must: Set[int] = set()
            for key in stale:
                holders = self._factors.get(key)
                if holders is None:
                    continue
                hit = match.shared(key) & post_rows
                if hit & ~match.exact(key):
                    must.update(holders)
                for uid, factor in holders.items():
                    # A key only pre-image rows may match scores no tuple:
                    # the entry is affected, its bound unmoved.
                    misses[uid] = misses.get(uid, 1.0) * (
                        factor if hit else 1.0)
            for pid, _ in match.images:
                must.update(self._pids.get(pid, ()))
            # A held uid is an answer's or a basis's; both are maintained
            # alike, and only the answers count in the impact.
            entries, bases = self._entries, self._bases
            thresholds = self._thresholds
            dropped: List[int] = []
            # The repaired answers, published below in one step.
            published: Dict[int, CachedResult] = {}
            underflows = applied = 0
            for uid, miss in misses.items():
                if 1.0 - miss < thresholds[uid] and uid not in must:
                    continue
                served = uid in entries
                entry = entries[uid] if served else bases[uid]
                # A delete scores no tuple: its repair asks no position.
                positions = () if not post_rows else [
                    position for position, conjuncts
                    in enumerate(entry.conjuncts) if conjuncts in stale]
                applied += served
                replacement, reason = entry.apply_delta(match, positions)
                if replacement is None:
                    dropped.append(uid)
                    if served and reason == FALLBACK_UNDERFLOW:
                        underflows += 1
                elif replacement is not entry:
                    if served:
                        published[uid] = replacement
                    else:
                        # A basis is never served: no reader to publish to.
                        bases[uid] = replacement
                    self._move(uid, entry, replacement)
            # Every affected uid not dropped was repaired: spared or not.
            affected_bases = len(bases.keys() & misses.keys())
            invalidated = len(entries.keys() & dropped)
            repaired = len(misses) - affected_bases - invalidated
            rebased = affected_bases - (len(dropped) - invalidated)
            # The publication (see the docstring): drops first, then every
            # repair in one ``update``.
            for uid in dropped:
                self._move(uid, entries.pop(uid, None) or bases.pop(uid), None)
            entries.update(published)
            impact = {"results_invalidated": invalidated,
                      "results_repaired": repaired,
                      "results_spared": len(entries) - repaired}
            self.repairs += repaired
            self.deltas_applied += applied
            self.repair_underflows += underflows
            self.data_invalidations += invalidated
            self.data_spared += impact["results_spared"]
            self.basis_repairs += rebased
            self.basis_drops += len(dropped) - invalidated
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
            for key in self._factors:
                self._index.remove(key)
            self._factors.clear()
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
                "repairs": self.repairs,
                # One count under both names: every fallback is a drop.
                "repair_fallbacks": self.data_invalidations,
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
