"""The one operation vocabulary: kinds, mixes, streams and how an op is applied.

Everything that drives the serving engine — the one runner
(:class:`~repro.loadgen.runner.LoadGenerator`, serial or concurrent), the
stateful test oracle, the differential arms of the benchmarks — speaks this
module and nothing else: five op kinds and one frozen :class:`Op` record;
an :class:`OpMix` of relative weights, user skew and mutation targeting
(``OpMix()`` is benign, :data:`MIXES` names the hostile ones); an
:class:`OpStream` generating ops over an *owned* pid namespace (a serial
replay is the one-worker stream that owns the whole relation, a load run
the N streams of :func:`build_streams`); :func:`apply_op`, which calls the
front door an op names on a :class:`~repro.serving.server.TopKServer` or on
:class:`Uncached` (the same doors over the bare loader and
``fresh_top_k``); and the one served-vs-``fresh_top_k`` comparison
(:func:`audit_materialised`) whose mismatches the load harness's auditor
collects.

Owned namespaces are what keep concurrent streams race-free: a stream
inserts at ``max_pid + 1 + worker * PID_STRIDE + serial`` and deletes only
pids it owns (its own inserts plus whatever ``owned`` it was seeded with),
so a mutation can never race another worker's delete into a
:class:`~repro.exceptions.WorkloadError`, while every cache and lock in the
serving engine still sees fully concurrent mixed traffic.

The named mixes (the hostile update sequences Berkholz et al. argue
maintained answers must be verified under):

``hot-keys``
    Mutation storm on the cached-hottest pids: deletes and in-place updates
    target the papers currently ranked for the hottest users, so nearly
    every mutation hits materialised answers (maximum invalidation/repair
    pressure, minimum sparing).
``delete-churn``
    Delete-heavy churn with inserts *disabled*: liveness drains toward an
    empty relation and stays there — top-k over an empty joined view,
    repair sweeps with zero surviving rows, and the stream's liveness
    fallback degrading to reads (never resurrection inserts).
``profile-thrash``
    Preference updates outpace reads: cached answers are invalidated by
    profile churn faster than reads can re-warm them, so the result cache
    works at its miss-heavy worst.
``repair-hostile``
    In-place updates straddling the ``k+Δ`` buffer boundary: targets are
    drawn from ranking positions around ``[k, k+Δ]`` of the hottest users,
    the exact rows whose movement forces the repair path to decide between
    in-place folds and underflow fallbacks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..backend.protocol import StorageBackend
from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ServingError
from ..workload.dblp import Paper
from ..workload.loader import (
    append_papers,
    delete_papers,
    load_profiles,
    update_papers,
)
from .server import ServeResult, fresh_top_k

#: Operation kinds.
READ = "read"
UPDATE = "update"
INSERT = "insert"
DELETE = "delete"
DATA_UPDATE = "data_update"

#: Every kind, in the order :meth:`OpMix.weights` reports its weights.
OP_KINDS = (READ, UPDATE, INSERT, DELETE, DATA_UPDATE)

#: The data-side mutation kinds (UPDATE is a *profile* update).
MUTATION_KINDS = (INSERT, DELETE, DATA_UPDATE)

#: Mutation-targeting policies.
TARGET_ANY = "any"          #: uniform over live owned pids (the default)
TARGET_HOT = "hot"          #: pids currently ranked top-k for the hottest users
TARGET_BOUNDARY = "boundary"  #: pids around the k+delta repair-buffer boundary

#: Pid-namespace width per worker — no stream may insert more than this
#: many papers in one run (a 30 s smoke run inserts a few hundred).
PID_STRIDE = 1_000_000


@dataclass(frozen=True)
class Op:
    """One operation (payload pre-built, fully deterministic)."""

    kind: str
    uid: int = 0
    k: int = 0
    profile: Optional[UserProfile] = None
    papers: Tuple[Paper, ...] = ()
    paper_authors: Tuple[Tuple[int, int], ...] = ()
    #: Target paper ids of a DELETE.
    pids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class OpMix:
    """Relative op weights, user skew and mutation targeting of one run.

    The weights are normalised internally; a weight of zero removes that
    kind from the stream entirely.  The defaults are the benign mix:
    read-heavy, mutations uniform over live pids.
    """

    name: str = "benign"
    description: str = "read-heavy, mutations spread uniformly over live pids"
    read_weight: float = 8.0
    update_weight: float = 1.0
    insert_weight: float = 1.0
    delete_weight: float = 0.5
    data_update_weight: float = 0.5
    #: Zipf exponent of the per-user request skew.
    zipf_exponent: float = 1.1
    #: Where deletes and in-place updates aim (``any`` / ``hot`` /
    #: ``boundary`` — see :func:`target_pool`).
    target: str = TARGET_ANY
    #: Documented expectation: the mix drives the warm-read rate below a
    #: benign DBLP replay's (asserted by ``benchmarks/bench_adversarial.py``).
    cache_hostile: bool = False

    def __post_init__(self) -> None:
        # random.choices silently produces nonsense for negative weights and
        # raises a cryptic ValueError when all are zero — fail loudly here.
        weights = self.weights()
        if any(weight < 0 for weight in weights):
            raise ServingError("op-mix weights must be non-negative")
        if not any(weights):
            raise ServingError("op-mix weights must not all be zero")

    def weights(self) -> Tuple[float, float, float, float, float]:
        """The op weights in :data:`OP_KINDS` order."""
        return (self.read_weight, self.update_weight, self.insert_weight,
                self.delete_weight, self.data_update_weight)

    @classmethod
    def named(cls, name: Optional[str]) -> "OpMix":
        """The catalogue mix called ``name``; ``None`` is the benign default."""
        if name is None:
            return cls()
        try:
            return MIXES[name]
        except KeyError:
            raise ServingError(
                f"unknown adversarial mix {name!r}; "
                f"expected one of {sorted(MIXES)}") from None


#: The hostile-mix catalogue, by CLI name.
MIXES: Dict[str, OpMix] = {mix.name: mix for mix in (
    OpMix("hot-keys", "mutation storm targeting the cached-hottest pids",
          read_weight=6.0, update_weight=0.4, insert_weight=0.6,
          delete_weight=1.5, data_update_weight=3.5,
          target=TARGET_HOT, cache_hostile=True),
    OpMix("delete-churn",
          "delete-heavy churn draining the relation toward empty "
          "(inserts disabled)",
          read_weight=3.0, update_weight=0.3, insert_weight=0.0,
          delete_weight=8.0, data_update_weight=0.7, cache_hostile=True),
    OpMix("profile-thrash", "preference updates outpacing reads",
          read_weight=1.0, update_weight=8.0, insert_weight=0.3,
          delete_weight=0.2, data_update_weight=0.5, cache_hostile=True),
    OpMix("repair-hostile",
          "in-place updates on rows straddling the k+delta "
          "repair-buffer boundary",
          read_weight=6.0, update_weight=0.3, insert_weight=0.7,
          delete_weight=1.0, data_update_weight=4.0,
          target=TARGET_BOUNDARY),
)}


def target_pool(db: StorageBackend, uids: Sequence[int], k: int, target: str,
                users: int = 8) -> List[int]:
    """The mutation-target pids of a ``hot``/``boundary`` policy, in rank order.

    ``hot`` collects the pids currently ranked top-``k`` for the first
    ``users`` uids (the Zipf-hottest — exactly the answers the result cache
    keeps warm); ``boundary`` collects the pids around ranking positions
    ``[k, k+Δ]`` of those users, the rows whose movement stresses the
    repair buffer's over-fetch margin (Δ defaults to ``2*k``, the server's
    default ``repair_delta``).  Computed by fresh recomputation, so two
    identical worlds — on any storage engine — produce the identical pool;
    ``any`` (or an empty world) yields an empty pool.
    """
    if target not in (TARGET_HOT, TARGET_BOUNDARY):
        return []
    depth = k if target == TARGET_HOT else 3 * k + 2
    seen = set()
    pool: List[int] = []
    for uid in list(uids)[:users]:
        ranking = fresh_top_k(db, uid, depth)
        if target == TARGET_BOUNDARY:
            ranking = ranking[max(0, k - 1):]
        for pid, _ in ranking:
            if pid not in seen:
                seen.add(pid)
                pool.append(pid)
    return pool


def venue_predicate(venue: str) -> str:
    """The ``dblp.venue = '...'`` predicate SQL for one venue (quote-safe)."""
    quoted = venue.replace("'", "''")
    return f"dblp.venue = '{quoted}'"


class OpStream:
    """A deterministic, endless stream of :class:`Op` records over one world.

    ``uids`` is the read/update population (Zipf-skewed in that order);
    ``owned`` the live pids this stream may delete — its own inserts join
    them — and ``hot`` the mix's target pool: deletes prefer a live *owned*
    pool pid, in-place updates any pool pid this stream has not deleted
    (the caller guarantees no other stream deletes them).  The workload
    shape, the author-id range and the first free pid are read from ``db``
    once, at construction; the stream never touches it again.  It is a pure
    function of ``(world, mix, uids, k, seed, worker)`` and is consumed by
    exactly one thread, so it needs no locking.
    """

    def __init__(self, db: StorageBackend, mix: OpMix, uids: Sequence[int],
                 k: int, seed: int, worker: int = 0,
                 owned: Sequence[int] = (), hot: Sequence[int] = ()) -> None:
        if not uids:
            raise ServingError("an op stream needs at least one user")
        self.venues, self.lo, self.hi = db.workload_shape()
        if not self.venues:
            raise ServingError("op-stream world has no papers loaded")
        self.worker_id = worker
        self.mix = mix
        self.uids = list(uids)
        self.k = k
        # An author-less world still takes inserts: link them to author 1.
        self.max_aid = max(1, db.max_author_id())
        # Distinct deterministic stream per worker (plain int seed — no
        # dependence on hash randomisation).
        self._rng = random.Random(seed * 1_000_003 + worker)
        self._weights = list(mix.weights())
        self._zipf = [1.0 / ((rank + 1) ** mix.zipf_exponent)
                      for rank in range(len(self.uids))]
        self._next_pid = db.max_paper_id() + 1 + worker * PID_STRIDE
        self._alive: List[int] = list(owned)
        self._hot: List[int] = list(hot)
        owned_set = set(self._alive)
        self._owned_hot = [pid for pid in self._hot if pid in owned_set]
        self._update_serial = 0
        self.generated = 0

    def __iter__(self) -> Iterator[Op]:
        return self

    def _pick_uid(self) -> int:
        return self._rng.choices(self.uids, weights=self._zipf, k=1)[0]

    def __next__(self) -> Op:
        self.generated += 1
        kind = self._rng.choices(OP_KINDS, weights=self._weights, k=1)[0]
        if ((kind == DELETE and not self._alive)
                or (kind == DATA_UPDATE and not (self._alive or self._hot))):
            # Nothing live to mutate — seed the namespace with an insert,
            # unless the mix disables inserts (delete-churn), in which case
            # the stream must degrade to reads rather than resurrect the
            # relation it deliberately drained.
            kind = INSERT if self.mix.insert_weight > 0 else READ
        if kind == READ:
            return Op(READ, uid=self._pick_uid(), k=self.k)
        if kind == UPDATE:
            uid = self._pick_uid()
            serial = self._update_serial
            self._update_serial += 1
            profile = UserProfile(uid=uid)
            venue = self.venues[(uid + 7 * serial + 3) % len(self.venues)]
            profile.add_quantitative(venue_predicate(venue),
                                     0.3 + 0.05 * (serial % 5))
            return Op(UPDATE, uid=uid, profile=profile)
        if kind == INSERT:
            pid = self._next_pid
            self._next_pid += 1
            self._alive.append(pid)
            paper = Paper(pid=pid, title=f"Load Paper {pid}",
                          venue=self.venues[pid % len(self.venues)],
                          year=self.hi - (pid % 4), abstract="")
            return Op(INSERT, papers=(paper,),
                      paper_authors=((pid, 1 + (pid % self.max_aid)),))
        if kind == DELETE:
            pool = self._owned_hot or self._alive
            target = pool[self._rng.randrange(len(pool))]
            self._alive.remove(target)
            if pool is self._owned_hot:
                self._owned_hot.remove(target)
                self._hot.remove(target)
            return Op(DELETE, pids=(target,))
        pool = self._hot or self._alive
        target = pool[self._rng.randrange(len(pool))]
        paper = Paper(pid=target, title=f"Load Paper {target} (rewritten)",
                      venue=self.venues[(target * 5 + 2) % len(self.venues)],
                      year=self.lo + (self.generated
                                      % max(1, self.hi - self.lo + 1)),
                      abstract="")
        return Op(DATA_UPDATE, papers=(paper,))


def build_streams(db: StorageBackend, workers: int, mix: OpMix,
                  uids: Sequence[int], k: int, seed: int) -> List[OpStream]:
    """One :class:`OpStream` per concurrent worker, namespaces pre-partitioned.

    One worker — a serial replay — owns the whole loaded relation, target
    pool included.  Among several, a mix that deletes but never inserts can
    only drain the *loaded* relation, so its workers are seeded with
    disjoint stripes of it — worker *w* owns ``paper_ids[w::workers]`` — and
    two workers never race for the same pid; any other mix starts its
    workers empty-handed (they delete what they inserted).  The mix's
    target pool is shared: those pids only ever receive in-place updates,
    which commute — except under seeding, where a worker keeps just its own
    stripe of the pool, because an owner may delete what it owns.
    """
    if workers < 1:
        raise ServingError("a load run needs at least one worker")
    seeded = mix.insert_weight == 0 and mix.delete_weight > 0
    base = db.paper_ids() if seeded or workers == 1 else []
    pool = target_pool(db, uids, k, mix.target)
    streams = []
    for worker in range(workers):
        owned = base[worker::workers]
        stripe = set(owned)
        hot = [pid for pid in pool if pid in stripe] if seeded else pool
        streams.append(OpStream(db, mix, uids, k, seed, worker=worker,
                                owned=owned, hot=hot))
    return streams


# -- applying an op -----------------------------------------------------------------


def apply_op(target: Any, op: Op) -> Any:
    """Call the front door ``op`` names on ``target``; return its result.

    ``target`` is a :class:`~repro.serving.server.TopKServer` or an
    :class:`Uncached` arm.  This is the only place an op's kind is turned
    into a call.
    """
    if op.kind == READ:
        return target.top_k(op.uid, op.k)
    if op.kind == UPDATE:
        return target.update_profile(op.uid, op.profile)
    if op.kind == INSERT:
        return target.insert_tuples(op.papers, op.paper_authors)
    if op.kind == DELETE:
        return target.delete_tuples(op.pids)
    if op.kind == DATA_UPDATE:
        return target.update_tuples(op.papers)
    raise ServingError(f"unknown op kind {op.kind!r}")


class Uncached:
    """The no-serving-layer arm: the five doors over the bare loader.

    Every read rebuilds the user's graph, pair index and caches from
    scratch (:func:`~repro.serving.server.fresh_top_k` — the seed's ad-hoc
    behaviour, and the reference every differential compares against);
    profile updates and data mutations only persist rows and return the
    loader's own row counts.  Nothing is ever materialised, and it has no
    locks to instrument and no counters of its own.
    """

    def __init__(self, db: StorageBackend) -> None:
        self.db = db

    def metrics(self) -> Dict[str, int]:
        return {}

    def top_k(self, uid: int, k: int) -> ServeResult:
        start = time.perf_counter()
        statements_before = self.db.statements_executed
        ranking = tuple(tuple(entry) for entry in fresh_top_k(self.db, uid, k))
        return ServeResult(
            uid=uid, k=k, ranking=ranking, cache_hit=False,
            sql_statements=self.db.statements_executed - statements_before,
            seconds=time.perf_counter() - start)

    def update_profile(self, uid: int, profile: UserProfile) -> Dict[str, int]:
        registry = ProfileRegistry()
        registry.add(profile)
        return load_profiles(self.db, registry)

    def insert_tuples(self, papers: Sequence[Paper],
                      paper_authors: Sequence[Tuple[int, int]] = ()
                      ) -> Dict[str, int]:
        return append_papers(self.db, list(papers), list(paper_authors))

    def delete_tuples(self, pids: Sequence[int]) -> Dict[str, int]:
        return delete_papers(self.db, pids)

    def update_tuples(self, papers: Sequence[Paper]) -> Dict[str, int]:
        return update_papers(self.db, list(papers))


# -- comparing an arm against the reference -----------------------------------------


def audit_materialised(target: Any, uids: Sequence[int], k: int
                       ) -> Tuple[int, List[Dict[str, Any]]]:
    """Check every ``(uid, k)`` answer ``target`` keeps materialised.

    Each is compared with ``fresh_top_k``; returns ``(answers compared,
    mismatch records)`` — a record holds ``uid`` / ``k`` / ``served`` /
    ``fresh``.  Users with no materialised answer are skipped.  Only
    meaningful while no request is in flight (between serial ops, or inside
    a quiesced traffic gate).
    """
    compared = 0
    mismatches: List[Dict[str, Any]] = []
    for uid in uids:
        entry = target.results.peek(uid, k)
        if entry is None:
            continue
        compared += 1
        served = [tuple(item) for item in entry.ranking]
        fresh = [tuple(item) for item in fresh_top_k(target.db, uid, k)]
        if served != fresh:
            mismatches.append({"uid": uid, "k": k,
                               "served": served, "fresh": fresh})
    return compared, mismatches
