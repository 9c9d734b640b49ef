"""The one operation vocabulary: kinds, mix, streams and how an op is applied.

Everything that drives the serving engine — the one runner
(:class:`~repro.loadgen.runner.LoadGenerator`, serial or concurrent), the
differential arms of the benchmarks — speaks this module and nothing else:
five op kinds and one frozen :class:`Op` record; an :class:`OpMix` of five
relative weights (``OpMix()`` is the benign default), with users drawn
Zipf-skewed (:data:`ZIPF_EXPONENT`); an :class:`OpStream` generating ops
over its own pid lane (a serial replay is the one stream that owns the
whole loaded relation, a load run the N streams of :func:`build_streams`);
:func:`apply_op`, which calls the front door an op names on a
:class:`~repro.serving.server.TopKServer` or on :class:`Uncached` (the same
doors over the bare loader and ``fresh_top_k``); and the one
served-vs-``fresh_top_k`` comparison (:func:`audit_materialised`) whose
mismatches the load harness's auditor and the state machine collect.

Lanes are what keep concurrent streams race-free: worker *w* inserts at
``max_pid + 1 + w * PID_STRIDE + serial`` and deletes only pids it owns
(its own inserts; the lone worker of a serial replay also owns the loaded
relation), so a mutation can never race another worker's delete into a
:class:`~repro.exceptions.WorkloadError`, while every cache and lock in the
serving engine still sees fully concurrent mixed traffic.  A stream whose
next insert would leave its lane raises :class:`ServingError` instead of
colliding with the next worker's pids.

Hostile update sequences (hot pids, the repair-buffer boundary, draining
the relation, profile churn) are drawn by the server state machine in
``tests/test_server_machine.py``, which checks every step against
``fresh_top_k``.
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

#: Zipf exponent of the per-user request skew.
ZIPF_EXPONENT = 1.1

#: Pid-lane width per worker: no stream inserts more than this many papers
#: in one run (a 30 s smoke run inserts a few hundred); the insert that
#: would leave the lane raises instead.
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
    """Relative op weights of one run.

    The weights are normalised internally; a weight of zero removes that
    kind from the stream entirely.  The defaults are the benign mix:
    read-heavy, mutations uniform over live pids.
    """

    read_weight: float = 8.0
    update_weight: float = 1.0
    insert_weight: float = 1.0
    delete_weight: float = 0.5
    data_update_weight: float = 0.5

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


def venue_predicate(venue: str) -> str:
    """The ``dblp.venue = '...'`` predicate SQL for one venue (quote-safe)."""
    quoted = venue.replace("'", "''")
    return f"dblp.venue = '{quoted}'"


class OpStream:
    """A deterministic, endless stream of :class:`Op` records over one world.

    ``uids`` is the read/update population (Zipf-skewed in that order).
    ``worker`` is ``None`` for the lone stream of a serial replay, which
    owns the whole loaded relation, or the index *w* of one of several
    concurrent streams, which starts empty-handed: it deletes and rewrites
    only what it inserted, in its own pid lane.  The workload shape, the
    author-id range, the first free pid and (for the lone stream) the live
    pids are read from ``db`` once, at construction; the stream never
    touches it again.  It is a pure function of ``(world, mix, uids, k,
    seed, worker)`` and is consumed by exactly one thread, so it needs no
    locking.
    """

    def __init__(self, db: StorageBackend, mix: OpMix, uids: Sequence[int],
                 k: int, seed: int, worker: Optional[int] = None) -> None:
        if not uids:
            raise ServingError("an op stream needs at least one user")
        self.venues, self.lo, self.hi = db.workload_shape()
        if not self.venues:
            raise ServingError("op-stream world has no papers loaded")
        lane = 0 if worker is None else worker
        self.worker_id = lane
        self.mix = mix
        self.uids = list(uids)
        self.k = k
        # An author-less world still takes inserts: link them to author 1.
        self.max_aid = max(1, db.max_author_id())
        # Distinct deterministic stream per worker (plain int seed — no
        # dependence on hash randomisation).
        self._rng = random.Random(seed * 1_000_003 + lane)
        self._weights = list(mix.weights())
        self._zipf = [1.0 / ((rank + 1) ** ZIPF_EXPONENT)
                      for rank in range(len(self.uids))]
        self._next_pid = db.max_paper_id() + 1 + lane * PID_STRIDE
        self._lane_end = self._next_pid + PID_STRIDE
        self._alive: List[int] = list(db.paper_ids()) if worker is None else []
        self._update_serial = 0
        self.generated = 0

    def __iter__(self) -> Iterator[Op]:
        return self

    def _pick_uid(self) -> int:
        return self._rng.choices(self.uids, weights=self._zipf, k=1)[0]

    def __next__(self) -> Op:
        self.generated += 1
        kind = self._rng.choices(OP_KINDS, weights=self._weights, k=1)[0]
        if kind in (DELETE, DATA_UPDATE) and not self._alive:
            # Nothing live to mutate — seed the lane with an insert, unless
            # the mix disables inserts, in which case the stream degrades to
            # reads rather than resurrect a relation it drained.
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
            if pid >= self._lane_end:
                raise ServingError(
                    f"op stream {self.worker_id} would insert pid {pid}, "
                    f"past its lane of {PID_STRIDE} pids")
            self._next_pid += 1
            self._alive.append(pid)
            paper = Paper(pid=pid, title=f"Load Paper {pid}",
                          venue=self.venues[pid % len(self.venues)],
                          year=self.hi - (pid % 4), abstract="")
            return Op(INSERT, papers=(paper,),
                      paper_authors=((pid, 1 + (pid % self.max_aid)),))
        target = self._alive[self._rng.randrange(len(self._alive))]
        if kind == DELETE:
            self._alive.remove(target)
            return Op(DELETE, pids=(target,))
        paper = Paper(pid=target, title=f"Load Paper {target} (rewritten)",
                      venue=self.venues[(target * 5 + 2) % len(self.venues)],
                      year=self.lo + (self.generated
                                      % max(1, self.hi - self.lo + 1)),
                      abstract="")
        return Op(DATA_UPDATE, papers=(paper,))


def build_streams(db: StorageBackend, workers: int, mix: OpMix,
                  uids: Sequence[int], k: int, seed: int) -> List[OpStream]:
    """One :class:`OpStream` per concurrent worker.

    One worker — a serial replay — is the lone stream that owns the whole
    loaded relation.  Several start empty-handed, each in its own pid lane:
    they delete and rewrite only what they inserted, so two workers never
    race for the same pid.
    """
    if workers < 1:
        raise ServingError("a load run needs at least one worker")
    if workers == 1:
        return [OpStream(db, mix, uids, k, seed)]
    return [OpStream(db, mix, uids, k, seed, worker=worker)
            for worker in range(workers)]


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
            uid, k, ranking, False,
            self.db.statements_executed - statements_before,
            time.perf_counter() - start)

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
