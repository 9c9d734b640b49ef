"""The benchmark's own schedule generator.

``--seed`` drives only what is generated here: the popularity order of the
users, the Zipf(1.1) draws, the order of op kinds, targets and payloads.  The program
receives nothing but the generated ops.  A schedule is a sequence of
*units*; a unit is the smallest piece whose composition is balanced, so a
run may stop after any unit without biasing its metrics:

* ``stream`` workloads: one unit = one segment of ``segment_ops`` ops in the
  exact proportions of the mix, in seeded order, over a fixed user sample;
* ``cold`` workloads: one unit = a fresh server and a systematic sample of
  the population, each user read exactly once, in seeded order.

User samples are systematic over the population ordered by cost (see
``world.populations``) and do not depend on the seed; the seed deals the
popularity ranks, orders each unit and draws every op.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Tuple

from repro import UserProfile
from repro.workload import Paper

from .config import DELETE, INSERT, PROFILE, READ, UPDATE, WorkloadSpec

ZIPF_EXPONENT = 1.1
#: First pid of client ``c``'s private insert range is ``(c + 1) * PID_STRIDE``.
PID_STRIDE = 10_000_000

Op = Tuple[Any, ...]


@dataclass
class Unit:
    """``segments[s][c]`` is client ``c``'s op list in segment ``s``."""

    fresh_server: bool
    segments: List[List[List[Op]]]
    users: List[int]  # users an oracle checkpoint after this unit may sample


#: Popularity ranks are dealt in rounds of this many cost classes.
COST_CLASSES = 8


def _lane(seed: int, lane: int) -> random.Random:
    # Plain integer arithmetic: independent of hash randomisation.
    return random.Random(seed * 1_000_003 + lane)


def systematic_sample(ranked: Sequence[int], count: int, member: int = -1,
                      ) -> List[int]:
    """One user from each of ``count`` equal slices of ``ranked``: the middle
    one, or member ``member`` (modulo the slice width) when given.

    The sample is a function of the population alone.  Which users of a size
    class are measured moves write cost by a tenth and the median cold read
    by 13%, so the seed decides how a sample is used, not who is in it.
    """
    if not 0 < count <= len(ranked):
        raise ValueError(f"cannot sample {count} of {len(ranked)} users")
    total = len(ranked)
    sample = []
    for i in range(count):
        low, high = i * total // count, (i + 1) * total // count
        pick = (high - low) // 2 if member < 0 else member % (high - low)
        sample.append(ranked[low + pick])
    return sample


def balanced_order(by_cost: Sequence[int], rng: random.Random) -> List[int]:
    """A seeded popularity order in which every run of ``COST_CLASSES``
    consecutive ranks holds one user of each cost class.

    ``by_cost`` is ordered cheapest first.  The hottest ranks take most
    of the traffic and fill the session LRU, so an unconstrained shuffle
    would let the seed decide whether the hot set is cheap or expensive.
    """
    width = -(-len(by_cost) // COST_CLASSES)
    classes = [list(by_cost[i:i + width]) for i in range(0, len(by_cost), width)]
    for members in classes:
        rng.shuffle(members)
    order: List[int] = []
    while any(classes):
        round_ = [members.pop() for members in classes if members]
        rng.shuffle(round_)
        order += round_
    return order


class ClientStream:
    """Client ``c`` of ``n``: owns base pids ``[c::n]`` plus a private insert
    range, so no two clients ever mutate the same tuple.

    A mutation's cost grows with the joined rows of its tuple, one per
    author, so each mutation kind takes its targets from the author-count
    classes in rotation: the seed picks the tuple, not how large it is.
    """

    def __init__(self, spec: WorkloadSpec, seed: int, client: int,
                 users: Sequence[int], dataset: Any) -> None:
        self._rng = _lane(seed, 1 + client)
        self._users = list(users)
        self._zipf = list(accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(users))))
        self._shares = [weight / sum(spec.mix) for weight in spec.mix]
        self._issued = [0] * len(spec.mix)
        authors = dataset.authors_of()
        owned = [paper.pid for paper in dataset.papers][client::spec.clients]
        sizes = sorted({len(authors[pid]) for pid in owned})
        # Smallest, largest, second smallest, ...: any two consecutive
        # targets of a kind carry the same number of rows in total.
        self._sizes = [sizes[-(i // 2) - 1] if i % 2 else sizes[i // 2]
                       for i in range(len(sizes))]
        self._alive: Dict[int, List[int]] = {size: [] for size in self._sizes}
        for pid in owned:
            self._alive[len(authors[pid])].append(pid)
        self._turn = {INSERT: 0, DELETE: 0, UPDATE: 0}
        self._next_pid = (client + 1) * PID_STRIDE
        self._venues = dataset.venues()
        years = [paper.year for paper in dataset.papers]
        self._years = (min(years), max(years))
        self._aids = [author.aid for author in dataset.authors]

    def _paper(self, pid: int) -> Paper:
        rng = self._rng
        return Paper(pid=pid, title=f"Bench Paper {pid}",
                     venue=rng.choice(self._venues),
                     year=rng.randint(*self._years))

    def _next_size(self, kind: int) -> int:
        """The author count of ``kind``'s next target (classes in rotation,
        skipping any that deletes have emptied)."""
        for _ in self._sizes:
            size = self._sizes[self._turn[kind] % len(self._sizes)]
            self._turn[kind] += 1
            if kind == INSERT or self._alive[size]:
                return size
        raise RuntimeError("no tuple left to mutate")

    def _kinds_of(self, count: int) -> List[int]:
        """The op kinds of the next ``count`` ops, in exact mix proportion.

        Each kind's running total tracks its share of all ops issued so far
        to within one op (reads absorb the rounding), so every unit has the
        same composition: drawn independently, the 12% of ops that take 90%
        of the time would vary by a tenth from run to run.
        """
        total = sum(self._issued) + count
        kinds: List[int] = []
        for kind in range(1, len(self._shares)):
            due = round(self._shares[kind] * total) - self._issued[kind]
            kinds += [kind] * due
            self._issued[kind] += due
        reads = count - len(kinds)
        self._issued[READ] += reads
        return kinds + [READ] * reads

    def ops(self, count: int) -> List[Op]:
        rng = self._rng
        kinds = self._kinds_of(count)
        rng.shuffle(kinds)
        uids = rng.choices(self._users, cum_weights=self._zipf, k=count)
        ops: List[Op] = []
        for kind, uid in zip(kinds, uids):
            if kind == READ:
                ops.append((READ, uid))
            elif kind == PROFILE:
                # Quantitative, on an attribute no mined preference uses: an
                # update inside a mined qualitative chain makes a resident
                # session and one rebuilt from the staging tables disagree at
                # the seed commit (the oracle flags it; see the README).
                profile = UserProfile(uid=uid)
                profile.add_quantitative(
                    f"dblp.year = {rng.randint(*self._years)}",
                    round(rng.uniform(0.2, 0.8), 3))
                ops.append((PROFILE, uid, profile))
            elif kind == INSERT:
                pid = self._next_pid
                self._next_pid += 1
                size = self._next_size(INSERT)
                self._alive[size].append(pid)
                ops.append((INSERT, (self._paper(pid),),
                            tuple((pid, aid)
                                  for aid in rng.sample(self._aids, size))))
            elif kind == DELETE:
                alive = self._alive[self._next_size(DELETE)]
                index = rng.randrange(len(alive))
                alive[index], alive[-1] = alive[-1], alive[index]
                ops.append((DELETE, (alive.pop(),)))
            else:
                alive = self._alive[self._next_size(UPDATE)]
                ops.append((UPDATE, (self._paper(rng.choice(alive)),)))
        return ops


class Schedule:
    """The deterministic schedule of one ``(workload parameters, seed)``.

    Depends on the spec's schedule parameters only — never on its name or
    backend — so ``mixed-churn`` and ``mixed-churn-memory`` replay the
    identical ops.
    """

    def __init__(self, spec: WorkloadSpec, seed: int, dataset: Any,
                 populations: Dict[str, List[int]]) -> None:
        self.spec = spec
        self._dealer = _lane(seed, 0)
        self._checker = _lane(seed, 999)
        ranked = populations[spec.population]
        if spec.kind == "cold":
            if spec.clients != 1:
                raise ValueError("cold workloads are single-client")
            cut = len(ranked) - spec.tail_users
            self._bulk = ranked[:cut]
            # The richest users cost up to 40x the median read; one seeded
            # pick among them would dominate the run-to-run spread.  Their
            # median member stands in for them, at the tail's population share.
            self._tail = ranked[cut:][spec.tail_users // 2:][:1]
            self.users: List[int] = []
            self.prime: List[int] = []
            self._unit = 0
        else:
            # index = popularity rank
            self.users = balanced_order(
                systematic_sample(ranked, spec.users), self._dealer)
            # Coldest first, so the session LRU ends holding the hottest users.
            self.prime = self.users[::-1]
            self._streams = [ClientStream(spec, seed, client, self.users, dataset)
                             for client in range(spec.clients)]

    def next_unit(self) -> Unit:
        spec = self.spec
        if spec.kind == "cold":
            # Unit j reads member j of every slice of the population.
            users = systematic_sample(
                self._bulk, spec.users - len(self._tail), self._unit)
            users += self._tail
            self._unit += 1
            # Cost classes interleaved, as for popularity: the sessions
            # resident at any moment, hence peak memory, keep one composition.
            users = balanced_order(users, self._dealer)
            segments = [[[(READ, uid) for uid in users[i:i + spec.segment_ops]]]
                        for i in range(0, len(users), spec.segment_ops)]
            return Unit(True, segments, users)
        per_client = spec.segment_ops // spec.clients
        return Unit(False, [[stream.ops(per_client) for stream in self._streams]],
                    self.users)

    def check_sample(self, unit: Unit, count: int) -> List[int]:
        """Users whose served ranking the oracle verifies after ``unit``."""
        return self._checker.sample(unit.users, min(count, len(unit.users)))


def _encode(op: Op) -> str:
    kind = op[0]
    if kind == READ:
        return f"r{op[1]}"
    if kind == PROFILE:
        profile = op[2]
        quantitative = [(p.predicate_sql, p.intensity) for p in profile.quantitative]
        qualitative = [(p.left_sql, p.right_sql, p.intensity)
                       for p in profile.qualitative]
        return f"p{op[1]}{quantitative}{qualitative}"
    if kind == DELETE:
        return f"d{op[1]}"
    papers = [(p.pid, p.title, p.venue, p.year) for p in op[1]]
    return f"{'i' if kind == INSERT else 'u'}{papers}{op[2:]}"


def schedule_digest(spec: WorkloadSpec, seed: int, dataset: Any,
                    populations: Dict[str, List[int]], units: int) -> str:
    """Hash of the priming order and the first ``units`` units of a schedule."""
    schedule = Schedule(spec, seed, dataset, populations)
    digest = hashlib.sha256(f"prime{schedule.prime}".encode())
    for index in range(units):
        unit = schedule.next_unit()
        for s, segment in enumerate(unit.segments):
            for c, ops in enumerate(segment):
                digest.update(f"\n{index}.{s}.{c}:".encode())
                digest.update(",".join(map(_encode, ops)).encode())
    return digest.hexdigest()
