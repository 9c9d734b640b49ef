"""Per-user serving sessions behind a capacity-bounded LRU registry.

A :class:`UserSession` is the resident state the serving engine keeps for one
user between requests: an immutable snapshot of one persisted profile — the
user's HYPRE graph, built by the same
:meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_profile` the oracles
use (all quantitative preferences, then all qualitative ones) — and the one
:class:`~repro.algorithms.peps.PEPSAlgorithm` over that graph's preference
list.  A session holds no pair table and no count: a Top-K is one id list per
preference, folded.  A profile update never touches a live session: the
server *persists, drops, rebuilds* — the next read builds a new session from
the staging tables, so a session that lived through updates and one rebuilt
after eviction cannot differ.  Every session reads its id lists through the
registry's one shared :class:`~repro.algorithms.base.PreferenceQueryRunner`,
so an id list fetched while serving one user is reused for every other user
whose profile mentions the same predicate, and by that user's own next
session.

:class:`SessionRegistry` bounds how many sessions stay resident: it is an LRU
keyed by uid with drop statistics by reason, guarded by its own re-entrant
lock so the registry stays consistent even for callers that bypass the
server's big lock (and so the load harness can wrap the lock and report its
contention).  Dropping a session is safe because profiles are persisted in
the relational staging tables — the user's next request rebuilds the session
from :func:`~repro.workload.loader.read_profiles` (the server wires that
loader in), paying the build cost again but never losing preferences.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..algorithms.base import PreferenceQueryRunner, preferences_from_graph
from ..algorithms.peps import PEPSAlgorithm
from ..backend.protocol import StorageBackend
from ..core.hypre.builder import HypreGraphBuilder
from ..core.preference import UserProfile
from ..exceptions import ServingError
from ..index import RowMatch
from ..telemetry import span

ProfileLoader = Callable[[int], Optional[UserProfile]]


class UserSession:
    """One user's resident serving state (graph + PEPS), a snapshot of the
    ``profile`` it was built from."""

    def __init__(self, uid: int, runner: PreferenceQueryRunner,
                 profile: UserProfile) -> None:
        if profile.uid != uid:
            raise ServingError(
                f"profile for uid={profile.uid} given to session uid={uid}")
        self.uid = uid
        self.builder = HypreGraphBuilder()
        self.builder.build_profile(profile)
        self._peps = PEPSAlgorithm(runner, preferences_from_graph(self.hypre, uid))
        #: Number of Top-K computations served by this session.
        self.queries_served = 0

    @property
    def hypre(self):
        """The session's HYPRE graph (one user's profile subgraph)."""
        return self.builder.hypre

    def algorithm(self) -> PEPSAlgorithm:
        """The session's PEPS instance: one per session, for its lifetime."""
        return self._peps

    def top_k_buffer(self, k: int, delta: int = 0):
        """Compute the over-fetched ``(buffer, complete)`` answer (see
        :meth:`~repro.algorithms.peps.PEPSAlgorithm.top_k_buffer`): the Top-K
        is its first ``k`` entries, and the serving engine caches the whole
        buffer so data mutations can repair the answer in place."""
        self.queries_served += 1
        return self._peps.top_k_buffer(k, delta)

    def preference_count(self) -> int:
        """Number of algorithm-usable (positive quantitative) preferences."""
        return len(self._peps.preferences)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"UserSession(uid={self.uid}, queries={self.queries_served})"


class SessionRegistry:
    """Capacity-bounded LRU of :class:`UserSession` objects sharing one runner.

    ``capacity`` bounds the number of *resident* sessions; the least recently
    used session is evicted when a new user arrives at capacity.
    ``profile_loader`` reconstructs a session's profile from persistent
    storage on a registry miss — the server passes the staging tables'
    :func:`~repro.workload.loader.read_profiles` reader.

    The registry itself never persists anything: dropping a session only
    loses no preferences when every profile handed to :meth:`get_or_create`
    is *also* stored where ``profile_loader`` will find it again — which is
    exactly what :meth:`~repro.serving.server.TopKServer.update_profile`
    guarantees by writing the staging tables before dropping the session.
    Callers using the registry directly with ad-hoc profiles and no loader
    must treat a dropped session's preferences as gone.
    """

    def __init__(self, db: StorageBackend,
                 capacity: int = 64,
                 profile_loader: Optional[ProfileLoader] = None) -> None:
        if capacity < 1:
            raise ServingError("session capacity must be at least 1")
        self.db = db
        self.capacity = capacity
        #: One shared runner: every session's id lists flow through the same
        #: memo, so sessions reuse each other's work.
        self.runner = PreferenceQueryRunner(db)
        self.profile_loader = profile_loader
        # Guards the LRU dict and the counters; the server's big lock sits
        # strictly outside it (see lock ordering in :mod:`repro.concurrency`).
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[int, UserSession]" = OrderedDict()
        #: Registry statistics.  Every dropped session is counted by reason:
        #: ``evictions`` is LRU pressure plus explicit :meth:`evict`,
        #: ``profile_drops`` a persisted profile update.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.profile_drops = 0
        self.sessions_built = 0

    # -- lookup / creation --------------------------------------------------------

    def peek(self, uid: int) -> Optional[UserSession]:
        """The resident session for ``uid`` without touching LRU order."""
        with self._lock:
            return self._sessions.get(uid)

    def get(self, uid: int) -> Optional[UserSession]:
        """The resident session for ``uid`` (LRU-touched), or ``None``."""
        with self._lock:
            session = self._sessions.get(uid)
            if session is not None:
                self._sessions.move_to_end(uid)
                self.hits += 1
            return session

    def get_or_create(self, uid: int,
                      profile: Optional[UserProfile] = None) -> UserSession:
        """Return the resident session for ``uid``, building one on miss.

        On a miss the profile comes from ``profile`` when given (the source
        for a registry without a loader), else from ``profile_loader``; a
        user with neither raises :class:`~repro.exceptions.ServingError`
        (the serving engine's "unknown user" failure mode lives in the
        server, which checks first).  A resident session is returned as it
        is — sessions are snapshots; :meth:`evict` one to replace it.
        """
        with self._lock:
            session = self.get(uid)
            if session is not None:
                return session
            self.misses += 1
            if profile is None and self.profile_loader is not None:
                profile = self.profile_loader(uid)
            if profile is None or profile.is_empty():
                raise ServingError(f"cannot build a session for uid={uid}: no profile")
            with span("sessions.build", self.db) as trace:
                trace.annotate("uid", uid)
                session = UserSession(uid, self.runner, profile)
            self._sessions[uid] = session
            self.sessions_built += 1
            self._evict_over_capacity()
            return session

    def _evict_over_capacity(self) -> None:
        while len(self._sessions) > self.capacity:
            self._sessions.popitem(last=False)
            self.evictions += 1

    def evict(self, uid: int) -> bool:
        """Explicitly evict one session (returns whether it was resident)."""
        with self._lock:
            resident = self._sessions.pop(uid, None) is not None
            self.evictions += resident
            return resident

    def drop_for_profile_update(self, uid: int) -> bool:
        """Drop ``uid``'s session because its persisted profile changed
        (returns whether it was resident); the next read rebuilds it."""
        with self._lock:
            resident = self._sessions.pop(uid, None) is not None
            self.profile_drops += resident
            return resident

    # -- data-update fan-out ------------------------------------------------------

    def invalidate_matching(self, match: RowMatch) -> int:
        """Propagate a data mutation to the shared id-list memo.

        Prunes every memoised id list whose predicate may match a mutation
        row (pre ∪ post image), through the one ``match`` the sweep built.
        Sessions hold nothing a mutation can stale: their PEPS reads the
        memo.  Returns the number of id lists dropped.
        """
        with self._lock:
            return self.runner.invalidate_matching(match)

    # -- introspection ------------------------------------------------------------

    def resident_uids(self) -> List[int]:
        """Resident user ids, least recently used first."""
        with self._lock:
            return list(self._sessions)

    def stats(self) -> Dict[str, int]:
        """Registry counters (resident count, hits, misses, drops by reason)."""
        with self._lock:
            return {
                "resident": len(self._sessions),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "profile_drops": self.profile_drops,
                "sessions_built": self.sessions_built,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, uid: int) -> bool:
        with self._lock:
            return uid in self._sessions
