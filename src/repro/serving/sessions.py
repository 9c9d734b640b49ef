"""Per-user serving sessions behind a capacity-bounded LRU registry.

A :class:`UserSession` is the resident state the serving engine keeps for one
user between requests: the user's HYPRE graph (built by a dedicated
:class:`~repro.core.hypre.builder.HypreGraphBuilder`), an
:class:`~repro.index.IncrementalPairIndex` subscribed to that graph's
mutation events, and the most recent :class:`~repro.algorithms.peps.PEPSAlgorithm`
instance wired to both.  Sessions never own a count store — every session
shares the registry's one :class:`~repro.index.CountCache` (through a shared
:class:`~repro.algorithms.base.PreferenceQueryRunner`), so predicate counts
learned while serving one user are reused for every other user whose profile
mentions the same predicate.

:class:`SessionRegistry` bounds how many sessions stay resident: it is an LRU
keyed by uid with eviction statistics, guarded by its own re-entrant lock so
the registry stays consistent even for callers that bypass the server's big
lock (and so the load harness can wrap the lock and report its contention).  Eviction is safe because profiles are
persisted in the relational staging tables — an evicted user's next request
rebuilds the session from :func:`~repro.workload.loader.read_profiles` (the
server wires that loader in), paying the build cost again but never losing
preferences.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..algorithms.base import PreferenceQueryRunner, preferences_from_graph
from ..algorithms.peps import PEPSAlgorithm
from ..backend.protocol import StorageBackend
from ..core.hypre.builder import BuildReport, HypreGraphBuilder
from ..core.hypre.events import GraphMutation
from ..core.preference import UserProfile
from ..exceptions import ServingError
from ..index import CountCache, IncrementalPairIndex, RowMatch
from ..telemetry import span

ProfileLoader = Callable[[int], Optional[UserProfile]]
MutationListener = Callable[[GraphMutation], None]


class UserSession:
    """One user's resident serving state (graph + pair index + PEPS)."""

    def __init__(self, uid: int, runner: PreferenceQueryRunner) -> None:
        self.uid = uid
        self.runner = runner
        self.builder = HypreGraphBuilder()
        self.index = IncrementalPairIndex(runner)
        self._peps: Optional[PEPSAlgorithm] = None
        #: Number of profile updates applied since the session was created.
        self.profile_updates = 0
        #: Number of Top-K computations served by this session.
        self.queries_served = 0

    @property
    def hypre(self):
        """The session's HYPRE graph (one user's profile subgraph)."""
        return self.builder.hypre

    def apply_profile(self, profile: UserProfile) -> BuildReport:
        """Fold ``profile``'s preferences into the session graph.

        The builder emits :class:`GraphMutation` events while inserting, so
        the pair index dirties exactly the affected predicates and any
        subscribed result cache invalidates this user's entries.
        """
        if profile.uid != self.uid:
            raise ServingError(
                f"profile for uid={profile.uid} applied to session uid={self.uid}")
        report = self.builder.build_profile(profile)
        self.profile_updates += 1
        return report

    def algorithm(self, **peps_kwargs) -> PEPSAlgorithm:
        """The session's PEPS instance, rebuilt only when the index is stale.

        A PEPS instance captures the preference list positionally, so it must
        be replaced whenever the pair index absorbed mutations (profile
        events or data-update invalidation); between mutations the same
        instance serves every request.
        """
        if self._peps is None or self.index.stale:
            if self.index.hypre is not self.hypre or self.index.uid != self.uid:
                self.index.attach(
                    self.hypre, self.uid,
                    loader=lambda: preferences_from_graph(self.hypre, self.uid))
            self._peps = PEPSAlgorithm.for_graph_user(
                self.runner, self.hypre, self.uid,
                pair_index=self.index, **peps_kwargs)
        return self._peps

    def top_k(self, k: int) -> List:
        """Compute the Top-K answer for this session's user."""
        self.queries_served += 1
        return self.algorithm().top_k(k)

    def top_k_buffer(self, k: int, delta: int = 0):
        """Compute the over-fetched ``(buffer, complete)`` answer (see
        :meth:`~repro.algorithms.peps.PEPSAlgorithm.top_k_buffer`) — the
        serving engine caches the buffer so data mutations can repair the
        answer in place."""
        self.queries_served += 1
        return self.algorithm().top_k_buffer(k, delta)

    def preference_count(self) -> int:
        """Number of algorithm-usable (positive quantitative) preferences."""
        return len(preferences_from_graph(self.hypre, self.uid))

    def close(self) -> None:
        """Detach the pair index from the graph (called on eviction)."""
        self.index.detach()
        self._peps = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"UserSession(uid={self.uid}, updates={self.profile_updates}, "
                f"queries={self.queries_served})")


class SessionRegistry:
    """Capacity-bounded LRU of :class:`UserSession` objects sharing one cache.

    ``capacity`` bounds the number of *resident* sessions; the least recently
    used session is evicted (its index detached) when a new user arrives at
    capacity.  ``profile_loader`` reconstructs a session's profile from
    persistent storage on a registry miss — the server passes the staging
    tables' :func:`~repro.workload.loader.read_profiles` reader.

    The registry itself never persists anything: eviction only loses no
    preferences when every profile handed to :meth:`get_or_create` (or to
    :meth:`UserSession.apply_profile`) is *also* stored where
    ``profile_loader`` will find it again — which is exactly what
    :meth:`~repro.serving.server.TopKServer.update_profile` guarantees by
    writing the staging tables before touching the session.  Callers using
    the registry directly with ad-hoc profiles and no loader must treat an
    evicted session's preferences as gone.
    """

    def __init__(self, db: StorageBackend,
                 capacity: int = 64,
                 count_cache: Optional[CountCache] = None,
                 profile_loader: Optional[ProfileLoader] = None) -> None:
        if capacity < 1:
            raise ServingError("session capacity must be at least 1")
        self.db = db
        self.capacity = capacity
        self.count_cache = count_cache if count_cache is not None else CountCache(db)
        #: One shared runner: every session's counts and id lists flow through
        #: the same memo stores, so sessions reuse each other's work.
        self.runner = PreferenceQueryRunner(db, count_cache=self.count_cache)
        self.profile_loader = profile_loader
        # Guards the LRU dict, the listener list and the counters; the
        # server's big lock sits strictly outside it (see lock ordering in
        # :mod:`repro.concurrency`).
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[int, UserSession]" = OrderedDict()
        self._graph_listeners: List[MutationListener] = []
        #: Registry statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.sessions_built = 0

    # -- graph-event fan-in -------------------------------------------------------

    def add_graph_listener(self, listener: MutationListener) -> MutationListener:
        """Subscribe ``listener`` to every session graph (current and future).

        This is how the result cache observes profile mutations across all
        resident users without knowing about sessions.
        """
        with self._lock:
            self._graph_listeners.append(listener)
            for session in self._sessions.values():
                session.hypre.subscribe(listener)
            return listener

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

        On a miss the profile comes from ``profile`` when given, else from
        ``profile_loader``; a user with neither raises
        :class:`~repro.exceptions.ServingError` (the serving engine's
        "unknown user" failure mode lives in the server, which checks first).
        """
        with self._lock:
            session = self.get(uid)
            if session is not None:
                if profile is not None:
                    session.apply_profile(profile)
                return session
            self.misses += 1
            if profile is None and self.profile_loader is not None:
                profile = self.profile_loader(uid)
            if profile is None or profile.is_empty():
                raise ServingError(f"cannot build a session for uid={uid}: no profile")
            with span("sessions.build", self.db) as trace:
                trace.annotate("uid", uid)
                session = UserSession(uid, self.runner)
                for listener in self._graph_listeners:
                    session.hypre.subscribe(listener)
                session.apply_profile(profile)
            self._sessions[uid] = session
            self.sessions_built += 1
            self._evict_over_capacity()
            return session

    def _evict_over_capacity(self) -> None:
        while len(self._sessions) > self.capacity:
            _, session = self._sessions.popitem(last=False)
            session.close()
            self.evictions += 1

    def evict(self, uid: int) -> bool:
        """Explicitly evict one session (returns whether it was resident)."""
        with self._lock:
            session = self._sessions.pop(uid, None)
            if session is None:
                return False
            session.close()
            self.evictions += 1
            return True

    # -- data-update fan-out ------------------------------------------------------

    def invalidate_matching(self, match: RowMatch) -> int:
        """Propagate a data mutation to every resident session's pair index.

        The shared runner (count cache + id lists) is invalidated once, then
        each resident index drops the pair counts the mutation rows (pre ∪
        post image) may affect — all through the one ``match`` the sweep
        built, so a predicate many sessions share is judged once.  Returns
        the total number of cache entries dropped.
        """
        with self._lock:
            dropped = self.runner.invalidate_matching(match)
            for session in self._sessions.values():
                dropped += session.index.invalidate_matching(match)
            return dropped

    # -- introspection ------------------------------------------------------------

    def resident_uids(self) -> List[int]:
        """Resident user ids, least recently used first."""
        with self._lock:
            return list(self._sessions)

    def stats(self) -> Dict[str, int]:
        """Registry counters (resident count, hits, misses, evictions)."""
        with self._lock:
            return {
                "resident": len(self._sessions),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "sessions_built": self.sessions_built,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, uid: int) -> bool:
        with self._lock:
            return uid in self._sessions
