"""What a cold read builds: one user's PEPS over the persisted profile.

Serving keeps no per-user state between requests.  A cold read asks
:meth:`SessionRegistry.get_or_create`, which reads the user's profile from the
relational staging tables (:func:`~repro.workload.loader.read_profiles`),
builds its HYPRE graph with the same
:meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_profile` the oracles
use (all quantitative preferences, then all qualitative ones), and returns
one :class:`~repro.algorithms.peps.PEPSAlgorithm` over the graph's positive
preferences.  The server keeps the answer, not the build: a profile update
is *persist, invalidate*, and nothing but the staging tables says what a
user prefers (``docs/ARCHITECTURE.md``, "Why no session is resident").

Every build reads its id lists through the registry's one shared
:class:`~repro.algorithms.base.PreferenceQueryRunner`, so an id list fetched
while serving one user is reused for every later read whose profile
mentions the same predicate.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..algorithms.base import PreferenceQueryRunner, preferences_from_graph
from ..algorithms.peps import PEPSAlgorithm
from ..backend.protocol import StorageBackend
from ..core.hypre.builder import HypreGraphBuilder
from ..exceptions import UnknownUserError
from ..index import RowMatch
from ..workload.loader import read_profiles


class SessionRegistry:
    """The cold read's build path and the id-list memo every build shares.

    The name predates the build-per-read design; it stays, like
    :meth:`get_or_create`'s, because the end-to-end benchmark's tracer wraps
    both methods by name.
    """

    def __init__(self, db: StorageBackend) -> None:
        self.db = db
        #: One shared runner: every build's id lists flow through its memo.
        self.runner = PreferenceQueryRunner(db)
        # Guards the counter ``stats`` reads from other threads; the server's
        # lock sits strictly outside it (see :mod:`repro.concurrency`).
        self._lock = threading.RLock()
        self.sessions_built = 0

    def get_or_create(self, uid: int) -> Optional[PEPSAlgorithm]:
        """Build ``uid``'s PEPS from the persisted profile.

        Returns ``None`` for a known user whose graph holds no positive
        preference (PEPS ranks nothing for them) and raises
        :class:`~repro.exceptions.UnknownUserError` for a user with no
        stored preference.
        """
        profiles = read_profiles(self.db, [uid])
        if uid not in profiles:
            raise UnknownUserError(uid)
        builder = HypreGraphBuilder()
        builder.build_profile(profiles.get(uid))
        with self._lock:
            self.sessions_built += 1
        preferences = preferences_from_graph(builder.hypre, uid)
        return PEPSAlgorithm(self.runner, preferences) if preferences else None

    def invalidate_matching(self, match: RowMatch) -> int:
        """Prune every memoised id list whose predicate may match a mutation
        row (pre ∪ post image), through the one ``match`` the sweep built.
        Returns the number of id lists dropped."""
        return self.runner.invalidate_matching(match)

    def stats(self) -> Dict[str, int]:
        """Build counters.  Nothing is resident, so nothing hits or is
        evicted: ``hits`` and ``evictions`` stay 0 and ``misses`` equals
        ``sessions_built`` — the end-to-end report reads all four."""
        with self._lock:
            built = self.sessions_built
        return {"hits": 0, "misses": built, "evictions": 0,
                "sessions_built": built}
