"""What a cold read builds: one user's PEPS over the persisted profile.

Serving keeps no per-user state between requests.  A cold read asks
:meth:`SessionRegistry.get_or_create`, which reads the user's staged rows as
plain tuples (:func:`~repro.workload.loader.profile_rows`), builds its HYPRE
graph from them in one pass with
:meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_rows` — Algorithm
1's one body, which the oracles' ``build_profile`` adapts to (all
quantitative rows, then all qualitative ones) — and returns one
:class:`~repro.algorithms.peps.PEPSAlgorithm` over the graph's positive
preferences.  The server keeps the answer, not the build: a profile update
is *persist, outdate; the next read repairs* — the outdated answer is kept
as a repair basis, never a graph — and nothing but the staging tables says
what a user prefers (``docs/ARCHITECTURE.md``, "Why no session is
resident").

Every build reads its id lists through the registry's one shared
:class:`~repro.algorithms.base.PreferenceQueryRunner`, so an id list fetched
while serving one user is reused for every later read whose profile
mentions the same predicate.  A data mutation's sweep maintains that memo
through :meth:`SessionRegistry.invalidate_matching`, from its one
:class:`~repro.index.RowMatch`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..algorithms.base import PreferenceQueryRunner, preferences_from_graph
from ..algorithms.peps import PEPSAlgorithm
from ..backend.protocol import StorageBackend
from ..core.hypre.builder import HypreGraphBuilder
from ..exceptions import UnknownUserError
from ..index import RowMatch
from ..workload.loader import profile_rows


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
        #: Written only by the server-lock holder; ``stats`` reads the int.
        self.sessions_built = 0

    def get_or_create(self, uid: int) -> Optional[PEPSAlgorithm]:
        """Build ``uid``'s PEPS from the persisted profile.

        Returns ``None`` for a known user whose graph holds no positive
        preference (PEPS ranks nothing for them) and raises
        :class:`~repro.exceptions.UnknownUserError` for a user with no
        stored preference.
        """
        quantitative, qualitative = profile_rows(self.db, uid)
        if not quantitative and not qualitative:
            raise UnknownUserError(uid)
        builder = HypreGraphBuilder()
        builder.build_rows(uid, quantitative, qualitative)
        self.sessions_built += 1
        preferences = preferences_from_graph(builder.hypre, uid)
        return PEPSAlgorithm(self.runner, preferences) if preferences else None

    def invalidate_matching(self, match: RowMatch) -> Dict[str, int]:
        """Patch every memoised id list a row of the sweep's ``match`` may
        match, dropping one only on an undecidable post row; returns the
        memo's share of the sweep's impact (see
        :meth:`~repro.algorithms.base.PreferenceQueryRunner.invalidate_matching`)."""
        return self.runner.invalidate_matching(match)

    def stats(self) -> Dict[str, int]:
        """Build and memo counters.  Nothing is resident, so nothing hits or
        is evicted: ``hits`` and ``evictions`` stay 0 and ``misses`` equals
        ``sessions_built`` — the end-to-end report reads all four.
        ``id_lists_patched`` / ``id_lists_dropped`` count the stale id lists
        every sweep so far patched or dropped; a forgetting server keeps
        them."""
        built = self.sessions_built
        return {"hits": 0, "misses": built, "evictions": 0,
                "sessions_built": built,
                "id_lists_patched": self.runner.id_lists_patched,
                "id_lists_dropped": self.runner.id_lists_dropped}
