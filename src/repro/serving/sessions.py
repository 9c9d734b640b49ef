"""What a cold read builds: one user's PEPS over the persisted profile.

Serving keeps no per-user state between requests.  A cold read asks
:meth:`SessionRegistry.get_or_create`, which reads the user's staged rows as
plain tuples (:func:`~repro.workload.loader.profile_rows`), builds its HYPRE
graph from them in one pass with
:meth:`~repro.core.hypre.builder.HypreGraphBuilder.build_rows` — Algorithm
1's one body, which the oracles' ``build_profile`` adapts to (all
quantitative rows, then all qualitative ones) — keeps the build's
:class:`~repro.core.hypre.builder.BuildOutline`, and returns one
:class:`~repro.algorithms.peps.PEPSAlgorithm` over the outline's positive
preferences (the graph's, in the algorithms' order), with the outline.  The
server keeps the answer and the outline, not the build: a profile update is
*persist, outdate; the next read repairs* — the outdated answer is kept as a
repair basis with the rows the update staged — and the read after it
extends the basis's outline by those rows (:meth:`BuildOutline.extend
<repro.core.hypre.builder.BuildOutline.extend>`) instead of reading the
profile and building the graph, whenever that is exact; otherwise it builds
as a cold read does, counted by the reason.  Nothing but the staging tables
and what the updates staged says what a user prefers
(``docs/ARCHITECTURE.md``, "Why no session is resident").

Every build reads its id lists through the registry's one shared
:class:`~repro.algorithms.base.PreferenceQueryRunner`, so an id list fetched
while serving one user is reused for every later read whose profile
mentions the same predicate.  A data mutation's sweep maintains that memo
through :meth:`SessionRegistry.invalidate_matching`, from its one
:class:`~repro.index.RowMatch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from ..algorithms.base import PreferenceQueryRunner, ScoredPreference
from ..algorithms.peps import PEPSAlgorithm
from ..backend.protocol import StorageBackend
from ..core.hypre.builder import (EXTENSION_FALLBACKS, BuildOutline,
                                  HypreGraphBuilder)
from ..exceptions import UnknownUserError
from ..index import RowMatch
from ..telemetry import annotate
from ..workload.loader import profile_rows

if TYPE_CHECKING:
    from .results import CachedResult


class Build(NamedTuple):
    """What :meth:`SessionRegistry.get_or_create` returns."""

    #: The PEPS over the user's positive preferences, or ``None`` when the
    #: user has none.
    peps: Optional[PEPSAlgorithm]
    #: The build's outline, for the answer to keep.
    outline: BuildOutline


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
        #: Written only by the server-lock holder; ``stats`` reads the ints.
        self.sessions_built = 0
        #: Reads that extended their basis's outline instead of building /
        #: reads with an outline that built anyway, by reason.
        self.profile_extensions = 0
        self.profile_extension_fallbacks = dict.fromkeys(EXTENSION_FALLBACKS, 0)

    def get_or_create(self, uid: int,
                      basis: Optional["CachedResult"] = None) -> Build:
        """Build ``uid``'s PEPS: from ``basis``'s outline when that is
        exact, else from the persisted profile.

        ``basis`` is the answer a profile update outdated
        (:meth:`~repro.serving.results.ResultCache.take_basis`).  When it
        keeps an outline, the rows staged since extend it
        (:meth:`~repro.core.hypre.builder.BuildOutline.extend`): no profile
        row is read and no graph built, counted in ``profile_extensions``.
        When the extension is not exact, or there is no outline, the read
        builds from the staged rows (counted in ``sessions_built``; a
        fallback also in ``profile_extension_fallbacks[reason]``).  The
        span is annotated ``built=outline`` or ``built=graph``.

        The PEPS is ``None`` for a known user whose build holds no positive
        preference (PEPS ranks nothing for them); a user with no stored
        preference raises :class:`~repro.exceptions.UnknownUserError`.
        """
        outline = None if basis is None else basis.outline
        if outline is not None:
            extended, reason = outline.extend(*basis.staged)
            if extended is not None:
                self.profile_extensions += 1
                annotate("built", "outline")
                return self._build(extended)
            self.profile_extension_fallbacks[reason] += 1
            annotate("extension_fallback", reason)
        quantitative, qualitative = profile_rows(self.db, uid)
        if not quantitative and not qualitative:
            raise UnknownUserError(uid)
        builder = HypreGraphBuilder()
        report = builder.build_rows(uid, quantitative, qualitative)
        self.sessions_built += 1
        annotate("built", "graph")
        return self._build(BuildOutline.of(builder.hypre, uid, report))

    def _build(self, outline: BuildOutline) -> Build:
        """The PEPS over ``outline``'s positive preferences, and the
        outline."""
        preferences = [ScoredPreference(expr, intensity)
                       for expr, intensity in outline.preferences()]
        return Build(PEPSAlgorithm(self.runner, preferences)
                     if preferences else None, outline)

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
        ``profile_extensions`` counts the reads that extended an outline
        instead, ``profile_extension_fallbacks.<reason>`` the reads with an
        outline that built anyway.  ``id_lists_patched`` /
        ``id_lists_dropped`` count the stale id lists every sweep so far
        patched or dropped; a forgetting server keeps them."""
        built = self.sessions_built
        return {"hits": 0, "misses": built, "evictions": 0,
                "sessions_built": built,
                "profile_extensions": self.profile_extensions,
                **{f"profile_extension_fallbacks.{reason}": count
                   for reason, count
                   in self.profile_extension_fallbacks.items()},
                "id_lists_patched": self.runner.id_lists_patched,
                "id_lists_dropped": self.runner.id_lists_dropped}
