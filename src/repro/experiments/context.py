"""Shared experiment context.

Every table/figure reproduction needs the same expensive setup: generate the
synthetic DBLP workload, load it into a storage backend, extract preference
profiles, and build the HYPRE graph.  :class:`ExperimentContext` performs
that setup once and exposes the pieces the individual experiments consume;
the module keeps a small cache keyed by scale so the benchmark suite does
not rebuild the world for every benchmark.  The workload lives in SQLite
(:class:`~repro.sqldb.database.Database`), the substrate the paper's
prototype issued its SQL against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..algorithms.base import PreferenceQueryRunner, ScoredPreference, preferences_from_graph
from ..core.hypre import BuildReport, HypreGraph, HypreGraphBuilder
from ..core.preference import ProfileRegistry
from ..index import CountCache
from ..sqldb.database import Database
from ..workload.dblp import DblpConfig, DblpDataset, generate_dblp
from ..workload.extraction import ExtractionConfig, PreferenceExtractor, richest_users
from ..workload.loader import load_dataset, load_profiles

#: Named scales for the synthetic workload.
SCALES: Dict[str, DblpConfig] = {
    "tiny": DblpConfig(n_papers=300, n_authors=120, n_venues=12, seed=7),
    "small": DblpConfig(n_papers=800, n_authors=250, n_venues=18, seed=11),
    "default": DblpConfig(seed=42),
    "large": DblpConfig(n_papers=6000, n_authors=1500, n_venues=32, seed=42),
}


@dataclass
class ExperimentContext:
    """Everything a figure/table reproduction needs, built once."""

    config: DblpConfig
    dataset: DblpDataset
    db: Database
    extractor: PreferenceExtractor
    registry: ProfileRegistry
    hypre: HypreGraph
    build_report: BuildReport
    focus_users: List[int]
    count_cache: CountCache = field(init=False)
    runner: PreferenceQueryRunner = field(init=False)

    def __post_init__(self) -> None:
        # One count store shared by every algorithm and pair index built on
        # this context — PEPS, Combine-Two, Partially-Combine-All and TA all
        # reuse each other's predicate counts.
        self.count_cache = CountCache(self.db)
        self.runner = PreferenceQueryRunner(self.db, count_cache=self.count_cache)

    # -- factory ----------------------------------------------------------------

    @classmethod
    def create(cls,
               scale: str = "small",
               config: Optional[DblpConfig] = None,
               extraction: ExtractionConfig = ExtractionConfig(),
               profile_users: Optional[int] = 40,
               focus_count: int = 2) -> "ExperimentContext":
        """Build the workload, profiles and HYPRE graph for one scale.

        ``profile_users`` limits how many of the extracted profiles are loaded
        into the graph (the most preference-rich ones are kept); ``None``
        loads every author's profile, which is what the population-level
        figures (17, Table 10/11) use.
        """
        if config is None:
            if scale not in SCALES:
                raise ValueError(f"unknown scale {scale!r}; pick one of {sorted(SCALES)}")
            config = SCALES[scale]
        dataset = generate_dblp(config)
        db = Database()
        load_dataset(db, dataset)

        extractor = PreferenceExtractor(dataset, extraction)
        registry = extractor.extract_all()
        focus = richest_users(registry, count=max(focus_count, 1))

        selected = registry
        if profile_users is not None:
            keep = set(richest_users(registry, count=profile_users)) | set(focus)
            selected = ProfileRegistry()
            for profile in registry:
                if profile.uid in keep:
                    selected.add(profile)

        load_profiles(db, selected)
        builder = HypreGraphBuilder()
        report = builder.build_registry(selected)

        return cls(config=config, dataset=dataset, db=db, extractor=extractor,
                   registry=selected, hypre=builder.hypre, build_report=report,
                   focus_users=focus)

    # -- per-user helpers ---------------------------------------------------------

    def preferences(self, uid: int, positive_only: bool = True) -> List[ScoredPreference]:
        """Ordered algorithm-ready preference list for ``uid`` from the graph."""
        return preferences_from_graph(self.hypre, uid, positive_only=positive_only)

    def profile(self, uid: int):
        """The raw extracted profile for ``uid``."""
        return self.registry.get(uid)

    def total_papers(self) -> int:
        """Number of papers in the workload database."""
        return self.db.total_papers()

    def close(self) -> None:
        """Release the storage backend."""
        self.db.close()


_CACHE: Dict[str, ExperimentContext] = {}


def get_context(scale: str = "small") -> ExperimentContext:
    """Return a cached :class:`ExperimentContext` for ``scale`` (build on miss)."""
    if scale not in _CACHE:
        _CACHE[scale] = ExperimentContext.create(scale=scale)
    return _CACHE[scale]


def clear_cache() -> None:
    """Drop all cached contexts (closing their databases)."""
    for context in _CACHE.values():
        context.close()
    _CACHE.clear()
