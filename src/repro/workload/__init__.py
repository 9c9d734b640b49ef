"""Synthetic DBLP workload: generation, loading and preference extraction.

Public API
----------
Generation (:mod:`repro.workload.dblp`)
    :class:`DblpConfig` — generator knobs (paper/author/venue counts, seed).
    :class:`DblpDataset` / :class:`Paper` / :class:`Author` — the generated
    citation network.
    :func:`generate_dblp` — deterministic synthetic DBLP generator (§6.1).
    :func:`default_dataset` / :func:`small_dataset` — preset scales.
    :func:`dataset_digest` — the canonical content hash of a dataset.

Loading (:mod:`repro.workload.loader`)
    :func:`load_dataset` — dataset → SQLite workload tables.
    :func:`append_papers` / :func:`delete_papers` / :func:`update_papers` —
    the full data-side mutation spectrum; each commits and then notifies
    the database's :class:`~repro.sqldb.events.DataMutation` subscribers
    with pre-/post-image joined rows (the serving layer's update path).
    :func:`load_profiles` / :func:`read_profiles` — preference staging
    tables round-trip; :func:`profile_rows` — one user's staged rows as
    plain tuples (what a serving cold read builds from).
    :func:`build_workload_database` — generate + load in one call.

Extraction (:mod:`repro.workload.extraction`)
    :class:`ExtractionConfig` — thresholds for mining preferences.
    :class:`PreferenceExtractor` — citation behaviour → user profiles (§6.2).
    :func:`venue_predicate` / :func:`author_predicate` — predicate shapes.
    :func:`richest_users` — users ordered by preference count (Fig. 17).
"""

from .dblp import (
    Author,
    DblpConfig,
    DblpDataset,
    Paper,
    dataset_digest,
    default_dataset,
    generate_dblp,
    small_dataset,
)
from .extraction import (
    ExtractionConfig,
    PreferenceExtractor,
    author_predicate,
    richest_users,
    venue_predicate,
)
from .loader import (
    append_papers,
    build_workload_database,
    delete_papers,
    load_dataset,
    load_profiles,
    profile_rows,
    read_profiles,
    update_papers,
)

__all__ = [
    "Author",
    "DblpConfig",
    "DblpDataset",
    "ExtractionConfig",
    "Paper",
    "PreferenceExtractor",
    "append_papers",
    "author_predicate",
    "build_workload_database",
    "dataset_digest",
    "default_dataset",
    "delete_papers",
    "generate_dblp",
    "load_dataset",
    "load_profiles",
    "profile_rows",
    "read_profiles",
    "update_papers",
    "richest_users",
    "small_dataset",
    "venue_predicate",
]
