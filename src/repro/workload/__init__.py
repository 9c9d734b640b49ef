"""Synthetic DBLP workload: generation, loading and preference extraction.

Public API
----------
Generation (:mod:`repro.workload.dblp`)
    :class:`DblpConfig` — generator knobs (paper/author/venue counts, seed).
    :class:`DblpDataset` / :class:`Paper` / :class:`Author` — the generated
    citation network.
    :func:`generate_dblp` — deterministic synthetic DBLP generator (§6.1).
    :func:`default_dataset` / :func:`small_dataset` — preset scales.

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

Synthetic family (:mod:`repro.workload.synthetic`)
    :class:`SyntheticConfig` / :class:`AttributeSpec` — schema width, value
    skew, correlation and cardinality knobs of the second workload family.
    :func:`generate_synthetic` — the deterministic parametric generator
    (emits an ordinary :class:`DblpDataset`, so every front door applies).
    :func:`generate_workload` — config-type dispatch across families.
    :func:`attribute_specs` / :func:`attribute_values` — the deterministic
    attribute domains (predicates derive from the config alone).
    :func:`validate_dataset` / :func:`dataset_digest` — generator
    invariants and the canonical content hash.
    :func:`synthetic_profile_factory` — replay profiles exercising the
    extra attributes; ``SYNTHETIC_SCALES`` the CLI preset scales.
"""

from .dblp import (
    Author,
    DblpConfig,
    DblpDataset,
    Paper,
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
from .synthetic import (
    SYNTHETIC_SCALES,
    AttributeSpec,
    SyntheticConfig,
    attribute_specs,
    attribute_values,
    dataset_digest,
    generate_synthetic,
    generate_workload,
    synthetic_profile_factory,
    validate_dataset,
)

__all__ = [
    "Author",
    "AttributeSpec",
    "DblpConfig",
    "DblpDataset",
    "ExtractionConfig",
    "Paper",
    "PreferenceExtractor",
    "SYNTHETIC_SCALES",
    "SyntheticConfig",
    "append_papers",
    "attribute_specs",
    "attribute_values",
    "author_predicate",
    "build_workload_database",
    "dataset_digest",
    "default_dataset",
    "delete_papers",
    "generate_dblp",
    "generate_synthetic",
    "generate_workload",
    "load_dataset",
    "load_profiles",
    "profile_rows",
    "read_profiles",
    "synthetic_profile_factory",
    "update_papers",
    "richest_users",
    "small_dataset",
    "validate_dataset",
    "venue_predicate",
]
