"""HYPRE preference graph: model, conflict handling and construction.

Public API
----------
:class:`HypreGraph`
    The unified preference graph (Definition 14).  ``UID_INDEX_LABEL``
    names the indexed node label;
    ``SOURCE_USER`` / ``SOURCE_COMPUTED`` / ``SOURCE_DEFAULT`` record
    intensity provenance.
:class:`HypreGraphBuilder` / :func:`build_hypre_graph`
    Algorithm 1 — turn profiles into graph nodes and edges.
:class:`BuildReport`
    Counters and timings collected while building (Table 11 / Fig. 13).
:class:`DefaultValueStrategy` / :func:`default_value_table`
    DEFAULT_VALUE seeding policies and their Table 12 comparison.
:class:`ConflictKind` / :class:`ConflictReport` / :func:`check_conflict` /
:func:`classify_edge`
    §6.2.3 conflict detection for qualitative edge insertion.
"""

from .builder import BuildReport, HypreGraphBuilder, build_hypre_graph
from .conflict import ConflictKind, ConflictReport, check_conflict, classify_edge
from .defaults import DefaultValueStrategy, default_value_table
from .graph import (
    SOURCE_COMPUTED,
    SOURCE_DEFAULT,
    SOURCE_USER,
    UID_INDEX_LABEL,
    HypreGraph,
)

__all__ = [
    "BuildReport",
    "ConflictKind",
    "ConflictReport",
    "DefaultValueStrategy",
    "HypreGraph",
    "HypreGraphBuilder",
    "SOURCE_COMPUTED",
    "SOURCE_DEFAULT",
    "SOURCE_USER",
    "UID_INDEX_LABEL",
    "build_hypre_graph",
    "check_conflict",
    "classify_edge",
    "default_value_table",
]
