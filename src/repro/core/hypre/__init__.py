"""HYPRE preference graph: model, conflict handling and construction.

Public API
----------
:class:`HypreGraph`
    The unified preference graph (Definition 14): nodes, typed edges, the
    per-user ``uidIndex`` lookup, typed degree and cycle check of §4.3.
    ``SOURCE_USER`` / ``SOURCE_COMPUTED`` / ``SOURCE_DEFAULT`` record
    intensity provenance.
``PREFERS`` / ``CYCLE`` / ``DISCARD`` / ``HYPRE_EDGE_TYPES``
    Types of the qualitative edges (:class:`Edge`) the graph returns.
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
    CYCLE,
    DISCARD,
    HYPRE_EDGE_TYPES,
    PREFERS,
    SOURCE_COMPUTED,
    SOURCE_DEFAULT,
    SOURCE_USER,
    Edge,
    HypreGraph,
)

__all__ = [
    "BuildReport",
    "CYCLE",
    "ConflictKind",
    "ConflictReport",
    "DISCARD",
    "DefaultValueStrategy",
    "Edge",
    "HYPRE_EDGE_TYPES",
    "HypreGraph",
    "HypreGraphBuilder",
    "PREFERS",
    "SOURCE_COMPUTED",
    "SOURCE_DEFAULT",
    "SOURCE_USER",
    "build_hypre_graph",
    "check_conflict",
    "classify_edge",
    "default_value_table",
]
