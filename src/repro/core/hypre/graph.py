"""The HYPRE preference graph (paper Definition 14, Sections 4.2–4.5).

:class:`HypreGraph` stores every user's preference profile in one graph and
keeps exactly the structures the paper asks of its graph database (§4.3):

* every vertex is a preference node with a ``uid``, a ``predicate`` (SQL
  text, kept beside the parsed tree it was rendered from), an ``intensity``
  (absent until computed) and an ``intensity_source`` (``user`` /
  ``computed`` / ``default``);
* a ``uid -> node ids`` list — the paper's ``uidIndex`` — provides the
  interactive per-user lookup, and a ``(uid, predicate) -> node id`` map the
  O(1) ``createOrReturnNodeId`` of Algorithm 1;
* a quantitative preference is a node with an intensity; a qualitative
  preference is a ``PREFERS`` edge between two nodes, carrying the
  qualitative intensity;
* conflicting edges stay in the graph typed ``CYCLE`` or ``DISCARD`` and
  are excluded from traversal and from the typed degree.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ...exceptions import NodeNotFoundError
from ..intensity import validate_quantitative
from ..predicate import PredicateExpr, ensure_predicate, predicate_key

#: Edge type of a valid qualitative preference, traversed by all algorithms.
PREFERS = "PREFERS"
#: Edge type of a conflicting (cycle-creating) edge; kept, never traversed.
CYCLE = "CYCLE"
#: Edge type of an edge dropped due to incompatible intensities.
DISCARD = "DISCARD"

#: All edge types of the HYPRE graph.
HYPRE_EDGE_TYPES = (PREFERS, CYCLE, DISCARD)

#: Provenance markers for a node's ``intensity_source``.
SOURCE_USER = "user"
SOURCE_COMPUTED = "computed"
SOURCE_DEFAULT = "default"


@dataclass(frozen=True)
class Edge:
    """A directed qualitative edge ``source -> target`` (left over right)."""

    source: int
    target: int
    rel_type: str
    intensity: float

    def get(self, key: str, default: Any = None) -> Any:
        """Return the edge property ``key`` (only ``"intensity"`` exists)."""
        return self.intensity if key == "intensity" else default

    def is_self_loop(self) -> bool:
        """Return ``True`` when the edge starts and ends on the same node."""
        return self.source == self.target


class _Node:
    """One preference node with its out-edges and its typed degree.

    ``expr`` is the parsed predicate and ``predicate`` its SQL text, the
    node's identity; the preference list reads the tree, never re-parses.
    """

    __slots__ = ("uid", "expr", "predicate", "intensity", "source",
                 "out_edges", "prefers_degree")

    def __init__(self, uid: int, expr: PredicateExpr, predicate: str,
                 intensity: Optional[float], source: Optional[str]) -> None:
        self.uid = uid
        self.expr = expr
        self.predicate = predicate
        self.intensity = intensity
        self.source = source
        self.out_edges: List[Edge] = []
        self.prefers_degree = 0


class HypreGraph:
    """A store of user preference profiles as a single graph."""

    def __init__(self) -> None:
        # Node ids are dense, assigned in insertion order, never reused.
        self._nodes: List[_Node] = []
        self._edges: List[Edge] = []
        # uid -> node ids in insertion order (the paper's uidIndex).
        self._uid_index: Dict[int, List[int]] = {}
        # (uid, predicate sql) -> node id, kept for O(1) createOrReturnNodeId.
        self._node_key_index: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

    def _node(self, node_id: int) -> _Node:
        """Return the node record or raise :class:`NodeNotFoundError`."""
        if isinstance(node_id, int) and 0 <= node_id < len(self._nodes):
            return self._nodes[node_id]
        raise NodeNotFoundError(node_id)

    def _add_node(self, uid: int, expr: PredicateExpr, sql: str,
                  intensity: Optional[float] = None,
                  source: Optional[str] = None) -> int:
        """Append a node for ``expr`` (``sql`` its text, ``intensity``
        already validated) and index it."""
        node_id = len(self._nodes)
        self._nodes.append(_Node(uid, expr, sql, intensity, source))
        self._uid_index.setdefault(uid, []).append(node_id)
        self._node_key_index[(uid, sql)] = node_id
        return node_id

    def _node_for(self, uid: int, expr: PredicateExpr) -> Tuple[int, bool]:
        """``createOrReturnNodeId`` for a parsed predicate, creating the
        node without an intensity: ``(node_id, created)``."""
        sql = expr.to_sql()
        node_id = self._node_key_index.get((uid, sql))
        if node_id is not None:
            return node_id, False
        return self._add_node(uid, expr, sql), True

    def find_node_id(self, uid: int, predicate: Union[str, PredicateExpr]) -> Optional[int]:
        """Return the node id for ``(uid, predicate)`` or ``None``."""
        return self._node_key_index.get((uid, predicate_key(predicate)))

    def create_or_return_node(self,
                              uid: int,
                              predicate: Union[str, PredicateExpr],
                              intensity: Optional[float] = None,
                              source: str = SOURCE_USER) -> Tuple[int, bool]:
        """Algorithm 1's ``createOrReturnNodeId``.

        Returns ``(node_id, created)``.  When the node already exists it is
        returned untouched; intensity merging for duplicate quantitative
        preferences is handled by the builder.
        """
        expr = ensure_predicate(predicate)
        sql = expr.to_sql()
        existing = self._node_key_index.get((uid, sql))
        if existing is not None:
            return existing, False
        if intensity is None:
            return self._add_node(uid, expr, sql), True
        return self._add_node(uid, expr, sql, validate_quantitative(intensity),
                              source), True

    def add_quantitative_batch(self, uid: int,
                               entries: Iterable[Tuple[str, float]]) -> List[int]:
        """Batch-insert quantitative preference nodes (paper's 100k batches).

        ``entries`` are ``(predicate sql, intensity)`` pairs assumed to be
        unique per user (the batch path skips duplicate detection for speed,
        exactly as the paper does for Step 1 of graph creation).
        """
        validated = [(ensure_predicate(predicate), validate_quantitative(intensity))
                     for predicate, intensity in entries]
        return [self._add_node(uid, expr, expr.to_sql(), intensity, SOURCE_USER)
                for expr, intensity in validated]

    def intensity_of(self, node_id: int) -> Optional[float]:
        """Return the node's intensity or ``None`` when not yet assigned."""
        return self._node(node_id).intensity

    def set_intensity(self, node_id: int, intensity: float, source: str) -> None:
        """Assign/overwrite a node intensity, recording its provenance."""
        node = self._node(node_id)
        node.intensity = validate_quantitative(intensity)
        node.source = source

    def intensity_source(self, node_id: int) -> Optional[str]:
        """Return the provenance of the node's intensity (user/computed/default)."""
        return self._node(node_id).source

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------

    def _add_edge(self, left_id: int, right_id: int,
                  rel_type: str, intensity: float) -> Edge:
        """Insert a qualitative edge between two existing node ids."""
        left = self._nodes[left_id]
        edge = Edge(left_id, right_id, rel_type, intensity)
        self._edges.append(edge)
        left.out_edges.append(edge)
        if rel_type == PREFERS and left_id != right_id:
            left.prefers_degree += 1
            self._nodes[right_id].prefers_degree += 1
        return edge

    def _add_checked_edge(self, left_id: int, right_id: int,
                          rel_type: str, intensity: float) -> Edge:
        """:meth:`_add_edge` after checking both ids exist."""
        self._node(left_id)
        self._node(right_id)
        return self._add_edge(left_id, right_id, rel_type, intensity)

    def add_prefers_edge(self, left_id: int, right_id: int, intensity: float) -> Edge:
        """Insert a valid qualitative preference edge (``PREFERS``)."""
        return self._add_checked_edge(left_id, right_id, PREFERS, intensity)

    def add_cycle_edge(self, left_id: int, right_id: int, intensity: float) -> Edge:
        """Insert a conflicting edge that would have created a cycle."""
        return self._add_checked_edge(left_id, right_id, CYCLE, intensity)

    def add_discard_edge(self, left_id: int, right_id: int, intensity: float) -> Edge:
        """Insert an edge dropped because of incompatible intensities."""
        return self._add_checked_edge(left_id, right_id, DISCARD, intensity)

    def prefers_degree(self, node_id: int) -> int:
        """Degree of a node counting only ``PREFERS`` edges (no self loops)."""
        return self._node(node_id).prefers_degree

    def creates_cycle(self, left_id: int, right_id: int) -> bool:
        """``True`` when adding ``left -> right`` would close a PREFERS cycle.

        That is the case precisely when a ``PREFERS`` path ``right -> left``
        already exists; a node always has the trivial path to itself.
        """
        self._node(left_id)
        self._node(right_id)
        return left_id == right_id or self._reaches(right_id, left_id)

    def _reaches(self, source_id: int, target_id: int) -> bool:
        """Whether a ``PREFERS`` path of at least one edge leads from
        ``source_id`` to ``target_id`` (both ids exist)."""
        seen = {source_id}
        frontier = deque([source_id])
        while frontier:
            for edge in self._nodes[frontier.popleft()].out_edges:
                if edge.rel_type != PREFERS:
                    continue
                if edge.target == target_id:
                    return True
                if edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
        return False

    # ------------------------------------------------------------------
    # Per-user views
    # ------------------------------------------------------------------

    def user_node_ids(self, uid: int) -> List[int]:
        """All preference node ids stored for ``uid``, in insertion order."""
        return list(self._uid_index.get(uid, ()))

    def user_ids(self) -> List[int]:
        """All user ids present in the graph."""
        return sorted(self._uid_index)

    def quantitative_preferences(self, uid: int,
                                 include_negative: bool = True) -> List[Tuple[str, float]]:
        """Return ``(predicate, intensity)`` pairs for every node with a score.

        This is the CYPHER query of Section 4.3 (*all preferences for one user
        ordered descending by intensity*); negative preferences can be
        excluded since enhanced queries never add them as soft constraints.
        Equal intensities keep insertion order (every ranking depends on it).
        """
        nodes = (self._nodes[node_id] for node_id in self._uid_index.get(uid, ()))
        rows = [(node.predicate, node.intensity) for node in nodes
                if node.intensity is not None
                and (include_negative or node.intensity > 0.0)]
        rows.sort(key=lambda row: row[1], reverse=True)
        return rows

    def scored_predicates(self, uid: int, include_negative: bool = True
                          ) -> List[Tuple[PredicateExpr, float]]:
        """:meth:`quantitative_preferences` with the nodes' parsed trees
        instead of their SQL text, in the algorithms' preference order
        (:func:`~repro.index.pair_index.preference_sort_key`: descending
        intensity, ties by SQL text)."""
        nodes = (self._nodes[node_id] for node_id in self._uid_index.get(uid, ()))
        ranked = sorted((-node.intensity, node.predicate, node.expr)
                        for node in nodes
                        if node.intensity is not None
                        and (include_negative or node.intensity > 0.0))
        return [(expr, -negated) for negated, _, expr in ranked]

    def qualitative_edges(self, uid: int,
                          rel_types: Tuple[str, ...] = (PREFERS,)) -> List[Edge]:
        """All qualitative edges between this user's nodes (default: valid ones).

        Specified order: by source node id, then in the order the edges were
        inserted.  Self loops are left out.
        """
        return [edge
                for node_id in self._uid_index.get(uid, ())
                for edge in self._nodes[node_id].out_edges
                if edge.rel_type in rel_types
                and not edge.is_self_loop()
                and self._nodes[edge.target].uid == uid]

    def user_subgraph_stats(self, uid: int) -> Dict[str, int]:
        """Node/edge counts for one user's profile subgraph."""
        node_ids = self._uid_index.get(uid, ())
        with_intensity = sum(
            1 for node_id in node_ids
            if self._nodes[node_id].intensity is not None)
        counts = {"nodes": len(node_ids), "nodes_with_intensity": with_intensity}
        for rel_type in HYPRE_EDGE_TYPES:
            counts[f"edges[{rel_type}]"] = len(self.qualitative_edges(uid, (rel_type,)))
        return counts

    # ------------------------------------------------------------------
    # Whole-graph statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Graph-wide node and edge counts, with one entry per edge type in use."""
        summary = {"nodes": len(self._nodes), "edges": len(self._edges)}
        for rel_type, count in sorted(Counter(
                edge.rel_type for edge in self._edges).items()):
            summary[f"edges[{rel_type}]"] = count
        return summary

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HypreGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"
