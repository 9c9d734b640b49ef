"""The HYPRE preference graph (paper Definition 14, Sections 4.2–4.5).

:class:`HypreGraph` wraps the generic :class:`~repro.graphstore.graph.PropertyGraph`
with preference semantics:

* every vertex is a preference node with properties ``uid``, ``predicate``
  (SQL text), ``intensity`` (may be absent until computed) and
  ``intensity_source`` (``user`` / ``computed`` / ``default``);
* all nodes carry the ``uidIndex`` label and an index on ``uid`` provides the
  interactive per-user lookup described in Section 4.3;
* a quantitative preference is a node with an intensity; a qualitative
  preference is a ``PREFERS`` edge between two nodes, carrying the
  qualitative intensity as an edge property;
* conflicting edges stay in the graph labelled ``CYCLE`` or ``DISCARD`` and
  are excluded from traversal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ...exceptions import NodeNotFoundError
from ...graphstore import CYCLE, DISCARD, PREFERS, Edge, Node, NodeQuery, PropertyGraph
from ..intensity import validate_quantitative
from ..predicate import PredicateExpr, ensure_predicate, predicate_key

#: Label carried by every preference node; also the indexed label.
UID_INDEX_LABEL = "uidIndex"

#: Provenance markers for the ``intensity_source`` node property.
SOURCE_USER = "user"
SOURCE_COMPUTED = "computed"
SOURCE_DEFAULT = "default"


class HypreGraph:
    """A store of user preference profiles as a single property graph."""

    def __init__(self, graph: Optional[PropertyGraph] = None) -> None:
        self.graph = graph if graph is not None else PropertyGraph()
        if not self.graph.has_index(UID_INDEX_LABEL, "uid"):
            self.graph.create_index(UID_INDEX_LABEL, "uid")
        # (uid, predicate sql) -> node id, kept for O(1) createOrReturnNodeId.
        self._node_key_index: Dict[Tuple[int, str], int] = {}
        for node in self.graph.nodes():
            if node.has_label(UID_INDEX_LABEL):
                key = (node.get("uid"), node.get("predicate"))
                self._node_key_index[key] = node.node_id

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

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
        sql = predicate_key(predicate)
        existing = self._node_key_index.get((uid, sql))
        if existing is not None:
            return existing, False
        properties: Dict[str, object] = {"uid": uid, "predicate": sql}
        if intensity is not None:
            properties["intensity"] = validate_quantitative(intensity)
            properties["intensity_source"] = source
        node = self.graph.add_node(properties, labels=(UID_INDEX_LABEL,))
        self._node_key_index[(uid, sql)] = node.node_id
        return node.node_id, True

    def add_quantitative_batch(self, uid: int,
                               entries: Iterable[Tuple[str, float]]) -> List[int]:
        """Batch-insert quantitative preference nodes (paper's 100k batches).

        ``entries`` are ``(predicate sql, intensity)`` pairs assumed to be
        unique per user (the batch path skips duplicate detection for speed,
        exactly as the paper does for Step 1 of graph creation).
        """
        payloads = []
        sqls = []
        for predicate, intensity in entries:
            sql = predicate_key(predicate)
            sqls.append(sql)
            payloads.append({
                "uid": uid,
                "predicate": sql,
                "intensity": validate_quantitative(intensity),
                "intensity_source": SOURCE_USER,
            })
        nodes = self.graph.add_nodes_batch(payloads, labels=(UID_INDEX_LABEL,))
        for sql, node in zip(sqls, nodes):
            self._node_key_index[(uid, sql)] = node.node_id
        return [node.node_id for node in nodes]

    def node(self, node_id: int) -> Node:
        """Return the underlying graph node."""
        return self.graph.get_node(node_id)

    def intensity_of(self, node_id: int) -> Optional[float]:
        """Return the node's intensity or ``None`` when not yet assigned."""
        return self.graph.get_node(node_id).get("intensity")

    def set_intensity(self, node_id: int, intensity: float, source: str) -> None:
        """Assign/overwrite a node intensity, recording its provenance."""
        self.graph.update_node(node_id, {
            "intensity": validate_quantitative(intensity),
            "intensity_source": source,
        })

    def intensity_source(self, node_id: int) -> Optional[str]:
        """Return the provenance of the node's intensity (user/computed/default)."""
        return self.graph.get_node(node_id).get("intensity_source")

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------

    def _add_qualitative_edge(self, left_id: int, right_id: int,
                              rel_type: str, intensity: float) -> Edge:
        """Insert a qualitative edge carrying its intensity."""
        return self.graph.add_edge(left_id, right_id, rel_type,
                                   {"intensity": intensity})

    def add_prefers_edge(self, left_id: int, right_id: int, intensity: float) -> Edge:
        """Insert a valid qualitative preference edge (``PREFERS``)."""
        return self._add_qualitative_edge(left_id, right_id, PREFERS, intensity)

    def add_cycle_edge(self, left_id: int, right_id: int, intensity: float) -> Edge:
        """Insert a conflicting edge that would have created a cycle."""
        return self._add_qualitative_edge(left_id, right_id, CYCLE, intensity)

    def add_discard_edge(self, left_id: int, right_id: int, intensity: float) -> Edge:
        """Insert an edge dropped because of incompatible intensities."""
        return self._add_qualitative_edge(left_id, right_id, DISCARD, intensity)

    def prefers_degree(self, node_id: int) -> int:
        """Degree of a node counting only ``PREFERS`` edges (no self loops)."""
        return self.graph.degree(node_id, rel_types=(PREFERS,))

    def creates_cycle(self, left_id: int, right_id: int) -> bool:
        """``True`` when adding ``left -> right`` would close a PREFERS cycle."""
        return self.graph.path_exists(right_id, left_id, rel_types=(PREFERS,))

    # ------------------------------------------------------------------
    # Per-user views
    # ------------------------------------------------------------------

    def user_node_ids(self, uid: int) -> List[int]:
        """All preference node ids stored for ``uid`` (indexed lookup)."""
        nodes = self.graph.find_by_index(UID_INDEX_LABEL, "uid", uid)
        return [node.node_id for node in nodes]

    def user_nodes(self, uid: int) -> List[Node]:
        """All preference nodes stored for ``uid``."""
        return self.graph.find_by_index(UID_INDEX_LABEL, "uid", uid)

    def user_ids(self) -> List[int]:
        """All user ids present in the graph."""
        return sorted({node.get("uid") for node in self.graph.nodes()
                       if node.has_label(UID_INDEX_LABEL)})

    def quantitative_preferences(self, uid: int,
                                 include_negative: bool = True,
                                 ordered: bool = True) -> List[Tuple[str, float]]:
        """Return ``(predicate, intensity)`` pairs for every node with a score.

        This is the CYPHER query of Section 4.3 (*all preferences for one user
        ordered descending by intensity*); negative preferences can be
        excluded since enhanced queries never add them as soft constraints.
        """
        query = (NodeQuery(self.graph)
                 .with_label(UID_INDEX_LABEL)
                 .where("uid", "=", uid))
        if not include_negative:
            query = query.where("intensity", ">", 0.0)
        if ordered:
            query = query.order_by("intensity", descending=True)
        rows = query.returning("predicate", "intensity").run()
        return [(row["predicate"], row["intensity"]) for row in rows
                if row["intensity"] is not None]

    def qualitative_edges(self, uid: int,
                          rel_types: Tuple[str, ...] = (PREFERS,)) -> List[Edge]:
        """All qualitative edges between this user's nodes (default: valid ones)."""
        node_ids = set(self.user_node_ids(uid))
        edges: List[Edge] = []
        for node_id in node_ids:
            for edge in self.graph.out_edges(node_id, rel_types):
                if edge.target in node_ids and not edge.is_self_loop():
                    edges.append(edge)
        return edges

    def user_subgraph_stats(self, uid: int) -> Dict[str, int]:
        """Node/edge counts for one user's profile subgraph."""
        node_ids = set(self.user_node_ids(uid))
        with_intensity = sum(
            1 for node_id in node_ids
            if self.graph.get_node(node_id).get("intensity") is not None)
        counts = {"nodes": len(node_ids), "nodes_with_intensity": with_intensity}
        for rel_type in (PREFERS, CYCLE, DISCARD):
            counts[f"edges[{rel_type}]"] = len(self.qualitative_edges(uid, (rel_type,)))
        return counts

    # ------------------------------------------------------------------
    # Whole-graph statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Graph-wide statistics (delegates to the property graph)."""
        return self.graph.stats()

    def __len__(self) -> int:
        return self.graph.node_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HypreGraph(nodes={self.graph.node_count()}, edges={self.graph.edge_count()})"
