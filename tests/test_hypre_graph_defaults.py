"""Unit tests for the HYPRE graph container and DEFAULT_VALUE strategies."""

from __future__ import annotations

import pytest

from repro.core.hypre.defaults import (
    FALLBACK_AVG,
    FALLBACK_DEFAULT,
    DefaultValueStrategy,
    default_value_table,
)
from repro.core.hypre import HypreGraphBuilder
from repro.core.hypre.graph import (
    CYCLE,
    DISCARD,
    PREFERS,
    SOURCE_COMPUTED,
    SOURCE_USER,
    HypreGraph,
)
from repro.core.preference import UserProfile
from repro.exceptions import IntensityRangeError, NodeNotFoundError


class TestHypreGraphNodes:
    def test_create_or_return_creates_once(self):
        hypre = HypreGraph()
        first_id, created = hypre.create_or_return_node(2, "venue = 'VLDB'", 0.8)
        assert created
        second_id, created_again = hypre.create_or_return_node(2, "venue='VLDB'")
        assert not created_again
        assert first_id == second_id

    def test_same_predicate_different_user_gets_new_node(self):
        hypre = HypreGraph()
        first, _ = hypre.create_or_return_node(1, "venue = 'VLDB'", 0.5)
        second, _ = hypre.create_or_return_node(2, "venue = 'VLDB'", 0.5)
        assert first != second

    def test_node_without_intensity(self):
        hypre = HypreGraph()
        node_id, _ = hypre.create_or_return_node(1, "venue = 'VLDB'")
        assert hypre.intensity_of(node_id) is None
        assert hypre.intensity_source(node_id) is None

    def test_set_intensity_records_provenance(self):
        hypre = HypreGraph()
        node_id, _ = hypre.create_or_return_node(1, "venue = 'VLDB'")
        hypre.set_intensity(node_id, 0.6, SOURCE_COMPUTED)
        assert hypre.intensity_of(node_id) == 0.6
        assert hypre.intensity_source(node_id) == SOURCE_COMPUTED

    def test_batch_insert_registers_lookup(self):
        hypre = HypreGraph()
        ids = hypre.add_quantitative_batch(3, [("venue = 'A'", 0.1), ("venue = 'B'", 0.2)])
        assert len(ids) == 2
        assert hypre.find_node_id(3, "venue = 'A'") == ids[0]
        assert hypre.user_node_ids(3) == sorted(ids)

    def test_uid_index_exists(self):
        """The per-user lookup answers for users it has never seen, too."""
        hypre = HypreGraph()
        assert hypre.user_node_ids(7) == []
        node_id, _ = hypre.create_or_return_node(7, "venue = 'A'")
        assert hypre.user_node_ids(7) == [node_id]
        hypre.user_node_ids(7).append(99)
        assert hypre.user_node_ids(7) == [node_id]

    def test_builder_over_existing_graph_reuses_its_nodes(self):
        hypre = HypreGraph()
        node_id, _ = hypre.create_or_return_node(1, "venue = 'A'", 0.4)
        profile = UserProfile(uid=1)
        profile.add_quantitative("venue = 'A'", 0.8)
        report = HypreGraphBuilder(hypre).build_profile(profile)
        assert report.quantitative_merged == 1 and len(hypre) == 1
        assert hypre.intensity_of(node_id) == pytest.approx(0.6)

    def test_unknown_node_id_is_refused_everywhere(self):
        hypre = HypreGraph()
        known, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        for unknown in (1, -1, 99, "0", None):
            for call in (
                lambda: hypre.intensity_of(unknown),
                lambda: hypre.intensity_source(unknown),
                lambda: hypre.set_intensity(unknown, 0.1, SOURCE_USER),
                lambda: hypre.prefers_degree(unknown),
                lambda: hypre.creates_cycle(known, unknown),
                lambda: hypre.creates_cycle(unknown, known),
                lambda: hypre.add_prefers_edge(known, unknown, 0.1),
                lambda: hypre.add_prefers_edge(unknown, known, 0.1),
                lambda: hypre.add_cycle_edge(unknown, known, 0.1),
                lambda: hypre.add_discard_edge(known, unknown, 0.1),
            ):
                with pytest.raises(NodeNotFoundError) as caught:
                    call()
                assert caught.value.node_id == unknown
                assert str(caught.value) == f"node {unknown!r} does not exist"
        assert hypre.stats() == {"nodes": 1, "edges": 0}
        assert hypre.prefers_degree(known) == 0

    def test_out_of_range_intensity_is_refused_on_every_door(self):
        hypre = HypreGraph()
        with pytest.raises(IntensityRangeError):
            hypre.create_or_return_node(1, "a = 1", 1.5)
        with pytest.raises(IntensityRangeError):
            hypre.add_quantitative_batch(1, [("a = 2", 0.5), ("a = 3", -1.5)])
        assert len(hypre) == 0 and hypre.user_ids() == []
        node_id, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        with pytest.raises(IntensityRangeError):
            hypre.set_intensity(node_id, 2.0, SOURCE_USER)
        assert hypre.intensity_of(node_id) == 0.5


class TestHypreGraphEdges:
    def test_edge_kinds(self):
        hypre = HypreGraph()
        left, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        right, _ = hypre.create_or_return_node(1, "a = 2", 0.3)
        hypre.add_prefers_edge(left, right, 0.2)
        hypre.add_cycle_edge(right, left, 0.2)
        hypre.add_discard_edge(left, right, 0.1)
        assert len(hypre.qualitative_edges(1, (PREFERS,))) == 1
        assert len(hypre.qualitative_edges(1, (CYCLE,))) == 1
        assert len(hypre.qualitative_edges(1, (DISCARD,))) == 1

    def test_prefers_degree_ignores_other_labels(self):
        hypre = HypreGraph()
        left, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        right, _ = hypre.create_or_return_node(1, "a = 2", 0.3)
        hypre.add_discard_edge(left, right, 0.1)
        assert hypre.prefers_degree(left) == 0
        hypre.add_prefers_edge(left, right, 0.1)
        assert hypre.prefers_degree(left) == 1

    def test_creates_cycle_detection(self):
        hypre = HypreGraph()
        a, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        b, _ = hypre.create_or_return_node(1, "a = 2", 0.3)
        c, _ = hypre.create_or_return_node(1, "a = 3", 0.2)
        hypre.add_prefers_edge(a, b, 0.1)
        hypre.add_prefers_edge(b, c, 0.1)
        assert hypre.creates_cycle(c, a)
        assert not hypre.creates_cycle(a, c)

    def test_creates_cycle_ignores_conflict_edges_and_is_reflexive(self):
        hypre = HypreGraph()
        a, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        b, _ = hypre.create_or_return_node(1, "a = 2", 0.3)
        hypre.add_cycle_edge(a, b, 0.1)
        hypre.add_discard_edge(a, b, 0.1)
        assert not hypre.creates_cycle(b, a)
        assert hypre.creates_cycle(a, a)

    def test_self_loop_does_not_count_toward_prefers_degree(self):
        hypre = HypreGraph()
        a, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        b, _ = hypre.create_or_return_node(1, "a = 2", 0.3)
        hypre.add_prefers_edge(a, a, 0.1)
        assert hypre.prefers_degree(a) == 0
        assert hypre.qualitative_edges(1, (PREFERS,)) == []
        assert hypre.stats()[f"edges[{PREFERS}]"] == 1
        hypre.add_prefers_edge(b, a, 0.1)
        hypre.add_prefers_edge(a, b, 0.1)
        assert hypre.prefers_degree(a) == 2 and hypre.prefers_degree(b) == 2

    def test_qualitative_edges_come_back_in_insertion_order(self):
        """By source node id, then by edge id — never hash-table order.

        The user's node ids are 7..10 on purpose: a ``set`` of them iterates
        8, 9, 10, 7.
        """
        hypre = HypreGraph()
        hypre.add_quantitative_batch(2, [(f"b = {i}", 0.1) for i in range(7)])
        n = hypre.add_quantitative_batch(
            1, [(f"a = {i}", 0.9 - i / 10) for i in range(4)])
        assert n == [7, 8, 9, 10]
        for left, right in [(n[1], n[3]), (n[0], n[3]), (n[0], n[1]),
                            (n[1], n[2]), (n[0], n[2])]:
            hypre.add_prefers_edge(left, right, 0.1)
        hypre.add_cycle_edge(n[0], n[0], 0.1)
        hypre.add_cycle_edge(n[3], n[0], 0.1)
        edges = hypre.qualitative_edges(1)
        assert [(edge.source, edge.target) for edge in edges] == [
            (n[0], n[3]), (n[0], n[1]), (n[0], n[2]), (n[1], n[3]), (n[1], n[2])]
        both = hypre.qualitative_edges(1, (PREFERS, CYCLE))
        assert [edge.rel_type for edge in both] == [PREFERS] * 5 + [CYCLE]
        assert both[-1].get("intensity") == 0.1 and not both[-1].is_self_loop()


class TestUserViews:
    @pytest.fixture()
    def populated(self):
        hypre = HypreGraph()
        hypre.create_or_return_node(2, "venue = 'INFOCOM'", 0.23)
        hypre.create_or_return_node(2, "venue = 'PODS'", 0.14)
        hypre.create_or_return_node(2, "aid = 128", -0.4)
        hypre.create_or_return_node(9, "venue = 'VLDB'", 0.9)
        return hypre

    def test_quantitative_preferences_ordering(self, populated):
        pairs = populated.quantitative_preferences(2)
        assert [intensity for _, intensity in pairs] == sorted(
            [0.23, 0.14, -0.4], reverse=True)

    def test_quantitative_preferences_positive_only(self, populated):
        pairs = populated.quantitative_preferences(2, include_negative=False)
        assert all(intensity > 0 for _, intensity in pairs)
        assert len(pairs) == 2

    def test_equal_intensities_keep_insertion_order(self):
        hypre = HypreGraph()
        hypre.add_quantitative_batch(1, [("a = 3", 0.5), ("a = 1", 0.7),
                                         ("a = 2", 0.5)])
        hypre.create_or_return_node(1, "a = 0", 0.5)
        hypre.create_or_return_node(1, "a = 9")
        assert hypre.quantitative_preferences(1) == [
            ("a = 1", 0.7), ("a = 3", 0.5), ("a = 2", 0.5), ("a = 0", 0.5)]

    def test_users_sharing_a_graph_never_see_each_other(self, populated):
        own = populated.find_node_id(2, "venue = 'INFOCOM'")
        other = populated.find_node_id(9, "venue = 'VLDB'")
        twin, created = populated.create_or_return_node(9, "venue = 'INFOCOM'", 0.1)
        assert created and twin != own
        populated.add_prefers_edge(other, twin, 0.2)
        populated.add_prefers_edge(own, other, 0.2)  # crosses users
        assert own in populated.user_node_ids(2)
        assert not set(populated.user_node_ids(2)) & set(populated.user_node_ids(9))
        assert populated.qualitative_edges(2) == []
        assert [(edge.source, edge.target)
                for edge in populated.qualitative_edges(9)] == [(other, twin)]
        assert all(predicate != "venue = 'VLDB'"
                   for predicate, _ in populated.quantitative_preferences(2))
        assert populated.user_subgraph_stats(2)["nodes"] == 3

    def test_user_ids(self, populated):
        assert populated.user_ids() == [2, 9]

    def test_user_subgraph_stats(self, populated):
        stats = populated.user_subgraph_stats(2)
        assert stats["nodes"] == 3
        assert stats["nodes_with_intensity"] == 3
        assert stats[f"edges[{PREFERS}]"] == 0

    def test_stats_include_edge_breakdown(self, populated):
        left = populated.find_node_id(2, "venue = 'INFOCOM'")
        right = populated.find_node_id(2, "venue = 'PODS'")
        populated.add_prefers_edge(left, right, 0.1)
        assert populated.stats() == {"nodes": 4, "edges": 1,
                                     f"edges[{PREFERS}]": 1}


class TestDefaultValueStrategies:
    def test_constant_default(self):
        strategy = DefaultValueStrategy.by_name("default")
        assert strategy([0.1, 0.9]) == FALLBACK_DEFAULT
        assert strategy([]) == FALLBACK_DEFAULT

    def test_min_and_max(self):
        values = [-0.5, 0.2, 0.8]
        assert DefaultValueStrategy.by_name("min")(values) == -0.5
        assert DefaultValueStrategy.by_name("max")(values) == 0.8

    def test_min_pos_and_max_pos(self):
        values = [-0.5, 0.2, 0.8, 1.0]
        assert DefaultValueStrategy.by_name("min_pos")(values) == pytest.approx(0.2)
        # max_pos excludes saturated 1.0 values.
        assert DefaultValueStrategy.by_name("max_pos")(values) == pytest.approx(0.8)

    def test_positive_strategies_fall_back_to_zero(self):
        assert DefaultValueStrategy.by_name("min_pos")([-0.3]) == 0.0
        assert DefaultValueStrategy.by_name("max_pos")([-0.3]) == 0.0
        assert DefaultValueStrategy.by_name("avg_pos")([-0.3]) == 0.0

    def test_avg_saturation_uses_fallback(self):
        assert DefaultValueStrategy.by_name("avg")([1.0, 1.0]) == FALLBACK_AVG
        assert DefaultValueStrategy.by_name("avg")([]) == FALLBACK_AVG

    def test_avg_regular(self):
        assert DefaultValueStrategy.by_name("avg")([0.2, 0.4]) == pytest.approx(0.3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            DefaultValueStrategy.by_name("median")

    def test_all_lists_every_strategy(self):
        names = [strategy.name for strategy in DefaultValueStrategy.all()]
        assert names == list(DefaultValueStrategy.NAMES)

    def test_table_contains_all_strategies(self):
        table = default_value_table([0.5, -0.2])
        assert set(table) == set(DefaultValueStrategy.NAMES)
        assert all(-1.0 <= value <= 1.0 for value in table.values())
