"""Unit tests for HYPRE graph construction (Algorithm 1) and conflict handling."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.hypre import (
    CYCLE,
    DISCARD,
    PREFERS,
    HypreGraph,
    HypreGraphBuilder,
    build_hypre_graph,
    check_conflict,
    classify_edge,
)
from repro.core.hypre.conflict import ConflictKind
from repro.core.hypre.graph import SOURCE_COMPUTED, SOURCE_DEFAULT, SOURCE_USER
from repro.core.intensity import intensity_left, intensity_right
from repro.core.preference import (
    ProfileRegistry,
    QualitativePreference,
    QuantitativePreference,
    UserProfile,
)
from repro.experiments.context import SCALES
from repro.workload import PreferenceExtractor, generate_dblp


def make_builder() -> HypreGraphBuilder:
    return HypreGraphBuilder(default_strategy="default")


class TestQuantitativeInsertion:
    def test_single_insert(self):
        builder = make_builder()
        node_id, report = builder.add_quantitative(
            QuantitativePreference(1, "venue = 'VLDB'", 0.8))
        assert report.quantitative_nodes == 1
        assert builder.hypre.intensity_of(node_id) == 0.8
        assert builder.hypre.intensity_source(node_id) == SOURCE_USER

    def test_duplicate_predicate_averages_intensity(self):
        builder = make_builder()
        builder.add_quantitative(QuantitativePreference(1, "venue = 'VLDB'", 0.8))
        node_id, report = builder.add_quantitative(
            QuantitativePreference(1, "venue = 'VLDB'", 0.4))
        assert report.quantitative_merged == 1
        assert builder.hypre.intensity_of(node_id) == pytest.approx(0.6)

    def test_batch_path_used_for_unique_predicates(self):
        builder = make_builder()
        prefs = [QuantitativePreference(1, f"dblp_author.aid = {i}", 0.1 * i)
                 for i in range(1, 6)]
        report = builder.add_all_quantitative(1, prefs)
        assert report.quantitative_nodes == 5
        assert report.quantitative_seconds >= 0.0
        assert len(builder.hypre.user_node_ids(1)) == 5

    def test_non_batch_path_merges_duplicates(self):
        builder = make_builder()
        prefs = [QuantitativePreference(1, "venue = 'A'", 0.2),
                 QuantitativePreference(1, "venue = 'A'", 0.6)]
        report = builder.add_all_quantitative(1, prefs)
        assert report.quantitative_nodes == 1
        assert report.quantitative_merged == 1
        node_id = builder.hypre.find_node_id(1, "venue = 'A'")
        assert builder.hypre.intensity_of(node_id) == pytest.approx(0.4)


class TestQualitativeInsertion:
    def test_both_nodes_new_assigns_default_and_computes_left(self):
        builder = make_builder()
        report = builder.add_qualitative(
            QualitativePreference(1, "venue = 'VLDB'", "venue = 'SIGMOD'", 0.3))
        assert report.qualitative_edges == 1
        assert report.defaults_assigned == 1
        assert report.intensities_computed == 1
        hypre = builder.hypre
        left = hypre.find_node_id(1, "venue = 'VLDB'")
        right = hypre.find_node_id(1, "venue = 'SIGMOD'")
        assert hypre.intensity_source(right) == SOURCE_DEFAULT
        assert hypre.intensity_source(left) == SOURCE_COMPUTED
        assert hypre.intensity_of(right) == pytest.approx(0.5)
        assert hypre.intensity_of(left) == pytest.approx(intensity_left(0.3, 0.5))

    def test_left_existing_right_new_computes_right(self):
        builder = make_builder()
        builder.add_quantitative(QuantitativePreference(1, "venue = 'VLDB'", 0.8))
        builder.add_qualitative(
            QualitativePreference(1, "venue = 'VLDB'", "venue = 'SIGMOD'", 0.3))
        hypre = builder.hypre
        right = hypre.find_node_id(1, "venue = 'SIGMOD'")
        assert hypre.intensity_of(right) == pytest.approx(intensity_right(0.3, 0.8))
        assert hypre.intensity_source(right) == SOURCE_COMPUTED

    def test_right_existing_left_new_computes_left(self):
        builder = make_builder()
        builder.add_quantitative(QuantitativePreference(1, "year >= 2009", 0.8))
        builder.add_qualitative(
            QualitativePreference(1, "venue = 'VLDB'", "year >= 2009", 0.2))
        hypre = builder.hypre
        left = hypre.find_node_id(1, "venue = 'VLDB'")
        assert hypre.intensity_of(left) == pytest.approx(intensity_left(0.2, 0.8))

    def test_consistent_existing_nodes_keep_values(self):
        builder = make_builder()
        builder.add_quantitative(QuantitativePreference(1, "a = 1", 0.8))
        builder.add_quantitative(QuantitativePreference(1, "a = 2", 0.3))
        report = builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", 0.5))
        assert report.qualitative_edges == 1
        assert report.intensities_recomputed == 0
        assert builder.hypre.intensity_of(builder.hypre.find_node_id(1, "a = 1")) == 0.8
        assert builder.hypre.intensity_of(builder.hypre.find_node_id(1, "a = 2")) == 0.3

    def test_incompatible_unconnected_nodes_get_repaired(self):
        builder = make_builder()
        builder.add_quantitative(QuantitativePreference(1, "a = 1", 0.2))
        builder.add_quantitative(QuantitativePreference(1, "a = 2", 0.9))
        report = builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", 0.5))
        assert report.qualitative_edges == 1
        assert report.intensities_recomputed == 1
        hypre = builder.hypre
        left_value = hypre.intensity_of(hypre.find_node_id(1, "a = 1"))
        right_value = hypre.intensity_of(hypre.find_node_id(1, "a = 2"))
        assert left_value >= right_value

    @pytest.mark.parametrize("connected", ["left", "right"])
    def test_incompatible_nodes_with_one_side_connected_get_repaired(self, connected):
        """The endpoint with no other PREFERS edge is the one recomputed."""
        builder = make_builder()
        builder.add_quantitative(QuantitativePreference(1, "a = 1", 0.2))
        builder.add_quantitative(QuantitativePreference(1, "a = 2", 0.9))
        if connected == "left":
            builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 0", 0.1))
        else:
            builder.add_qualitative(QualitativePreference(1, "a = 3", "a = 2", 0.1))
        report = builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", 0.5))
        assert (report.qualitative_edges, report.intensities_recomputed) == (1, 1)
        hypre = builder.hypre
        left, right = hypre.find_node_id(1, "a = 1"), hypre.find_node_id(1, "a = 2")
        kept, recomputed = (left, right) if connected == "left" else (right, left)
        assert hypre.intensity_source(kept) == SOURCE_USER
        assert hypre.intensity_source(recomputed) == SOURCE_COMPUTED
        assert hypre.intensity_of(left) >= hypre.intensity_of(right)

    def test_incompatible_connected_nodes_get_discarded(self):
        builder = make_builder()
        # Build a chain so that both endpoints of the conflicting edge are
        # already connected to the PREFERS subgraph.
        builder.add_quantitative(QuantitativePreference(1, "a = 1", 0.2))
        builder.add_quantitative(QuantitativePreference(1, "a = 2", 0.9))
        builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 0", 0.1))
        builder.add_qualitative(QualitativePreference(1, "a = 3", "a = 2", 0.1))
        report = builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", 0.5))
        assert report.discarded_edges == 1
        assert report.qualitative_edges == 0

    def test_cycle_edge_marked(self):
        builder = make_builder()
        builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", 0.3))
        builder.add_qualitative(QualitativePreference(1, "a = 2", "a = 3", 0.3))
        report = builder.add_qualitative(QualitativePreference(1, "a = 3", "a = 1", 0.3))
        assert report.cycle_edges == 1
        cycles = builder.hypre.qualitative_edges(1, (CYCLE,))
        assert len(cycles) == 1

    def test_self_preference_is_cycle(self):
        builder = make_builder()
        report = builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 1", 0.3))
        assert report.cycle_edges == 1

    def test_negative_strength_is_normalised(self):
        builder = make_builder()
        builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", -0.4))
        hypre = builder.hypre
        # The preference is equivalent to "a=2 preferred over a=1".
        left = hypre.find_node_id(1, "a = 2")
        right = hypre.find_node_id(1, "a = 1")
        edges = hypre.qualitative_edges(1, (PREFERS,))
        assert len(edges) == 1
        assert edges[0].source == left and edges[0].target == right

    def test_zero_strength_keeps_equal_intensities(self):
        builder = make_builder()
        builder.add_qualitative(QualitativePreference(1, "a = 1", "a = 2", 0.0))
        hypre = builder.hypre
        left_value = hypre.intensity_of(hypre.find_node_id(1, "a = 1"))
        right_value = hypre.intensity_of(hypre.find_node_id(1, "a = 2"))
        assert left_value == pytest.approx(right_value)


class TestProfileAndRegistryBuilds:
    def test_build_profile_counts(self, dblp_profile):
        hypre, report = build_hypre_graph(dblp_profile)
        assert report.quantitative_nodes == len(dblp_profile.quantitative)
        assert (report.qualitative_edges + report.cycle_edges
                + report.discarded_edges) == len(dblp_profile.qualitative)
        # The qualitative preferences introduced new quantitative nodes.
        assert len(hypre.user_node_ids(1)) > len(dblp_profile.quantitative)

    def test_build_registry_merges_users(self):
        registry = ProfileRegistry()
        for uid in (1, 2):
            profile = registry.get_or_create(uid)
            profile.add_quantitative("venue = 'VLDB'", 0.5)
            profile.add_qualitative("venue = 'VLDB'", "venue = 'PODS'", 0.2)
        hypre, report = build_hypre_graph(registry)
        assert hypre.user_ids() == [1, 2]
        assert report.quantitative_nodes == 2
        assert report.qualitative_edges == 2

    def test_build_rejects_other_types(self):
        with pytest.raises(TypeError):
            build_hypre_graph(["not a profile"])

    def test_coverage_increases_via_conversion(self, dblp_profile):
        """The unified model yields more quantitative preferences (Fig. 26/27)."""
        hypre, _ = build_hypre_graph(dblp_profile)
        converted = hypre.quantitative_preferences(1, include_negative=True)
        assert len(converted) > len(dblp_profile.quantitative)

    def test_every_prefers_edge_ordered(self, dblp_profile):
        hypre, _ = build_hypre_graph(dblp_profile)
        for edge in hypre.qualitative_edges(1, (PREFERS,)):
            left_value = hypre.intensity_of(edge.source)
            right_value = hypre.intensity_of(edge.target)
            assert left_value >= right_value - 1e-9


class TestConflictHelpers:
    def test_check_conflict_requires_user_values(self):
        assert not check_conflict(None, 0.5, False, True)
        assert not check_conflict(0.2, 0.5, False, True)
        assert check_conflict(0.2, 0.5, True, True)
        assert not check_conflict(0.5, 0.2, True, True)

    def test_classify_edge_cycle(self):
        hypre = HypreGraph()
        a, _ = hypre.create_or_return_node(1, "a = 1", 0.5)
        b, _ = hypre.create_or_return_node(1, "a = 2", 0.3)
        hypre.add_prefers_edge(a, b, 0.1)
        assert classify_edge(hypre, b, a).kind is ConflictKind.CYCLE

    def test_classify_edge_incompatible_when_both_connected(self):
        hypre = HypreGraph()
        a, _ = hypre.create_or_return_node(1, "a = 1", 0.2)
        b, _ = hypre.create_or_return_node(1, "a = 2", 0.9)
        c, _ = hypre.create_or_return_node(1, "a = 3", 0.1)
        d, _ = hypre.create_or_return_node(1, "a = 4", 0.95)
        hypre.add_prefers_edge(a, c, 0.1)
        hypre.add_prefers_edge(d, b, 0.1)
        assert classify_edge(hypre, a, b).kind is ConflictKind.INCOMPATIBLE

    def test_classify_edge_repairable_when_one_side_unconnected(self):
        hypre = HypreGraph()
        a, _ = hypre.create_or_return_node(1, "a = 1", 0.2)
        b, _ = hypre.create_or_return_node(1, "a = 2", 0.9)
        assert classify_edge(hypre, a, b).kind is ConflictKind.NONE
        c, _ = hypre.create_or_return_node(1, "a = 3", 0.1)
        hypre.add_prefers_edge(a, c, 0.1)
        assert classify_edge(hypre, a, b).kind is ConflictKind.NONE
        assert classify_edge(hypre, b, c).kind is ConflictKind.NONE

    def test_report_merge_accumulates(self, dblp_profile):
        builder = make_builder()
        report = builder.build_profile(dblp_profile)
        as_dict = report.as_dict()
        assert as_dict["quantitative_nodes"] == len(dblp_profile.quantitative)
        assert as_dict["qualitative_seconds"] >= 0.0


#: sha256 over every mined user's graph — node ids, predicates, intensities
#: and their provenance in served order, every typed edge, the build report's
#: counters and ``stats()`` — captured on the commit before ``HypreGraph``
#: took over its own nodes and edges from the general graph engine.  It moves
#: only when a node id, an intensity, a tie-break or an edge verdict moves.
PARENT_GRAPH_DIGESTS = {
    "tiny": "0bfe0b15173ca7ba826167bef9a06cb5c45be611ece74265357f4dd8de83e7e3",
    "default": "24949ebc1f375350fd1a49b2c9e842554a08082b1e3f79bd197e88d709c3a5b7",
}


@pytest.mark.parametrize("scale", sorted(PARENT_GRAPH_DIGESTS))
def test_mined_graph_matches_the_parent_digest(scale):
    builder = HypreGraphBuilder()
    report = builder.build_registry(
        PreferenceExtractor(generate_dblp(SCALES[scale])).extract_all())
    hypre = builder.hypre
    digest = hashlib.sha256()
    for uid in hypre.user_ids():
        for predicate, intensity in hypre.quantitative_preferences(
                uid, include_negative=True):
            node_id = hypre.find_node_id(uid, predicate)
            digest.update(f"{uid}|n|{node_id}|{predicate}|{intensity!r}|"
                          f"{hypre.intensity_source(node_id)}\n".encode())
        for rel_type in (PREFERS, CYCLE, DISCARD):
            for row in sorted((edge.source, edge.target, edge.get("intensity"))
                              for edge in hypre.qualitative_edges(uid, (rel_type,))):
                digest.update(f"{uid}|e|{rel_type}|{row!r}\n".encode())
    digest.update(repr(sorted(
        (name, value) for name, value in report.as_dict().items()
        if not name.endswith("_seconds"))).encode())
    digest.update(repr(sorted(hypre.stats().items())).encode())
    assert digest.hexdigest() == PARENT_GRAPH_DIGESTS[scale]
