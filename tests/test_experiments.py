"""Tests for the experiment harness: context building and figure functions.

These are integration tests — every figure function must run end-to-end on
the tiny workload and produce output with the paper's qualitative shape.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures, reporting
from repro.experiments.context import SCALES, ExperimentContext


class TestContext:
    def test_focus_users_have_profiles(self, tiny_context):
        assert len(tiny_context.focus_users) == 2
        for uid in tiny_context.focus_users:
            assert len(tiny_context.profile(uid)) > 0
            assert tiny_context.preferences(uid)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentContext.create(scale="galactic")

    def test_scales_registry(self):
        assert {"tiny", "small", "default", "large"} <= set(SCALES)

    def test_preferences_ordered_and_positive(self, tiny_context):
        prefs = tiny_context.preferences(tiny_context.focus_users[0])
        intensities = [pref.intensity for pref in prefs]
        assert intensities == sorted(intensities, reverse=True)
        assert all(value > 0 for value in intensities)


class TestWorkloadExperiments:
    def test_table10(self, tiny_context):
        stats = figures.table10_statistics(tiny_context)
        assert stats["papers"] == tiny_context.total_papers()
        assert stats["quantitative_pref_rows"] > 0
        assert stats["qualitative_pref_rows"] > 0

    def test_table11(self, tiny_context):
        timings = figures.table11_insertion_time(tiny_context)
        assert timings["quantitative_preferences"] > 0
        assert timings["qualitative_preferences"] > 0
        assert timings["quantitative_seconds"] >= 0.0
        assert timings["qualitative_seconds"] >= 0.0

    def test_table12(self, tiny_context):
        table = figures.table12_default_values(tiny_context)
        assert set(table) == {"default", "min", "min_pos", "max", "max_pos", "avg", "avg_pos"}
        assert table["default"] == 0.5

    def test_fig13_insertion_series(self):
        series = figures.fig13_node_insertion(total_nodes=3000, batch_size=1000)
        assert len(series) == 3
        assert series[-1][0] == 3000
        assert all(elapsed >= 0.0 for _, elapsed in series)

    def test_fig17_distribution(self, tiny_context):
        histogram = figures.fig17_preference_distribution(tiny_context)
        assert histogram
        assert all(isinstance(k, int) and count > 0 for k, count in histogram.items())


class TestUtilityCoverageExperiments:
    def test_fig18_25(self, tiny_context):
        uid = tiny_context.focus_users[0]
        output = figures.fig18_25_utility_and_tuples(tiny_context, uid, sizes=(2, 5))
        assert set(output) == {2, 5}
        for rows in output.values():
            for row in rows:
                assert row["tuples"] >= 0
                assert 0.0 <= row["intensity"] <= 1.0
                assert row["utility"] >= 0.0

    def test_fig26_27_growth(self, tiny_context):
        uid = tiny_context.focus_users[0]
        growth = figures.fig26_27_preference_growth(tiny_context, uid)
        assert growth["graph_count"] > growth["original_count"]
        assert growth["growth_factor"] > 1.0
        assert len(growth["graph_intensities"]) == growth["graph_count"]

    def test_fig28_coverage_shape(self, tiny_context):
        """HYPRE must cover at least as much as the raw preference sets."""
        uid = tiny_context.focus_users[0]
        reports = {report.label: report for report in
                   figures.fig28_coverage(tiny_context, uid)}
        assert set(reports) == {"QT", "QL", "QT+QL", "HYPRE_Graph"}
        assert reports["HYPRE_Graph"].covered_tuples >= reports["QT"].covered_tuples
        assert reports["QT+QL"].covered_tuples >= reports["QT"].covered_tuples
        assert reports["HYPRE_Graph"].covered_tuples > 0


class TestAlgorithmExperiments:
    def test_fig29_31(self, tiny_context):
        uid = tiny_context.focus_users[0]
        series = figures.fig29_31_combine_two(tiny_context, uid, first_limit=2)
        assert any(name.endswith("_AND") for name in series)
        assert any(name.endswith("_AND_OR") for name in series)
        for rows in series.values():
            for row in rows:
                assert 0.0 <= row["intensity"] <= 1.0

    def test_fig32_34(self, tiny_context):
        uid = tiny_context.focus_users[0]
        result = figures.fig32_34_partially_combine_all(tiny_context, uid, sizes=(2, 5))
        assert result["total_combinations"] > 0
        assert set(result["by_size"]) == {2, 5}

    def test_fig35_36(self, tiny_context):
        uid = tiny_context.focus_users[0]
        rows = figures.fig35_36_bias_random(tiny_context, uid, repetitions=3, seed=1)
        assert len(rows) == 3
        # Random exploration wastes queries: invalid combinations dominate.
        assert all(row["invalid"] >= row["valid"] for row in rows)

    def test_fig37_38(self, tiny_context):
        uid = tiny_context.focus_users[0]
        result = figures.fig37_38_peps_vs_ta(tiny_context, uid)
        assert result["quantitative_similarity"] == 1.0
        assert result["quantitative_overlap"] == 1.0
        assert result["peps_tuples_above_threshold"] >= result["ta_tuples_above_threshold"]
        assert result["full_similarity"] == 1.0

    def test_fig39_40(self, tiny_context):
        uid = tiny_context.focus_users[0]
        rows = figures.fig39_40_peps_time(tiny_context, uid, k_values=(5, 20))
        assert [row["k"] for row in rows] == [5, 20]
        for row in rows:
            assert row["approximate_seconds"] > 0.0
            assert row["complete_seconds"] > 0.0
            assert row["complete_order_list"] >= row["approximate_order_list"] > 0

    def test_prop3_4(self):
        result = figures.prop3_4_counting(max_n=10, verify_up_to=5)
        assert len(result["growth"]) == 10
        for row in result["verification"]:
            assert row["and_only_formula"] == row["and_only_enumerated"]
            assert row["and_or_formula"] == row["and_or_enumerated"]

    def test_ablation_combination_functions(self, tiny_context):
        uid = tiny_context.focus_users[0]
        result = figures.ablation_combination_functions(tiny_context, uid, k=10)
        for key in ("reserved_similarity", "dominant_similarity"):
            assert 0.0 <= result[key] <= 1.0

    def test_ablation_default_strategies(self, tiny_context):
        uid = tiny_context.focus_users[0]
        result = figures.ablation_default_strategies(tiny_context, uid)
        assert "avg_pos" in result
        for row in result.values():
            assert row["preferences"] > 0
            assert 0.0 <= row["coverage_fraction"] <= 1.0


class TestReporting:
    def test_format_table(self):
        rows = [{"k": 10, "seconds": 0.5}, {"k": 100, "seconds": 1.25}]
        text = reporting.format_table(rows)
        assert "k" in text and "seconds" in text
        assert "0.5000" in text

    def test_format_table_empty(self):
        assert reporting.format_table([]) == "(no rows)"

    def test_format_mapping(self):
        text = reporting.format_mapping({"papers": 300, "ratio": 0.25}, title="Stats")
        assert "Stats" in text
        assert "papers" in text
        assert "0.2500" in text

    def test_format_series_truncation(self):
        text = reporting.format_series(list(range(50)), name="xs", max_items=5)
        assert "xs:" in text
        assert "50 values total" in text

    def test_print_report(self, capsys):
        reporting.print_report("Title", "body")
        captured = capsys.readouterr().out
        assert "Title" in captured and "body" in captured
