"""One function per table/figure of the evaluation chapters (6 and 7).

Every function takes an :class:`~repro.experiments.context.ExperimentContext`
and returns plain dictionaries / lists with the same rows or series the paper
plots, so the benchmark harness (and EXPERIMENTS.md) can print them directly.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import PreferenceQueryRunner, ScoredPreference, make_preferences
from ..algorithms.bias_random import BiasRandomSelectionAlgorithm
from ..algorithms.combine_two import AND_OR_SEMANTICS, AND_SEMANTICS, CombineTwoAlgorithm
from ..algorithms.counting import (
    and_only_upper_bound,
    and_or_upper_bound,
    count_and_combinations,
    count_and_or_combinations,
    growth_table,
)
from ..algorithms.fagin import ThresholdAlgorithm, build_grade_lists
from ..algorithms.partial import PartiallyCombineAllAlgorithm
from ..algorithms.peps import PEPSAlgorithm
from ..core.hypre import HypreGraph, HypreGraphBuilder, default_value_table
from ..core.intensity import f_and, f_dominant, f_or
from ..core.metrics import CoverageReport, overlap, similarity
from ..core.predicate import ensure_predicate
from ..core.preference import UserProfile
from ..index import IncrementalPairIndex
from ..sqldb.query_builder import matching_paper_ids
from .context import ExperimentContext

import random


# ---------------------------------------------------------------------------
# Chapter 6 — workload
# ---------------------------------------------------------------------------


def table10_statistics(ctx: ExperimentContext) -> Dict[str, int]:
    """Table 10 — cardinalities of the workload relations and preference tables."""
    stats = dict(ctx.dataset.statistics())
    counts = ctx.db.table_counts()
    stats["quantitative_pref_rows"] = counts["quantitative_pref"]
    stats["qualitative_pref_rows"] = counts["qualitative_pref"]
    stats["users_with_profiles"] = len(ctx.registry)
    return stats


def table11_insertion_time(ctx: ExperimentContext) -> Dict[str, float]:
    """Table 11 — time to insert quantitative vs qualitative preferences."""
    report = ctx.build_report
    return {
        "quantitative_preferences": report.quantitative_nodes + report.quantitative_merged,
        "quantitative_seconds": report.quantitative_seconds,
        "qualitative_preferences": (report.qualitative_edges + report.cycle_edges
                                    + report.discarded_edges),
        "qualitative_seconds": report.qualitative_seconds,
    }


def table12_default_values(ctx: ExperimentContext, uid: Optional[int] = None) -> Dict[str, float]:
    """Table 12 — the DEFAULT_VALUE every strategy would pick for one user."""
    uid = uid if uid is not None else ctx.focus_users[0]
    profile = ctx.profile(uid)
    intensities = [pref.intensity for pref in profile.quantitative]
    return default_value_table(intensities)


def fig13_node_insertion(total_nodes: int = 200_000,
                         batch_size: int = 20_000) -> List[Tuple[int, float]]:
    """Figure 13 — node insertion time per batch (scaled down from 7 billion).

    Each batch is one user's Step-1 insertion through
    :meth:`HypreGraph.add_quantitative_batch`.  Returns ``(cumulative nodes,
    seconds for this batch)`` pairs, the node counts read back through the
    per-user lookup; the expected shape is a slowly growing, near-flat curve
    because insertion cost per batch is roughly constant.
    """
    hypre = HypreGraph()
    series: List[Tuple[int, float]] = []
    inserted = 0
    for uid, first in enumerate(range(0, total_nodes, batch_size)):
        entries = [(f"p = {i}", 0.5)
                   for i in range(min(batch_size, total_nodes - first))]
        start = time.perf_counter()
        hypre.add_quantitative_batch(uid, entries)
        elapsed = time.perf_counter() - start
        inserted += len(hypre.user_node_ids(uid))
        series.append((inserted, elapsed))
    return series


def fig17_preference_distribution(ctx: ExperimentContext) -> Dict[int, int]:
    """Figure 17 — histogram of the number of preferences per user."""
    full_registry = ctx.extractor.extract_all()
    return ctx.extractor.preference_count_distribution(full_registry)


# ---------------------------------------------------------------------------
# Chapter 7 — utility / coverage
# ---------------------------------------------------------------------------


def _partial_records(ctx: ExperimentContext, uid: int):
    algorithm = PartiallyCombineAllAlgorithm(ctx.runner)
    return algorithm, algorithm.run(ctx.preferences(uid))


def fig18_25_utility_and_tuples(ctx: ExperimentContext, uid: int,
                                sizes: Sequence[int] = (2, 5, 10)) -> Dict[int, List[Dict[str, float]]]:
    """Figures 18–25 — utility, tuple count and intensity per combination size.

    For every requested combination size the rows are in the order the
    combinations were produced ("combination order" on the x axis).
    """
    algorithm, records = _partial_records(ctx, uid)
    output: Dict[int, List[Dict[str, float]]] = {}
    for size in sizes:
        selected = algorithm.records_of_size(records, size)
        output[size] = [
            {
                "order": index,
                "tuples": record.tuple_count,
                "intensity": record.intensity,
                "utility": record.utility(),
            }
            for index, record in enumerate(selected)
        ]
    return output


def fig26_27_preference_growth(ctx: ExperimentContext, uid: int) -> Dict[str, Any]:
    """Figures 26/27 — quantitative preferences before vs after the HYPRE graph."""
    profile = ctx.profile(uid)
    original = sorted((pref.intensity for pref in profile.quantitative), reverse=True)
    from_graph = sorted((value for _, value in
                         ctx.hypre.quantitative_preferences(uid, include_negative=True)),
                        reverse=True)
    return {
        "uid": uid,
        "original_count": len(original),
        "graph_count": len(from_graph),
        "original_intensities": original,
        "graph_intensities": from_graph,
        "growth_factor": (len(from_graph) / len(original)) if original else float("inf"),
    }


def _covered(ctx: ExperimentContext, predicates: Sequence[Tuple[str, float]]) -> set:
    covered: set = set()
    for predicate, _ in predicates:
        covered.update(ctx.runner.ids(ensure_predicate(predicate)))
    return covered


def fig28_coverage(ctx: ExperimentContext, uid: int) -> List[CoverageReport]:
    """Figure 28 — coverage of the dataset by QT, QL, QT+QL and HYPRE preferences."""
    total = ctx.total_papers()
    profile = ctx.profile(uid)

    qt_predicates = [(pref.predicate_sql, pref.intensity)
                     for pref in profile.quantitative if pref.intensity > 0.0]

    ql_predicates: List[Tuple[str, float]] = []
    for pref in profile.qualitative:
        normalised = pref.normalised()
        ql_predicates.append((normalised.left_sql, normalised.intensity))
        if normalised.intensity == 0.0:
            ql_predicates.append((normalised.right_sql, normalised.intensity))

    hypre_predicates = [(predicate, value) for predicate, value in
                        ctx.hypre.quantitative_preferences(uid, include_negative=False)]

    qt_ids = _covered(ctx, qt_predicates)
    ql_ids = _covered(ctx, ql_predicates)
    hypre_ids = _covered(ctx, hypre_predicates)

    return [
        CoverageReport("QT", len(qt_ids), total),
        CoverageReport("QL", len(ql_ids), total),
        CoverageReport("QT+QL", len(qt_ids | ql_ids), total),
        CoverageReport("HYPRE_Graph", len(hypre_ids), total),
    ]


# ---------------------------------------------------------------------------
# Chapter 7 — combination algorithms
# ---------------------------------------------------------------------------


def fig29_31_combine_two(ctx: ExperimentContext, uid: int,
                         first_limit: int = 3) -> Dict[str, List[Dict[str, float]]]:
    """Figures 29–31 — Combine-Two intensity variation, AND vs AND_OR semantics."""
    preferences = ctx.preferences(uid)
    output: Dict[str, List[Dict[str, float]]] = {}
    for semantics in (AND_SEMANTICS, AND_OR_SEMANTICS):
        algorithm = CombineTwoAlgorithm(ctx.runner, semantics=semantics)
        for first_index in range(min(first_limit, len(preferences))):
            records = algorithm.run_for_first(preferences, first_index)
            series_name = f"pref{first_index + 1}_{semantics}"
            output[series_name] = [
                {
                    "order": index,
                    "intensity": record.intensity,
                    "tuples": record.tuple_count,
                    "applicable": record.is_applicable,
                }
                for index, record in enumerate(records)
            ]
    return output


def fig32_34_partially_combine_all(ctx: ExperimentContext, uid: int,
                                   sizes: Sequence[int] = (2, 5, 10)) -> Dict[str, Any]:
    """Figures 32–34 — Partially-Combine-All intensity variation per size."""
    algorithm, records = _partial_records(ctx, uid)
    by_size = {size: [record.intensity
                      for record in algorithm.records_of_size(records, size)]
               for size in sizes}
    large = [record.intensity
             for record in algorithm.records_of_size_at_least(records, max(sizes))]
    return {
        "uid": uid,
        "by_size": by_size,
        "at_least_largest": large,
        "total_combinations": len(records),
    }


def fig35_36_bias_random(ctx: ExperimentContext, uid: int,
                         repetitions: int = 20,
                         seed: int = 1234) -> List[Dict[str, int]]:
    """Figures 35/36 — valid vs invalid combinations per randomised run."""
    preferences = ctx.preferences(uid)
    algorithm = BiasRandomSelectionAlgorithm(ctx.runner, rng=random.Random(seed))
    runs = algorithm.run_many(preferences, repetitions)
    rows = [{"valid": run.valid_combinations, "invalid": run.invalid_combinations}
            for run in runs]
    return sorted(rows, key=lambda row: (row["valid"], row["invalid"]))


def fig37_38_peps_vs_ta(ctx: ExperimentContext, uid: int,
                        intensity_threshold: float = 0.5) -> Dict[str, Any]:
    """Figures 37/38 — PEPS against Fagin's TA.

    Part 1 uses quantitative-only preferences: PEPS and TA must produce the
    same ranking (similarity = overlap = 1.0).  Part 2 uses the full HYPRE
    graph: PEPS sees more preferences, so it retrieves more tuples above the
    intensity threshold and assigns higher scores.
    """
    profile = ctx.profile(uid)
    quantitative_only = make_preferences(
        [(pref.predicate_sql, pref.intensity) for pref in profile.quantitative])
    full_graph = ctx.preferences(uid)

    k = 50

    # Part 1 — quantitative only: both algorithms see the same preferences.
    grade_lists = build_grade_lists(ctx.runner, quantitative_only)
    ta_result = ThresholdAlgorithm(grade_lists).top_k(k)
    peps_qu60 = PEPSAlgorithm(ctx.runner, quantitative_only)
    peps_result = peps_qu60.top_k(k)
    ta_ids = [pid for pid, _ in ta_result.ranking]
    peps_ids = [pid for pid, _ in peps_result]
    quantitative_similarity = similarity(peps_ids[: len(ta_ids)], ta_ids)
    quantitative_overlap = overlap(peps_ids, ta_ids)

    # Part 2 — full graph for PEPS, quantitative-only grades for TA.
    peps_full = PEPSAlgorithm(ctx.runner, full_graph)
    peps_above = peps_full.retrieved_above(intensity_threshold)
    ta_scores = ThresholdAlgorithm(grade_lists).all_scores()
    ta_above = sorted(((pid, score) for pid, score in ta_scores.items()
                       if score >= intensity_threshold),
                      key=lambda item: (-item[1], item[0]))
    common_similarity = similarity([pid for pid, _ in peps_above],
                                   [pid for pid, _ in ta_above])
    common_overlap = overlap([pid for pid, _ in peps_above],
                             [pid for pid, _ in ta_above])
    return {
        "uid": uid,
        "threshold": intensity_threshold,
        "quantitative_similarity": quantitative_similarity,
        "quantitative_overlap": quantitative_overlap,
        "peps_tuples_above_threshold": len(peps_above),
        "ta_tuples_above_threshold": len(ta_above),
        "peps_intensity_series": [score for _, score in peps_above],
        "ta_intensity_series": [score for _, score in ta_above],
        "full_similarity": common_similarity,
        "full_overlap": common_overlap,
    }


def fig39_40_peps_time(ctx: ExperimentContext, uid: int,
                       k_values: Sequence[int] = (10, 100, 200, 400, 800)) -> List[Dict[str, float]]:
    """Figures 39/40 — PEPS execution time while K grows (complete vs approximate).

    Both variants answer through the same fold, so their answers and their
    work are identical here; each row also reports what still tells them
    apart, the size of each variant's ``ORDER`` list.
    """
    preferences = ctx.preferences(uid)
    pair_index = IncrementalPairIndex(ctx.runner, preferences)
    variants = {label: PEPSAlgorithm(ctx.runner, preferences,
                                     approximate=approximate, pair_index=pair_index)
                for label, approximate in (("approximate", True), ("complete", False))}
    order_sizes = {label: len(algorithm.order_combinations())
                   for label, algorithm in variants.items()}
    rows: List[Dict[str, float]] = []
    for k in k_values:
        row: Dict[str, float] = {"k": k}
        for label, algorithm in variants.items():
            start = time.perf_counter()
            algorithm.top_k(k)
            row[f"{label}_seconds"] = time.perf_counter() - start
            row[f"{label}_order_list"] = order_sizes[label]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Propositions and ablations
# ---------------------------------------------------------------------------


def prop3_4_counting(max_n: int = 12, verify_up_to: int = 8) -> Dict[str, Any]:
    """Propositions 3/4 — combination-count growth plus enumeration checks."""
    verification = []
    for n in range(1, verify_up_to + 1):
        items = list(range(n))
        verification.append({
            "n": n,
            "and_only_formula": and_only_upper_bound(n),
            "and_only_enumerated": count_and_combinations(items),
            "and_or_formula": and_or_upper_bound(n),
            "and_or_enumerated": count_and_or_combinations(items),
        })
    return {"growth": growth_table(max_n), "verification": verification}


def ablation_combination_functions(ctx: ExperimentContext, uid: int,
                                   k: int = 25) -> Dict[str, Any]:
    """Ablation — how the choice of combination function changes the ranking.

    Ranks the user's covered tuples with the inflationary (f_and), reserved
    (f_or) and dominant (max) composition functions and reports pairwise
    similarity/overlap against the inflationary baseline.
    """
    preferences = ctx.preferences(uid)
    matched: Dict[int, List[float]] = {}
    for preference in preferences:
        for pid in ctx.runner.ids(preference.predicate):
            matched.setdefault(pid, []).append(preference.intensity)

    def rank(function) -> List[int]:
        scores = {}
        for pid, values in matched.items():
            accumulated = values[0]
            for value in values[1:]:
                accumulated = function(accumulated, value)
            scores[pid] = accumulated
        ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [pid for pid, _ in ordered[:k]]

    baseline = rank(f_and)
    reserved = rank(f_or)
    dominant = rank(f_dominant)
    return {
        "uid": uid,
        "k": k,
        "reserved_similarity": similarity(baseline, reserved),
        "reserved_overlap": overlap(baseline, reserved),
        "dominant_similarity": similarity(baseline, dominant),
        "dominant_overlap": overlap(baseline, dominant),
    }


def ablation_default_strategies(ctx: ExperimentContext, uid: int) -> Dict[str, Dict[str, float]]:
    """Ablation — DEFAULT_VALUE strategy effect on graph size and coverage."""
    profile = ctx.profile(uid)
    total = ctx.total_papers()
    results: Dict[str, Dict[str, float]] = {}
    for strategy in ("default", "min_pos", "max_pos", "avg", "avg_pos"):
        builder = HypreGraphBuilder(default_strategy=strategy)
        builder.build_profile(UserProfile(
            uid=profile.uid,
            quantitative=list(profile.quantitative),
            qualitative=list(profile.qualitative),
        ))
        pairs = builder.hypre.quantitative_preferences(uid, include_negative=False)
        covered = _covered(ctx, pairs)
        results[strategy] = {
            "preferences": len(pairs),
            "covered_tuples": len(covered),
            "coverage_fraction": len(covered) / total if total else 0.0,
        }
    return results
