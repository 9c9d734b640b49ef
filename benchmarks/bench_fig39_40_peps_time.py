"""Figures 39/40 — PEPS execution time while K grows (complete vs approximate).

Both variants return identical answers in identical work (one fold over the
preferences' id lists); the rows also carry each variant's ORDER-list size,
the one thing that still differs.
"""

from __future__ import annotations

from repro.experiments import figures, reporting

from bench_utils import run_once

K_VALUES = (10, 100, 200, 400, 800)


def test_fig39_40_peps_time(benchmark, ctx, focus_uid, second_uid):
    first = run_once(benchmark, figures.fig39_40_peps_time, ctx, focus_uid, K_VALUES)
    second = figures.fig39_40_peps_time(ctx, second_uid, K_VALUES)
    print()
    reporting.print_report(f"Figure 39 — PEPS time vs K (uid={focus_uid})",
                           reporting.format_table(first))
    reporting.print_report(f"Figure 40 — PEPS time vs K (uid={second_uid})",
                           reporting.format_table(second))
    for rows in (first, second):
        # Expected shape: retrieval stays in the order of seconds and grows
        # only mildly with K (the paper reports ~1-2.2s up to K=800).
        assert all(row["approximate_seconds"] < 30 for row in rows)
        assert all(row["complete_seconds"] < 30 for row in rows)
        smallest = rows[0]["approximate_seconds"]
        largest = rows[-1]["approximate_seconds"]
        assert largest < max(smallest * 50, 5.0)
        # Proposition 6 keeps every pair the approximate variant keeps, and
        # more: the complete ORDER list is never the shorter one.
        assert all(row["complete_order_list"] >= row["approximate_order_list"] > 0
                   for row in rows)
