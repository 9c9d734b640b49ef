"""Figure 13 — node insertion time per batch (scaled down from 7B nodes)."""

from __future__ import annotations

from repro.experiments import figures, reporting

from bench_utils import run_once


def test_fig13_batched_node_insertion(benchmark):
    series = run_once(benchmark, figures.fig13_node_insertion,
                      total_nodes=100_000, batch_size=10_000)
    rows = [{"nodes_inserted": total, "batch_seconds": elapsed}
            for total, elapsed in series]
    reporting.print_report("Figure 13 — node insertion time per batch",
                           reporting.format_table(rows))
    # Exact work, not a clock: every batch's nodes come back through the
    # per-user lookup (``len(user_node_ids(batch)) == batch_size``), so the
    # cumulative column grows by exactly one batch per row.
    assert [row["nodes_inserted"] for row in rows] == [
        10_000 * (batch + 1) for batch in range(10)]
