"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on the shared
``small``-scale synthetic workload and prints the reproduced rows/series so
the run output can be compared side by side with the paper (see
EXPERIMENTS.md).  ``pytest benchmarks/ --benchmark-only`` runs everything.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import ExperimentContext

#: Workload scale used by all benchmarks; "small" keeps a full run under a
#: couple of minutes while preserving every qualitative shape.
BENCH_SCALE = "small"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """The shared experiment context (workload + profiles + HYPRE graph)."""
    context = ExperimentContext.create(scale=BENCH_SCALE, profile_users=30)
    yield context
    context.close()


@pytest.fixture(scope="session")
def focus_uid(ctx) -> int:
    """The preference-richest user (the paper's uid=2 stand-in)."""
    return ctx.focus_users[0]


@pytest.fixture(scope="session")
def second_uid(ctx) -> int:
    """The second focus user (the paper's uid=38437 stand-in)."""
    return ctx.focus_users[1] if len(ctx.focus_users) > 1 else ctx.focus_users[0]


def pytest_collection_modifyitems(config, items):
    """``scale_large`` benchmarks run only when ``-m`` asks for them."""
    if "scale_large" in config.getoption("-m"):
        return
    skip = pytest.mark.skip(reason="opt in with -m scale_large")
    for item in items:
        if "scale_large" in item.keywords:
            item.add_marker(skip)
