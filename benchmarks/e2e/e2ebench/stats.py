"""Order statistics with a sample floor, and the run-set comparison rule."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Above this many samples a percentile is read from an evenly spaced subsample.
SUBSAMPLE_ABOVE = 200_000


def percentile(values: Sequence[float], q: float, floor: int) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` with fewer than ``floor``
    samples beyond it (and, for symmetry, below it)."""
    count = len(values)
    if count * min(q, 1.0 - q) + 1e-9 < floor:
        return None
    if count > SUBSAMPLE_ABOVE:
        values = values[::count // SUBSAMPLE_ABOVE]
        count = len(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * count) - 1)]


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else math.inf


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else (math.inf if delta > 0 else 0.0)


def compare(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """Apply one metric's bound to two sets of runs.

    ``unresolved`` when either set's spread is wider than the bound (the
    noise could hide a regression of that size), else ``worse`` when the
    change's median is worse than the parent's by more than the bound.
    """
    spread = max(relative_spread(parent), relative_spread(change))
    worse_by = worsening(statistics.median(parent), statistics.median(change),
                         better)
    if spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    return {"verdict": verdict, "spread": spread, "worse_by": worse_by,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change)}


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median of a list of same-keyed mappings."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
