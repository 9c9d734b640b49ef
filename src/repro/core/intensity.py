"""Intensity algebra for the HYPRE model.

Intensity (paper Definition 13) captures the strength of a preference as a
value in ``[-1, 1]``:

* negative values express negative preferences (-1 = complete dislike),
* positive values express positive preferences (1 = most preferred),
* zero means *equally preferred* for qualitative preferences and
  *indifference* for quantitative preferences.

This module implements:

* validation of quantitative (``[-1, 1]``) and qualitative (``[0, 1]``)
  intensity values,
* the node-intensity recomputation functions of Equations 4.1 and 4.2
  (:func:`intensity_left`, :func:`intensity_right`),
* the combination functions of Equations 4.3 and 4.4 — the inflationary
  conjunction :func:`f_and` and the reserved disjunction :func:`f_or` —
  plus the *dominant* alternative discussed in Section 4.6.1, and n-ary
  folds over them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..exceptions import IntensityRangeError

#: Lower bound of the quantitative intensity domain.
MIN_INTENSITY = -1.0
#: Upper bound of the intensity domain.
MAX_INTENSITY = 1.0
#: Intensity expressing indifference (quantitative) / equal preference (qualitative).
INDIFFERENT = 0.0


def validate_quantitative(value: float) -> float:
    """Validate a quantitative intensity (must lie in ``[-1, 1]``)."""
    value = float(value)
    if math.isnan(value) or value < MIN_INTENSITY or value > MAX_INTENSITY:
        raise IntensityRangeError(value, MIN_INTENSITY, MAX_INTENSITY)
    return value


def validate_qualitative(value: float) -> float:
    """Validate a qualitative intensity (must lie in ``[0, 1]``, Def. 14)."""
    value = float(value)
    if math.isnan(value) or value < 0.0 or value > MAX_INTENSITY:
        raise IntensityRangeError(value, 0.0, MAX_INTENSITY)
    return value


def clamp(value: float) -> float:
    """Clamp ``value`` into the legal intensity domain ``[-1, 1]``."""
    return max(MIN_INTENSITY, min(MAX_INTENSITY, float(value)))


def sign(value: float) -> int:
    """Return -1, 0 or 1 following the sign convention of Equation 4.1/4.2."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Node intensity recomputation (Equations 4.1 and 4.2)
# ---------------------------------------------------------------------------


def intensity_left(qualitative: float, quantitative: float) -> float:
    """Equation 4.1 — intensity for the *left* (preferred) node.

    ``Intensity_Left(ql, qt) = min(1, qt * 2^(sign(qt) * ql))``

    The result is always greater than or equal to the given quantitative
    intensity and proportional to the strength ``ql`` of the qualitative
    preference; it never exceeds 1.
    """
    quali = validate_qualitative(qualitative)
    quant = validate_quantitative(quantitative)
    return min(MAX_INTENSITY, quant * (2.0 ** (sign(quant) * quali)))


def intensity_right(qualitative: float, quantitative: float) -> float:
    """Equation 4.2 — intensity for the *right* (less preferred) node.

    ``Intensity_Right(ql, qt) = max(-1, qt * 2^(-sign(qt) * ql))``

    The result is always less than or equal to the given quantitative
    intensity; it never drops below -1.
    """
    quali = validate_qualitative(qualitative)
    quant = validate_quantitative(quantitative)
    return max(MIN_INTENSITY, quant * (2.0 ** (-sign(quant) * quali)))


#: Symbolic positions used by :func:`compute_intensity` (Algorithm 8).
LEFT = "LEFT"
RIGHT = "RIGHT"


def compute_intensity(position: str, qualitative: float, quantitative: float) -> float:
    """Algorithm 8 — dispatch to Eq. 4.1 or 4.2 based on the node position."""
    if position == LEFT:
        return intensity_left(qualitative, quantitative)
    if position == RIGHT:
        return intensity_right(qualitative, quantitative)
    raise ValueError(f"position must be LEFT or RIGHT, got {position!r}")


# ---------------------------------------------------------------------------
# Combination functions (Equations 4.3 and 4.4)
# ---------------------------------------------------------------------------


def f_and(first: float, second: float) -> float:
    """Equation 4.3 — inflationary conjunction ``1 - (1 - p1)(1 - p2)``.

    Used when predicates are combined with an AND operator: a tuple matching
    both predicates should score higher than it would with either alone.
    The function is commutative and associative (Proposition 1), so the order
    in which preferences are folded does not change the result.
    """
    return 1.0 - (1.0 - float(first)) * (1.0 - float(second))


def f_or(first: float, second: float) -> float:
    """Equation 4.4 — reserved disjunction ``(p1 + p2) / 2``.

    Used when predicates are combined with an OR operator: the tuple may match
    only the weaker predicate, so the combined score is penalised to the
    average of the two (Proposition 2 shows the result is order-dependent).
    """
    return (float(first) + float(second)) / 2.0


def f_dominant(first: float, second: float) -> float:
    """Dominant composition — the higher of the two scores wins.

    Not used by the main pipeline, but kept as the third strategy described by
    Stefanidis et al. and exercised by the ablation benchmark.
    """
    return max(float(first), float(second))


def combine_and(values: Iterable[float]) -> float:
    """Fold :func:`f_and` over ``values``: ``1 - prod(1 - p_i)``.

    Raises ``ValueError`` on an empty sequence.
    """
    values = list(values)
    if not values:
        raise ValueError("combine_and requires at least one intensity")
    remainder = 1.0
    for value in values:
        remainder *= (1.0 - float(value))
    return 1.0 - remainder


def combine_or(values: Sequence[float]) -> float:
    """Left fold of :func:`f_or` over ``values`` in the given order.

    ``combine_or([p1, p2, p3]) == f_or(f_or(p1, p2), p3)``; the order matters,
    mirroring the paper's selection order (higher-intensity preferences first).
    """
    values = list(values)
    if not values:
        raise ValueError("combine_or requires at least one intensity")
    accumulated = float(values[0])
    for value in values[1:]:
        accumulated = f_or(accumulated, value)
    return accumulated


def min_preferences_to_beat(target: float, base: float) -> float:
    """Proposition 6 — minimum number of preferences needed to beat ``target``.

    Given a top preference with intensity ``p1 = target`` and remaining
    preferences with intensity at most ``p2 = base``, an AND combination of
    ``K`` preferences of intensity ``p2`` can only reach ``p1`` when
    ``K >= log(1 - p1) / log(1 - p2)``.  Returns ``inf`` when ``base`` is 0
    or so small that ``1 - base`` rounds to 1 (combinations of such
    preferences never improve in float arithmetic) and 1.0 when
    ``base >= target`` or either value saturates at 1.
    """
    target = validate_quantitative(target)
    base = validate_quantitative(base)
    if base >= target:
        return 1.0
    if base >= 1.0 or target >= 1.0:
        return 1.0 if base >= 1.0 else math.inf
    if base <= 0.0:
        return math.inf
    denominator = math.log(1.0 - base)
    if denominator == 0.0:
        return math.inf
    return math.log(1.0 - target) / denominator


def is_negative(value: float) -> bool:
    """``True`` when ``value`` encodes a negative preference."""
    return value < 0.0


def is_indifferent(value: float) -> bool:
    """``True`` when ``value`` encodes indifference / equal preference."""
    return value == INDIFFERENT
