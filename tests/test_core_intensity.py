"""Unit tests for the intensity algebra (Equations 4.1–4.4, Propositions 1/2/6)."""

from __future__ import annotations

import math

import pytest

from repro.core.intensity import (
    LEFT,
    RIGHT,
    clamp,
    combine_and,
    combine_or,
    compute_intensity,
    f_and,
    f_dominant,
    f_or,
    intensity_left,
    intensity_right,
    is_indifferent,
    is_negative,
    min_preferences_to_beat,
    sign,
    validate_qualitative,
    validate_quantitative,
)
from repro.exceptions import IntensityRangeError


class TestValidation:
    @pytest.mark.parametrize("value", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_quantitative_accepts_range(self, value):
        assert validate_quantitative(value) == value

    @pytest.mark.parametrize("value", [-1.01, 1.01, 5, float("nan")])
    def test_quantitative_rejects_out_of_range(self, value):
        with pytest.raises(IntensityRangeError):
            validate_quantitative(value)

    @pytest.mark.parametrize("value", [0.0, 0.3, 1.0])
    def test_qualitative_accepts_range(self, value):
        assert validate_qualitative(value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_qualitative_rejects_out_of_range(self, value):
        with pytest.raises(IntensityRangeError):
            validate_qualitative(value)

    def test_clamp(self):
        assert clamp(2.0) == 1.0
        assert clamp(-2.0) == -1.0
        assert clamp(0.25) == 0.25

    def test_sign(self):
        assert sign(0.5) == 1
        assert sign(-0.5) == -1
        assert sign(0.0) == 0

    def test_negative_and_indifferent_helpers(self):
        assert is_negative(-0.2)
        assert not is_negative(0.2)
        assert is_indifferent(0.0)
        assert not is_indifferent(0.1)


class TestNodeIntensityFunctions:
    """Properties required by Section 4.4 for Eq. 4.1 / 4.2."""

    def test_left_is_at_least_right_value(self):
        assert intensity_left(0.5, 0.4) >= 0.4

    def test_right_is_at_most_left_value(self):
        assert intensity_right(0.5, 0.4) <= 0.4

    def test_zero_qualitative_means_equal(self):
        assert intensity_left(0.0, 0.37) == pytest.approx(0.37)
        assert intensity_right(0.0, 0.37) == pytest.approx(0.37)

    def test_left_never_exceeds_one(self):
        assert intensity_left(1.0, 0.9) == 1.0

    def test_right_never_below_minus_one(self):
        assert intensity_right(1.0, -0.9) == -1.0

    def test_stronger_qualitative_means_bigger_gap(self):
        weak = intensity_left(0.1, 0.4)
        strong = intensity_left(0.9, 0.4)
        assert strong > weak

    def test_negative_quantitative_left(self):
        # A negative score becomes less negative on the preferred side.
        value = intensity_left(0.5, -0.4)
        assert -0.4 <= value <= 0.0

    def test_negative_quantitative_right(self):
        value = intensity_right(0.5, -0.4)
        assert value <= -0.4

    def test_compute_intensity_dispatch(self):
        assert compute_intensity(LEFT, 0.3, 0.5) == intensity_left(0.3, 0.5)
        assert compute_intensity(RIGHT, 0.3, 0.5) == intensity_right(0.3, 0.5)
        with pytest.raises(ValueError):
            compute_intensity("MIDDLE", 0.3, 0.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(IntensityRangeError):
            intensity_left(-0.1, 0.5)
        with pytest.raises(IntensityRangeError):
            intensity_left(0.5, 1.5)


class TestCombinationFunctions:
    def test_f_and_matches_paper_example(self):
        # Example 6 / Table 9: f_and(0.8, 0.5) = 0.9 and f_and(0.9, 0.2) = 0.92.
        assert f_and(0.8, 0.5) == pytest.approx(0.9)
        assert f_and(f_and(0.8, 0.5), 0.2) == pytest.approx(0.92)
        assert f_and(0.5, 0.2) == pytest.approx(0.6)

    def test_f_and_is_inflationary_for_positive_inputs(self):
        assert f_and(0.3, 0.4) >= 0.4
        assert f_and(0.3, 0.4) >= 0.3

    def test_f_and_identity_is_zero(self):
        assert f_and(0.42, 0.0) == pytest.approx(0.42)

    def test_f_and_commutative(self):
        assert f_and(0.3, 0.7) == pytest.approx(f_and(0.7, 0.3))

    def test_f_and_associative_proposition1(self):
        a, b, c = 0.6, 0.3, 0.1
        assert f_and(a, f_and(b, c)) == pytest.approx(f_and(f_and(a, b), c))

    def test_f_or_is_reserved(self):
        value = f_or(0.2, 0.8)
        assert 0.2 <= value <= 0.8
        assert value == pytest.approx(0.5)

    def test_f_or_order_dependence_proposition2(self):
        p1, p2, p3 = 0.9, 0.5, 0.1
        first = f_or(p1, f_or(p2, p3))
        second = f_or(p2, f_or(p1, p3))
        third = f_or(p3, f_or(p1, p2))
        assert first >= second >= third

    def test_f_dominant(self):
        assert f_dominant(0.3, 0.8) == 0.8

    def test_combine_and_order_independent(self):
        values = [0.5, 0.2, 0.7]
        assert combine_and(values) == pytest.approx(combine_and(list(reversed(values))))
        assert combine_and(values) == pytest.approx(1 - 0.5 * 0.8 * 0.3)

    def test_combine_and_single_value(self):
        assert combine_and([0.4]) == pytest.approx(0.4)

    def test_combine_or_left_fold(self):
        assert combine_or([0.8, 0.4]) == pytest.approx(0.6)
        assert combine_or([0.8, 0.4, 0.2]) == pytest.approx(f_or(f_or(0.8, 0.4), 0.2))

    def test_empty_combinations_rejected(self):
        with pytest.raises(ValueError):
            combine_and([])
        with pytest.raises(ValueError):
            combine_or([])


class TestProposition6:
    def test_formula(self):
        target, base = 0.9, 0.5
        expected = math.log(1 - target) / math.log(1 - base)
        assert min_preferences_to_beat(target, base) == pytest.approx(expected)

    def test_enough_copies_actually_beat_the_target(self):
        target, base = 0.9, 0.5
        needed = math.ceil(min_preferences_to_beat(target, base))
        assert combine_and([base] * needed) >= target
        assert combine_and([base] * (needed - 1)) < target

    def test_base_not_smaller_than_target_needs_one(self):
        assert min_preferences_to_beat(0.5, 0.5) == 1.0
        assert min_preferences_to_beat(0.4, 0.9) == 1.0

    def test_zero_base_never_beats(self):
        assert min_preferences_to_beat(0.5, 0.0) == math.inf

    def test_base_lost_to_rounding_never_beats(self):
        # 1.0 - 1e-18 == 1.0, so log(1 - base) is 0.0: inf, not a division.
        assert min_preferences_to_beat(0.5, 1e-18) == math.inf

    def test_saturated_target(self):
        assert min_preferences_to_beat(1.0, 0.5) == math.inf
        assert min_preferences_to_beat(1.0, 1.0) == 1.0
