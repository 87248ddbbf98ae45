"""Tests for alpha computation and front-to-back blending primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.blending import alpha_from_maha, blend_pixels, compute_alpha, finalize_image
from repro.render.common import ALPHA_MAX, ALPHA_MIN


class TestComputeAlpha:
    def test_peak_alpha_at_centre_equals_opacity(self):
        conic = np.array([0.5, 0.0, 0.5])
        alpha = compute_alpha(conic, 0.7, np.array([0.0]), np.array([0.0]))
        assert alpha[0] == pytest.approx(0.7)

    def test_alpha_is_clamped_to_maximum(self):
        conic = np.array([0.5, 0.0, 0.5])
        alpha = compute_alpha(conic, 1.0, np.array([0.0]), np.array([0.0]))
        assert alpha[0] == pytest.approx(ALPHA_MAX)

    def test_values_below_threshold_are_zeroed(self):
        conic = np.array([1.0, 0.0, 1.0])
        alpha = compute_alpha(conic, 0.9, np.array([10.0]), np.array([10.0]))
        assert alpha[0] == 0.0

    def test_alpha_decreases_with_distance(self):
        conic = np.array([0.2, 0.0, 0.2])
        dx = np.array([0.0, 1.0, 2.0, 3.0])
        alpha = compute_alpha(conic, 0.9, dx, np.zeros_like(dx))
        nonzero = alpha[alpha > 0]
        assert np.all(np.diff(nonzero) <= 0)

    @given(
        opacity=st.floats(min_value=ALPHA_MIN, max_value=1.0),
        dx=st.floats(min_value=-5.0, max_value=5.0),
        dy=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_alpha_always_in_valid_range(self, opacity, dx, dy):
        conic = np.array([0.3, 0.05, 0.4])
        alpha = compute_alpha(conic, opacity, np.array([dx]), np.array([dy]))
        assert alpha[0] == 0.0 or ALPHA_MIN <= alpha[0] <= ALPHA_MAX


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_form_matches_the_allocating_form_bitwise(self, dtype):
        # The vectorized tile kernel runs the clamp/threshold through
        # ``out=``; the reference loop through the allocating form.
        rng = np.random.default_rng(7)
        maha = rng.uniform(0.0, 30.0, size=(40, 16, 16)).astype(dtype)
        opacity = rng.uniform(0.0, 1.0, size=(40, 1, 1)).astype(dtype)
        maha[0, 0, 0], opacity[0] = 0.0, 1.0  # clamped
        expected = alpha_from_maha(maha, opacity)
        out = np.empty_like(maha)
        assert alpha_from_maha(maha, opacity, out=out) is out
        assert out.dtype == expected.dtype == dtype
        assert np.array_equal(out, expected)
        assert (out == 0).any() and (out == dtype(ALPHA_MAX)).any()


class TestBlendPixels:
    def test_blending_reduces_transmittance(self):
        color = np.zeros((4, 3))
        trans = np.ones(4)
        alpha = np.array([0.5, 0.25, 0.0, 0.9])
        count = blend_pixels(color, trans, alpha, np.array([1.0, 0.0, 0.0]), 1e-4)
        assert count == 3
        assert np.allclose(trans, [0.5, 0.75, 1.0, 0.1])

    def test_color_accumulates_weighted_contribution(self):
        color = np.zeros((1, 3))
        trans = np.ones(1)
        blend_pixels(color, trans, np.array([0.5]), np.array([0.2, 0.4, 0.6]), 1e-4)
        assert np.allclose(color[0], [0.1, 0.2, 0.3])

    def test_saturated_pixels_are_skipped(self):
        color = np.zeros((2, 3))
        trans = np.array([1e-6, 1.0])
        count = blend_pixels(color, trans, np.array([0.5, 0.5]), np.array([1.0, 1.0, 1.0]), 1e-4)
        assert count == 1
        assert color[0, 0] == 0.0
        assert trans[0] == pytest.approx(1e-6)

    def test_zero_alpha_contributes_nothing(self):
        color = np.zeros((2, 3))
        trans = np.ones(2)
        count = blend_pixels(color, trans, np.zeros(2), np.ones(3), 1e-4)
        assert count == 0
        assert np.allclose(trans, 1.0)

    @given(alphas=st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_transmittance_is_monotone_non_increasing(self, alphas):
        color = np.zeros((1, 3))
        trans = np.ones(1)
        previous = 1.0
        for alpha in alphas:
            blend_pixels(color, trans, np.array([alpha]), np.array([0.5, 0.5, 0.5]), 1e-6)
            assert trans[0] <= previous + 1e-12
            previous = trans[0]
        assert trans[0] >= 0.0

    @given(alphas=st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_blended_color_bounded_by_input_color(self, alphas):
        # Blending a constant colour c can never exceed c per channel.
        color = np.zeros((1, 3))
        trans = np.ones(1)
        target = np.array([0.3, 0.6, 0.9])
        for alpha in alphas:
            blend_pixels(color, trans, np.array([alpha]), target, 1e-6)
        assert np.all(color[0] <= target + 1e-9)


class TestFinalizeImage:
    def test_background_fills_untouched_pixels(self):
        color = np.zeros((2, 2, 3))
        trans = np.ones((2, 2))
        image = finalize_image(color, trans, (0.1, 0.2, 0.3))
        assert np.allclose(image[0, 0], [0.1, 0.2, 0.3])

    def test_opaque_pixels_ignore_background(self):
        color = np.full((1, 1, 3), 0.7)
        trans = np.zeros((1, 1))
        image = finalize_image(color, trans, (1.0, 1.0, 1.0))
        assert np.allclose(image[0, 0], 0.7)
