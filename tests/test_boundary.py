"""Tests for alpha-based boundary identification (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.bounds import alpha_footprint_mask
from repro.render.reference import identify_influence_blocks

# Strategy: well-conditioned conics (inverse covariances).
conic_strategy = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=-0.05, max_value=0.05),
    st.floats(min_value=0.01, max_value=1.0),
).filter(lambda c: c[0] * c[2] - c[1] * c[1] > 1e-4)


class TestStartPixelConvention:
    def test_fractional_centre_starts_in_containing_block(self):
        # Centre x = 15.6 lies in pixel 15 => block 1 (block_size 8); a
        # rounded start (pixel 16 => block 2) begins one block too far right
        # but must still not change the identified block set.
        centre = np.array([15.6, 12.0])
        conic = np.array([0.3, 0.0, 0.3])
        result = identify_influence_blocks(centre, conic, 0.9, 64, 64, block_size=8)
        brute = alpha_footprint_mask(centre, conic, 0.9, 64, 64)
        covered = np.zeros_like(brute)
        for by, bx in result.blocks:
            covered[by * 8 : (by + 1) * 8, bx * 8 : (bx + 1) * 8] = True
        assert np.all(~brute | covered)
        assert (12 // 8, 15 // 8) in result.blocks


class TestBlockLevelIdentification:
    def test_blocks_cover_every_influenced_pixel(self):
        width = height = 64
        centre = np.array([30.0, 28.0])
        conic = np.array([0.05, 0.01, 0.08])
        opacity = 0.9
        result = identify_influence_blocks(centre, conic, opacity, width, height, block_size=8)
        brute = alpha_footprint_mask(centre, conic, opacity, width, height)
        covered = np.zeros_like(brute)
        for by, bx in result.blocks:
            covered[by * 8 : (by + 1) * 8, bx * 8 : (bx + 1) * 8] = True
        assert np.all(~brute | covered)

    def test_visited_blocks_bounded_by_footprint_plus_ring(self):
        width = height = 128
        centre = np.array([64.0, 64.0])
        conic = np.array([0.02, 0.0, 0.02])
        result = identify_influence_blocks(centre, conic, 1.0, width, height, block_size=8)
        assert result.blocks_visited <= len(result.blocks) * 3 + 8

    def test_low_opacity_shrinks_block_set(self):
        width = height = 128
        centre = np.array([64.0, 64.0])
        conic = np.array([0.02, 0.0, 0.02])
        high = identify_influence_blocks(centre, conic, 1.0, width, height, block_size=8)
        low = identify_influence_blocks(centre, conic, 0.02, width, height, block_size=8)
        assert len(low.blocks) < len(high.blocks)

    def test_saturated_blocks_are_skipped_but_traversal_continues(self):
        width = height = 64
        centre = np.array([32.0, 32.0])
        conic = np.array([0.01, 0.0, 0.01])
        blocks_y = blocks_x = 8
        saturated = np.zeros((blocks_y, blocks_x), dtype=bool)
        saturated[4, 4] = True  # the centre block is saturated
        result = identify_influence_blocks(
            centre, conic, 1.0, width, height, block_size=8, saturated_blocks=saturated
        )
        assert result.blocks_skipped_tmask >= 1
        assert (4, 4) not in result.blocks
        # Neighbouring blocks are still reached through the saturated one.
        assert len(result.blocks) > 0

    def test_fully_saturated_mask_returns_no_blocks(self):
        width = height = 32
        saturated = np.ones((4, 4), dtype=bool)
        result = identify_influence_blocks(
            np.array([16.0, 16.0]), np.array([0.05, 0.0, 0.05]), 0.9,
            width, height, block_size=8, saturated_blocks=saturated,
        )
        assert result.blocks == []
        assert result.blocks_skipped_tmask > 0

    def test_offscreen_centre_starts_from_nearest_block(self):
        width = height = 64
        centre = np.array([-20.0, 10.0])
        conic = np.array([0.002, 0.0, 0.002])  # very large footprint
        result = identify_influence_blocks(centre, conic, 1.0, width, height, block_size=8)
        assert len(result.blocks) > 0

    def test_sub_threshold_opacity_returns_empty(self):
        result = identify_influence_blocks(
            np.array([16.0, 16.0]), np.array([0.1, 0.0, 0.1]), 1e-4, 32, 32, block_size=8
        )
        assert result.blocks == []
        assert result.blocks_visited == 0

    @given(
        conic=conic_strategy,
        opacity=st.floats(min_value=0.05, max_value=1.0),
        block_size=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_blocks_cover_footprint(self, conic, opacity, block_size):
        width = height = 64
        centre = np.array([33.0, 29.5])
        result = identify_influence_blocks(
            centre, np.array(conic), opacity, width, height, block_size=block_size
        )
        brute = alpha_footprint_mask(centre, np.array(conic), opacity, width, height)
        covered = np.zeros_like(brute)
        for by, bx in result.blocks:
            covered[by * block_size : (by + 1) * block_size, bx * block_size : (bx + 1) * block_size] = True
        missed = brute & ~covered
        # Convex footprints with the centre inside the image must be fully
        # covered by the identified blocks.
        assert not missed.any()
