"""Tests for the standard (tile-wise) renderer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gaussians.model import GaussianScene
from repro.render.common import RenderConfig
from repro.render.tile_raster import render_tilewise


def render_at_tile_size(tile_size, scene, camera, monkeypatch):
    """Render with the fixed tile edge patched to ``tile_size``."""
    monkeypatch.setattr(RenderConfig, "tile_size", tile_size)
    return render_tilewise(scene, camera)


class TestBasicRendering:
    def test_empty_scene_renders_background(self, front_camera, monkeypatch):
        monkeypatch.setattr(RenderConfig, "background", (0.25, 0.5, 0.75))
        result = render_tilewise(GaussianScene.empty(), front_camera)
        assert result.image.shape == (front_camera.height, front_camera.width, 3)
        assert np.allclose(result.image, [0.25, 0.5, 0.75])
        assert result.stats.num_rendered == 0

    def test_single_gaussian_colours_the_centre(self, single_gaussian_scene, front_camera):
        result = render_tilewise(single_gaussian_scene, front_camera)
        centre = result.image[front_camera.height // 2, front_camera.width // 2]
        corner = result.image[0, 0]
        # Centre picks up the Gaussian's colour (0.2, 0.6, 0.9); the corner
        # stays at the background.
        assert centre[2] > 0.5
        assert np.allclose(corner, 0.0, atol=1e-6)
        assert result.stats.num_rendered == 1

    def test_image_values_are_finite_and_nonnegative(self, smoke_scene, smoke_camera):
        result = render_tilewise(smoke_scene, smoke_camera)
        assert np.all(np.isfinite(result.image))
        assert np.all(result.image >= 0.0)


class TestStatisticsConsistency:
    def test_counts_are_internally_consistent(self, smoke_scene, smoke_camera):
        stats = render_tilewise(smoke_scene, smoke_camera).stats
        assert stats.num_total == smoke_scene.num_gaussians
        assert stats.num_preprocessed <= stats.num_depth_passed <= stats.num_total
        assert stats.num_rendered <= stats.num_assigned <= stats.num_preprocessed
        assert stats.num_pairs_processed <= stats.num_tile_pairs
        assert stats.pixels_blended <= stats.alpha_evaluations

    def test_rendered_indices_refer_to_original_scene(self, smoke_scene, smoke_camera):
        stats = render_tilewise(smoke_scene, smoke_camera).stats
        assert stats.rendered_indices.size == stats.num_rendered
        assert np.all(stats.rendered_indices < smoke_scene.num_gaussians)
        assert np.all(stats.rendered_indices >= 0)

    def test_average_loads_at_least_one(self, smoke_scene, smoke_camera):
        stats = render_tilewise(smoke_scene, smoke_camera).stats
        assert stats.avg_loads_per_gaussian >= 1.0 or stats.num_assigned == 0

    def test_distinct_processed_bounds(self, smoke_scene, smoke_camera):
        stats = render_tilewise(smoke_scene, smoke_camera).stats
        assert stats.num_distinct_processed <= stats.num_assigned
        assert stats.num_distinct_processed <= stats.num_pairs_processed
        assert stats.num_rendered <= stats.num_distinct_processed

    def test_average_loads_uses_distinct_processed_denominator(self):
        from repro.render.tile_raster import TileWiseStats

        # 30 processed pairs from 10 distinct Gaussians, while 15 Gaussians
        # were assigned overall: the Figure 2b re-load factor divides by the
        # Gaussians actually loaded by the rendering loop, not by everyone
        # who was assigned a (possibly skipped) pair.
        stats = TileWiseStats(
            num_assigned=15, num_pairs_processed=30, num_distinct_processed=10
        )
        assert stats.avg_loads_per_gaussian == 3.0

    def test_rendered_fraction_between_zero_and_one(self, smoke_scene, smoke_camera):
        stats = render_tilewise(smoke_scene, smoke_camera).stats
        assert 0.0 <= stats.rendered_fraction <= 1.0

    def test_smaller_tiles_create_more_pairs(self, smoke_scene, smoke_camera, monkeypatch):
        small = render_at_tile_size(8, smoke_scene, smoke_camera, monkeypatch).stats
        large = render_at_tile_size(32, smoke_scene, smoke_camera, monkeypatch).stats
        assert small.num_tile_pairs >= large.num_tile_pairs

    def test_tile_size_barely_changes_image(self, smoke_scene, smoke_camera, monkeypatch):
        # Coarser tiles admit a few extra fringe pixels (between 3 sigma and
        # the alpha threshold) for near-opaque Gaussians; the images must stay
        # visually identical.
        from repro.render.metrics import psnr

        image_a = render_at_tile_size(8, smoke_scene, smoke_camera, monkeypatch).image
        image_b = render_at_tile_size(32, smoke_scene, smoke_camera, monkeypatch).image
        assert psnr(image_a, image_b) > 45.0


class TestEarlyTermination:
    def test_opaque_wall_terminates_processing(self, front_camera):
        # Many co-located opaque Gaussians: only the nearest few should blend.
        count = 50
        means = np.zeros((count, 3))
        means[:, 2] = np.linspace(0.0, 1.0, count)  # increasing depth
        scene = GaussianScene.from_flat_colors(
            means=means,
            scales=np.full((count, 3), 5.0),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (count, 1)),
            opacities=np.full(count, 0.99),
            rgb=np.tile([0.5, 0.5, 0.5], (count, 1)),
        )
        stats = render_tilewise(scene, front_camera).stats
        assert stats.num_rendered < count
        assert stats.num_pairs_processed < stats.num_tile_pairs
