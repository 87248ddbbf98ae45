"""Tests for the LOD pyramid: ranking, nesting, validity and quality scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.frames import FrameSpec, render_frame
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import SH_COEFFS_PER_CHANNEL
from repro.gaussians.synthetic import make_camera, make_scene
from repro.store.lod import (
    LodPyramid,
    build_lod_pyramid,
    importance_scores,
    lod_keep_count,
    pyramid_quality,
    select_lod,
)


class TestImportance:
    def test_opacity_and_footprint_both_matter(self):
        # Four Gaussians: big+opaque, big+transparent, small+opaque, small+transparent.
        scene = GaussianScene(
            means=np.zeros((4, 3)),
            scales=np.array(
                [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.01, 0.01, 0.01], [0.01, 0.01, 0.01]]
            ),
            quaternions=np.tile([1.0, 0, 0, 0], (4, 1)),
            opacities=np.array([0.9, 0.01, 0.9, 0.01]),
            sh_coeffs=np.zeros((4, 3, SH_COEFFS_PER_CHANNEL)),
        )
        scores = importance_scores(scene)
        assert np.argmax(scores) == 0  # big opaque wins
        assert np.argmin(scores) == 3  # small transparent loses

    def test_footprint_uses_two_largest_axes(self):
        # A needle (one long axis) beats a sliver of the same max axis but
        # tiny second axis only if its *second* axis is larger.
        scene = GaussianScene(
            means=np.zeros((2, 3)),
            scales=np.array([[1.0, 0.5, 0.001], [1.0, 0.01, 0.001]]),
            quaternions=np.tile([1.0, 0, 0, 0], (2, 1)),
            opacities=np.array([0.5, 0.5]),
            sh_coeffs=np.zeros((2, 3, SH_COEFFS_PER_CHANNEL)),
        )
        scores = importance_scores(scene)
        assert scores[0] > scores[1]
        assert scores[0] == pytest.approx(0.5 * 1.0 * 0.5)

    def test_empty_scene(self):
        assert importance_scores(GaussianScene.empty()).shape == (0,)


class TestSelection:
    def test_level_zero_is_the_same_object(self, smoke_scene):
        assert select_lod(smoke_scene, 0) is smoke_scene

    def test_counts_follow_ratio(self):
        assert lod_keep_count(1000, 0) == 1000
        assert lod_keep_count(1000, 1) == 500
        assert lod_keep_count(1000, 2) == 250
        assert lod_keep_count(1000, 3, ratio=0.1) == 1
        assert lod_keep_count(0, 5) == 0

    def test_non_empty_scene_never_prunes_to_zero(self, smoke_scene):
        deep = select_lod(smoke_scene, 64)
        assert deep.num_gaussians == 1

    def test_invalid_arguments(self, smoke_scene):
        with pytest.raises(ValueError, match="non-negative"):
            select_lod(smoke_scene, -1)
        with pytest.raises(ValueError, match="ratio"):
            select_lod(smoke_scene, 1, ratio=1.5)

    def test_levels_are_nested_and_order_preserving(self, smoke_scene):
        previous = None
        for level in range(4):
            scene = select_lod(smoke_scene, level)
            rows = {tuple(m) for m in scene.means}
            if previous is not None:
                assert rows <= previous, f"level {level} not nested"
            previous = rows
            # Original order preserved: means appear in the same relative
            # order as in the full scene.
            full_index = {tuple(m): i for i, m in enumerate(smoke_scene.means)}
            positions = [full_index[tuple(m)] for m in scene.means]
            assert positions == sorted(positions)

    def test_each_level_is_valid(self, smoke_scene):
        for level in range(4):
            select_lod(smoke_scene, level).validate()


class TestPyramid:
    def test_build_counts(self, smoke_scene):
        pyramid = build_lod_pyramid(smoke_scene, num_levels=3)
        assert pyramid.num_levels == 3
        counts = [lvl.num_gaussians for lvl in pyramid.levels]
        assert counts[0] == smoke_scene.num_gaussians
        assert counts == sorted(counts, reverse=True)
        fractions = pyramid.keep_fractions()
        assert fractions[0] == 1.0
        assert fractions[1] == pytest.approx(0.5, abs=0.01)

    def test_level_accessor_bounds(self, smoke_scene):
        pyramid = build_lod_pyramid(smoke_scene, num_levels=2)
        assert pyramid.level(0) is smoke_scene
        with pytest.raises(IndexError):
            pyramid.level(2)

    def test_empty_scene_pyramid(self):
        pyramid = build_lod_pyramid(GaussianScene.empty(), num_levels=3)
        assert [lvl.num_gaussians for lvl in pyramid.levels] == [0, 0, 0]
        assert pyramid.keep_fractions() == [1.0, 1.0, 1.0]

    def test_at_least_one_level(self, smoke_scene):
        with pytest.raises(ValueError):
            build_lod_pyramid(smoke_scene, num_levels=0)
        with pytest.raises(ValueError):
            LodPyramid(levels=())


class TestQuality:
    def test_pyramid_quality_scores_against_level_zero(self):
        scene = make_scene("smoke", scale=0.5)
        camera = make_camera("smoke", image_scale=0.5)
        spec = FrameSpec()
        pyramid = build_lod_pyramid(scene, num_levels=3)
        report = pyramid_quality(
            pyramid, lambda s: render_frame(s, camera, spec).image
        )
        assert [entry["level"] for entry in report] == [0, 1, 2]
        assert report[0]["psnr_db"] == float("inf")
        assert report[0]["lpips_proxy"] == 0.0
        for entry in report[1:]:
            assert np.isfinite(entry["psnr_db"])
            assert 0.0 <= entry["lpips_proxy"] <= 1.5
        # Quality can only degrade (weakly) as detail halves.
        assert report[1]["psnr_db"] >= report[2]["psnr_db"]
