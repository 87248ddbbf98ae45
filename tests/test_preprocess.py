"""Tests for projection, culling and footprint radii (Stages I-III).

The standard dataflow's preprocessing is GCC's Stages I-III with every
condition taken, so ``TestStagesIToIII`` ties the two dataflows together
on every quick preset: the Gaussian-wise renderer with cross-stage
conditions off projects and colours exactly the Gaussians
``project_scene`` does; ``TestProjectGeometry`` holds Stage II to being per
Gaussian, so projecting a depth group, a window of groups or a frame at once
gives every Gaussian the same bits.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import EvalSetup, load_scene_and_camera, run_gaussianwise
from repro.gaussians.presets import QUICK_SCENES
from repro.render.common import RenderConfig
from repro.render.gaussian_raster import render_gaussianwise
from repro.render.preprocess import (
    GeometryProjection,
    bounding_radius,
    frustum_cull_depths,
    project_geometry,
    project_scene,
    tile_range,
)
from repro.render.reference import render_gaussianwise_reference


class TestBoundingRadius:
    def test_3sigma_radius_matches_formula(self):
        eigenvalues = np.array([[4.0, 1.0]])
        radius = bounding_radius(eigenvalues, np.array([1.0]), rule="3sigma")
        assert radius[0] == pytest.approx(np.ceil(3.0 * 2.0))

    def test_omega_sigma_shrinks_with_opacity(self):
        eigenvalues = np.array([[4.0, 1.0], [4.0, 1.0]])
        opacities = np.array([1.0, 0.01])
        radii = bounding_radius(eigenvalues, opacities, rule="omega-sigma")
        assert radii[1] < radii[0]

    def test_omega_sigma_is_zero_below_alpha_min(self):
        eigenvalues = np.array([[4.0, 1.0]])
        radii = bounding_radius(eigenvalues, np.array([1.0 / 512.0]), rule="omega-sigma")
        assert radii[0] == 0.0

    def test_omega_sigma_exceeds_3sigma_for_full_opacity(self):
        # For omega = 1 the threshold is sqrt(2 ln 255) ~ 3.33 sigma > 3 sigma.
        eigenvalues = np.array([[9.0, 1.0]])
        r3 = bounding_radius(eigenvalues, np.array([1.0]), rule="3sigma")
        rw = bounding_radius(eigenvalues, np.array([1.0]), rule="omega-sigma")
        assert rw[0] >= r3[0]

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError):
            bounding_radius(np.array([[1.0, 1.0]]), np.array([1.0]), rule="5sigma")


class TestFrustumCull:
    def test_points_behind_camera_are_culled(self, front_camera):
        from repro.gaussians.model import GaussianScene

        scene = GaussianScene.from_flat_colors(
            means=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -10.0]]),
            scales=np.full((2, 3), 0.1),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
            opacities=np.array([0.9, 0.9]),
            rgb=np.full((2, 3), 0.5),
        )
        depths, keep = frustum_cull_depths(scene, front_camera)
        assert keep[0]
        assert not keep[1]
        assert depths[0] == pytest.approx(3.0)

    def test_near_plane_threshold_applies(self, front_camera):
        from repro.gaussians.model import GaussianScene

        scene = GaussianScene.from_flat_colors(
            means=np.array([[0.0, 0.0, -2.9]]),  # 0.1 in front of the camera
            scales=np.full((1, 3), 0.05),
            quaternions=np.array([[1.0, 0.0, 0.0, 0.0]]),
            opacities=np.array([0.9]),
            rgb=np.full((1, 3), 0.5),
        )
        _, keep = frustum_cull_depths(scene, front_camera)
        assert not keep[0]


class TestProjectScene:
    def test_counts_are_consistent(self, smoke_scene, smoke_camera):
        projected = project_scene(smoke_scene, smoke_camera)
        assert projected.num_total == smoke_scene.num_gaussians
        assert 0 <= projected.num_visible <= projected.num_depth_passed <= projected.num_total

    def test_empty_scene_projects_to_empty(self, smoke_camera):
        from repro.gaussians.model import GaussianScene

        projected = project_scene(GaussianScene.empty(), smoke_camera)
        assert projected.num_visible == 0
        assert projected.num_total == 0

    def test_single_gaussian_projects_near_centre(self, single_gaussian_scene, front_camera):
        projected = project_scene(single_gaussian_scene, front_camera)
        assert projected.num_visible == 1
        assert projected.means2d[0, 0] == pytest.approx(front_camera.cx, abs=1.0)
        assert projected.means2d[0, 1] == pytest.approx(front_camera.cy, abs=1.0)
        assert projected.depths[0] == pytest.approx(3.0, abs=1e-6)

    def test_colors_and_conics_have_matching_rows(self, smoke_scene, smoke_camera):
        projected = project_scene(smoke_scene, smoke_camera)
        assert projected.colors.shape == (projected.num_visible, 3)
        assert projected.conics.shape == (projected.num_visible, 3)
        assert projected.radii.shape == (projected.num_visible,)

    def test_omega_sigma_rule_prunes_more_or_equal(self, smoke_scene, smoke_camera):
        normal = project_scene(smoke_scene, smoke_camera, RenderConfig(radius_rule="3sigma"))
        tight = project_scene(smoke_scene, smoke_camera, RenderConfig(radius_rule="omega-sigma"))
        # The opacity-aware radius can only shrink footprints of translucent
        # Gaussians, so the visible count cannot grow by more than the few
        # near-opaque Gaussians whose radius grows from 3 to 3.33 sigma.
        assert tight.num_visible <= normal.num_visible + smoke_scene.num_gaussians * 0.05


class TestStagesIToIII:
    @pytest.mark.parametrize(
        "render",
        [render_gaussianwise, render_gaussianwise_reference],
        ids=["vectorized", "reference"],
    )
    @pytest.mark.parametrize("name", sorted(QUICK_SCENES))
    def test_no_cc_matches_project_scene(self, name, render):
        scene, camera = load_scene_and_camera(EvalSetup(name, quick=True))
        config = RenderConfig(radius_rule="omega-sigma")
        projected = project_scene(scene, camera, config)
        stats = render(scene, camera, config, enable_cc=False).stats
        assert stats.num_projected == stats.num_stage1_passed == projected.num_depth_passed
        assert stats.num_screen_passed == stats.num_sh_evaluated == projected.num_visible

    @pytest.mark.parametrize("name", sorted(QUICK_SCENES))
    def test_cc_only_removes_sh_work(self, name):
        # One backend suffices: both engines' counters are integer-identical
        # (test_engine_equivalence.py).
        scene, camera = load_scene_and_camera(EvalSetup(name, quick=True))
        projected = project_scene(scene, camera, RenderConfig(radius_rule="omega-sigma"))
        stats = run_gaussianwise(EvalSetup(name, quick=True)).stats
        assert stats.num_sh_evaluated <= projected.num_visible


@lru_cache(maxsize=None)
def stage_one_and_whole(name: str, radius_rule: str):
    """A quick preset, its camera, its Stage I survivors, and Stage II of
    all of them in one call."""
    scene, camera = load_scene_and_camera(EvalSetup(name, quick=True))
    survivors = np.nonzero(frustum_cull_depths(scene, camera)[1])[0]
    whole = project_geometry(scene, camera, survivors, RenderConfig(radius_rule=radius_rule))
    return scene, camera, survivors, whole


def assert_rows_of_the_whole(part, whole, indices) -> None:
    """``part``, Stage II of the Gaussians at ``indices``, is bit for bit
    the whole's rows of those Gaussians, in ``indices``' order."""
    row_of = dict(zip(whole.source_indices.tolist(), range(whole.num_visible)))
    rows = [row_of[i] for i in indices.tolist() if i in row_of]
    assert part.num_input == indices.size
    for field in fields(GeometryProjection):
        if field.name != "num_input":
            mine, theirs = getattr(part, field.name), getattr(whole, field.name)[rows]
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field.name
            assert mine.tobytes() == theirs.tobytes(), field.name


class TestProjectGeometry:
    def test_empty_indices(self, smoke_scene, smoke_camera):
        geometry = project_geometry(smoke_scene, smoke_camera, np.array([], dtype=np.int64))
        assert geometry.num_visible == 0
        assert geometry.num_input == 0

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(QUICK_SCENES)),
        radius_rule=st.sampled_from(("omega-sigma", "3sigma")),
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(st.just(1), st.integers(2, 64), st.integers(64, 1500)),
        in_order=st.booleans(),
    )
    def test_any_subset_projects_as_its_rows_of_the_whole(
        self, name, radius_rule, seed, size, in_order
    ):
        # Stage II is per Gaussian: which Gaussians share the call, how
        # many and in what order moves no bit of a row.
        scene, camera, survivors, whole = stage_one_and_whole(name, radius_rule)
        subset = np.random.default_rng(seed).choice(survivors, min(size, survivors.size), False)
        if in_order:
            subset.sort()
        part = project_geometry(scene, camera, subset, RenderConfig(radius_rule=radius_rule))
        assert_rows_of_the_whole(part, whole, subset)


class TestTileRange:
    def test_single_pixel_gaussian_covers_one_tile(self):
        tx_min, tx_max, ty_min, ty_max = tile_range(
            np.array([[8.0, 8.0]]), np.array([1.0]), width=64, height=64, tile_size=16
        )
        assert (tx_max[0] - tx_min[0]) == 1
        assert (ty_max[0] - ty_min[0]) == 1

    def test_large_gaussian_covers_all_tiles(self):
        tx_min, tx_max, ty_min, ty_max = tile_range(
            np.array([[32.0, 32.0]]), np.array([100.0]), width=64, height=64, tile_size=16
        )
        assert (tx_max[0] - tx_min[0]) == 4
        assert (ty_max[0] - ty_min[0]) == 4

    def test_offscreen_gaussian_gets_empty_range(self):
        tx_min, tx_max, ty_min, ty_max = tile_range(
            np.array([[-100.0, -100.0]]), np.array([2.0]), width=64, height=64, tile_size=16
        )
        assert tx_max[0] == tx_min[0] or ty_max[0] == ty_min[0]

    def test_boundary_gaussian_clipped_to_image(self):
        tx_min, tx_max, ty_min, ty_max = tile_range(
            np.array([[63.0, 0.0]]), np.array([20.0]), width=64, height=64, tile_size=16
        )
        assert tx_max[0] <= 4 and ty_min[0] == 0
