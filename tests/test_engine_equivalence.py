"""Golden-equivalence tests between the vectorized and reference backends.

The vectorized engine must be observationally indistinguishable from the
reference loops: identical statistics counters (integer-exact) and bitwise
identical images — both engines perform the reference's operations on every
pixel in the reference's order — for every dataflow, configuration and edge
case.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.gaussians.camera import Camera, look_at
from repro.gaussians.model import GaussianScene
from repro.render.blending import compute_alpha
from repro.render.common import RenderConfig
from repro.exec.frames import FrameSpec
from repro.render.gaussian_raster import render_gaussianwise
from repro.render.preprocess import project_scene
from repro.render.reference import (
    _build_tile_pairs_reference,
    render_gaussianwise_reference,
    render_tilewise_reference,
)
from repro.render.tile_raster import _build_tile_pairs, render_tilewise


def assert_stats_equal(reference, vectorized) -> None:
    """Every statistics field must match exactly between the backends."""
    assert type(reference) is type(vectorized)
    for field in dataclasses.fields(reference):
        ref_value = getattr(reference, field.name)
        vec_value = getattr(vectorized, field.name)
        if isinstance(ref_value, np.ndarray):
            assert np.array_equal(ref_value, vec_value), field.name
        else:
            assert ref_value == vec_value, (
                f"{field.name}: reference={ref_value} vectorized={vec_value}"
            )


def offscreen_scene() -> GaussianScene:
    """Gaussians whose projected centres all fall outside the image.

    Their footprints still overlap the screen, which exercises the clamped
    start pixel/block of the boundary traversal and the empty-footprint
    accounting.
    """
    offsets = np.array(
        [[-4.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, -4.0, 0.0], [0.0, 4.0, 0.5]]
    )
    count = offsets.shape[0]
    return GaussianScene.from_flat_colors(
        means=offsets,
        scales=np.full((count, 3), 1.5),
        quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (count, 1)),
        opacities=np.array([0.9, 0.6, 0.05, 0.99]),
        rgb=np.tile([0.4, 0.7, 0.2], (count, 1)),
        name="offscreen",
    )


@pytest.fixture()
def offscreen_camera() -> Camera:
    return Camera.from_fov(
        width=48,
        height=40,
        fov_y_degrees=60.0,
        world_to_camera=look_at(np.array([0.0, 0.0, -3.0]), np.array([0.0, 0.0, 0.0])),
    )


class TestTilewiseEquivalence:
    @pytest.mark.parametrize("tile_size", [8, 16, 24])
    def test_smoke_scene(self, smoke_scene, smoke_camera, tile_size, monkeypatch):
        monkeypatch.setattr(RenderConfig, "tile_size", tile_size)
        ref = render_tilewise_reference(smoke_scene, smoke_camera, RenderConfig())
        vec = render_tilewise(smoke_scene, smoke_camera, RenderConfig())
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    def test_empty_scene(self, front_camera, monkeypatch):
        monkeypatch.setattr(RenderConfig, "background", (0.1, 0.2, 0.3))
        ref = render_tilewise_reference(GaussianScene.empty(), front_camera, RenderConfig())
        vec = render_tilewise(GaussianScene.empty(), front_camera, RenderConfig())
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    def test_offscreen_centres(self, offscreen_camera):
        scene = offscreen_scene()
        ref = render_tilewise_reference(scene, offscreen_camera, RenderConfig())
        vec = render_tilewise(scene, offscreen_camera, RenderConfig())
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    def test_early_termination_wall(self, front_camera):
        # Many co-located opaque Gaussians saturate tiles quickly, exercising
        # the mid-chunk early-exit recovery of the vectorized blend.
        count = 80
        means = np.zeros((count, 3))
        means[:, 2] = np.linspace(0.0, 1.0, count)
        scene = GaussianScene.from_flat_colors(
            means=means,
            scales=np.full((count, 3), 5.0),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (count, 1)),
            opacities=np.full(count, 0.99),
            rgb=np.tile([0.5, 0.5, 0.5], (count, 1)),
        )
        ref = render_tilewise_reference(scene, front_camera, RenderConfig())
        vec = render_tilewise(scene, front_camera, RenderConfig())
        assert vec.stats.num_pairs_processed < vec.stats.num_tile_pairs
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_one_pixel_corner_tile(self, dtype):
        # A 33x17 frame ends in a 1x1 tile.  Faint, frame-filling Gaussians
        # all blend into its pixel unsaturated, so its colour is a long fold
        # over one pixel: a fold numpy sums pairwise would differ there.
        count = 24
        rng = np.random.default_rng(38)
        means = np.zeros((count, 3))
        means[:, 2] = np.linspace(0.0, 1.0, count)
        scene = GaussianScene.from_flat_colors(
            means=means,
            scales=np.full((count, 3), 4.0),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (count, 1)),
            opacities=rng.uniform(0.03, 0.15, count),
            rgb=rng.random((count, 3)),
        )
        camera = Camera.from_fov(
            width=33,
            height=17,
            fov_y_degrees=60.0,
            world_to_camera=look_at(np.array([0.0, 0.0, -3.0]), np.array([0.0, 0.0, 0.0])),
        )
        projected = project_scene(scene, camera, RenderConfig())
        corner = [
            compute_alpha(conic, opacity, 32.0 - mean[0], 16.0 - mean[1]) > 0.0
            for mean, conic, opacity in zip(
                projected.means2d, projected.conics, projected.opacities
            )
        ]
        assert sum(corner) >= 9
        ref = render_tilewise_reference(scene, camera, RenderConfig(dtype=dtype))
        vec = render_tilewise(scene, camera, RenderConfig(dtype=dtype))
        assert ref.image.dtype == vec.image.dtype == np.dtype(dtype)
        assert ref.image[16, 32].tobytes() == vec.image[16, 32].tobytes()
        assert ref.image.tobytes() == vec.image.tobytes()
        assert_stats_equal(ref.stats, vec.stats)

    @pytest.mark.parametrize("tile_size", [8, 16, 24])
    def test_tile_pair_builder_matches_reference(self, smoke_scene, smoke_camera, tile_size):
        projected = project_scene(smoke_scene, smoke_camera, RenderConfig())
        fast = _build_tile_pairs(projected, smoke_camera.width, smoke_camera.height, tile_size)
        slow = _build_tile_pairs_reference(
            projected, smoke_camera.width, smoke_camera.height, tile_size
        )
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])
        assert fast[2] == slow[2]


class TestGaussianwiseEquivalence:
    @pytest.mark.parametrize("enable_cc", [True, False])
    @pytest.mark.parametrize("boundary_mode", ["alpha", "aabb"])
    def test_smoke_scene(self, smoke_scene, smoke_camera, enable_cc, boundary_mode):
        kwargs = dict(radius_rule="omega-sigma")
        ref = render_gaussianwise_reference(
            smoke_scene,
            smoke_camera,
            RenderConfig(**kwargs),
            enable_cc=enable_cc,
            boundary_mode=boundary_mode,
        )
        vec = render_gaussianwise(
            smoke_scene,
            smoke_camera,
            RenderConfig(**kwargs),
            enable_cc=enable_cc,
            boundary_mode=boundary_mode,
        )
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    @pytest.mark.parametrize("block_size", [4, 8, 16])
    def test_block_sizes(self, smoke_scene, smoke_camera, block_size):
        kwargs = dict(radius_rule="omega-sigma", block_size=block_size)
        ref = render_gaussianwise_reference(
            smoke_scene, smoke_camera, RenderConfig(**kwargs)
        )
        vec = render_gaussianwise(
            smoke_scene, smoke_camera, RenderConfig(**kwargs)
        )
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    def test_3sigma_radius_rule(self, smoke_scene, smoke_camera):
        # With the 3-sigma rule the chi^2 ellipse of near-opaque Gaussians
        # can exceed the bounding radius, exercising the region-growth logic
        # of the footprint kernel.
        ref = render_gaussianwise_reference(
            smoke_scene, smoke_camera, RenderConfig(radius_rule="3sigma")
        )
        vec = render_gaussianwise(
            smoke_scene, smoke_camera, RenderConfig(radius_rule="3sigma")
        )
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    def test_empty_scene(self, front_camera):
        ref = render_gaussianwise_reference(
            GaussianScene.empty(), front_camera, RenderConfig()
        )
        vec = render_gaussianwise(
            GaussianScene.empty(), front_camera, RenderConfig()
        )
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    @pytest.mark.parametrize("boundary_mode", ["alpha", "aabb"])
    def test_offscreen_centres(self, offscreen_camera, boundary_mode):
        scene = offscreen_scene()
        kwargs = dict(radius_rule="omega-sigma")
        ref = render_gaussianwise_reference(
            scene,
            offscreen_camera,
            RenderConfig(**kwargs),
            boundary_mode=boundary_mode,
        )
        vec = render_gaussianwise(
            scene,
            offscreen_camera,
            RenderConfig(**kwargs),
            boundary_mode=boundary_mode,
        )
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    def test_occlusion_wall_saturates_tmask(self, front_camera):
        # A near wall occluding distant Gaussians: the transmittance mask
        # evolves and real T_mask skips occur; the two backends must agree
        # on every counter including the skip split.
        near_count, far_count = 60, 100
        rng = np.random.default_rng(0)
        near = rng.normal(scale=0.3, size=(near_count, 3)) * [1.0, 1.0, 0.05]
        far = rng.normal(scale=0.3, size=(far_count, 3)) * [1.0, 1.0, 0.05] + [0, 0, 6.0]
        scene = GaussianScene.from_flat_colors(
            means=np.vstack([near, far]),
            scales=np.full((near_count + far_count, 3), 1.0),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (near_count + far_count, 1)),
            opacities=np.full(near_count + far_count, 0.99),
            rgb=np.tile([0.5, 0.5, 0.5], (near_count + far_count, 1)),
        )
        config_kwargs = dict(radius_rule="omega-sigma")
        ref = render_gaussianwise_reference(
            scene, front_camera, RenderConfig(**config_kwargs)
        )
        vec = render_gaussianwise(
            scene, front_camera, RenderConfig(**config_kwargs)
        )
        assert vec.stats.num_skipped_tmask + vec.stats.num_skipped_by_termination > 0
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    @staticmethod
    def _both(scene, camera, boundary_mode="alpha", enable_cc=True, **config):
        """The same frame on the reference and the vectorized backend."""
        config.setdefault("radius_rule", "omega-sigma")
        return [
            render(
                scene,
                camera,
                RenderConfig(**config),
                enable_cc=enable_cc,
                boundary_mode=boundary_mode,
            )
            for render in (render_gaussianwise_reference, render_gaussianwise)
        ]

    def test_eval_preset(self):
        # An evaluation preset's real depth groups, not a synthetic scene:
        # the quick train preset (2,500 Gaussians) on the omega-sigma radius rule.
        scene, camera = load_scene_and_camera(EvalSetup("train", quick=True))
        ref, vec = self._both(scene, camera)
        assert vec.stats.num_rendered > 0
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    @pytest.mark.parametrize("boundary_mode", ["aabb", "alpha"])
    def test_3sigma_radius_rule_below_alpha_min(self, smoke_scene, smoke_camera, boundary_mode):
        # Under the 3-sigma rule a Gaussian below alpha_min still has a
        # radius box (blocks evaluated, nothing blended) but no alpha
        # footprint at all.
        dim = GaussianScene.from_flat_colors(
            means=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.2]]),
            scales=np.full((2, 3), 0.3),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
            opacities=np.array([0.003, 0.0039]),
            rgb=np.tile([0.9, 0.1, 0.1], (2, 1)),
        )
        cases = [(dim, True), (dim, False)]
        if boundary_mode == "aabb":  # "alpha" on this scene is test_3sigma_radius_rule
            cases.insert(0, (smoke_scene, True))
        for scene, enable_cc in cases:
            ref, vec = self._both(
                scene, smoke_camera, boundary_mode, enable_cc, radius_rule="3sigma"
            )
            assert np.array_equal(ref.image, vec.image)
            assert_stats_equal(ref.stats, vec.stats)
        assert vec.stats.num_screen_passed == 2 and vec.stats.num_rendered == 0
        if boundary_mode == "aabb":
            assert vec.stats.blocks_evaluated > 0 and vec.stats.num_empty_footprint == 0
        else:
            assert vec.stats.blocks_visited == 0 and vec.stats.num_empty_footprint == 2

    @pytest.mark.parametrize("group_capacity", [1, 7, 256])
    def test_group_capacities(
        self, monkeypatch, small_lego_scene, small_lego_camera, group_capacity
    ):
        monkeypatch.setattr(RenderConfig, "group_capacity", group_capacity)
        ref, vec = self._both(small_lego_scene, small_lego_camera)
        assert vec.stats.num_groups >= vec.stats.num_stage1_passed / group_capacity
        assert np.array_equal(ref.image, vec.image)
        assert_stats_equal(ref.stats, vec.stats)

    @pytest.mark.parametrize("size", [(61, 45), (5, 37), (37, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_image_not_a_multiple_of_the_block(self, smoke_scene, size):
        # Partial edge blocks on both axes; then an image narrower (lower)
        # than one block, where every block is partial.
        camera = Camera.from_fov(
            width=size[0],
            height=size[1],
            fov_y_degrees=50.0,
            world_to_camera=look_at(np.array([0.0, 0.0, -4.0]), np.array([0.0, 0.0, 0.0])),
        )
        for boundary_mode, enable_cc in [("alpha", True), ("alpha", False), ("aabb", True)]:
            ref, vec = self._both(smoke_scene, camera, boundary_mode, enable_cc)
            assert vec.stats.num_rendered > 0
            assert np.array_equal(ref.image, vec.image)
            assert_stats_equal(ref.stats, vec.stats)


class TestBackendConfig:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FrameSpec(backend="gpu")

    def test_default_backend_is_vectorized(self):
        assert FrameSpec().backend == "vectorized"
