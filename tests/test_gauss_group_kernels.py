"""The group-batched Gaussian-wise kernels against the oracle.

``backend="vectorized"`` processes a whole depth group at once
(:func:`repro.render.kernels.identify_group_blocks`,
:func:`~repro.render.kernels.blend_group_layers`); the per-Gaussian loops of
``backend="reference"`` and :mod:`repro.render.boundary` are the oracle.  This
file holds what ``test_engine_equivalence.py``'s scenes do not reach:

* property tests of the batched Algorithm 1 fixpoint against
  ``identify_influence_blocks`` on generated screen-space Gaussians;
* directed frames of hand-placed screen-space Gaussians (Stage I/II are
  stubbed so the 2D geometry and the grouping are exactly what the case
  needs), compared counter for counter and bit for bit;
* the two numerical facts the batching leans on;
* invariance under the pair-chunk size, and the memory guard.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_equivalence import assert_stats_equal

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.gaussians.camera import Camera
from repro.gaussians.covariance import mahalanobis_sq
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import evaluate_sh_colors
from repro.render import gaussian_raster, kernels
from repro.render.boundary import _alpha_chi2, identify_influence_blocks
from repro.render.common import ALPHA_MIN, RenderConfig
from repro.render.gaussian_raster import render_gaussianwise
from repro.render.preprocess import GeometryProjection


def splats(means, sigmas, thetas, opacities) -> dict[str, np.ndarray]:
    """Screen-space Gaussians from per-axis sigmas and a rotation angle."""
    means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1, 2)
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    cos, sin = np.cos(thetas), np.sin(thetas)
    rot = np.stack([np.stack([cos, -sin], axis=1), np.stack([sin, cos], axis=1)], axis=1)
    cov2d = rot @ (sigmas[:, :, None] ** 2 * np.eye(2)) @ rot.transpose(0, 2, 1)
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conics = np.stack([cov2d[:, 1, 1], -cov2d[:, 0, 1], cov2d[:, 0, 0]], axis=1) / det[:, None]
    return {
        "means2d": means,
        "conics": conics,
        "cov2d": cov2d,
        "opacities": np.asarray(opacities, dtype=np.float64).reshape(-1),
        "radii": np.ceil(3.0 * sigmas.max(axis=1)),
    }


# ----------------------------------------------------------------------
# Algorithm 1 as a fixpoint, against the per-Gaussian traversal
# ----------------------------------------------------------------------
def assert_traversal_matches_oracle(splat, width: int, height: int, block_size: int) -> None:
    frame = kernels.BlockFrame(width, height, block_size)
    gaussian, block, visited = kernels.identify_group_blocks(
        frame, splat["means2d"], splat["conics"], splat["cov2d"], splat["opacities"], ALPHA_MIN
    )
    assert np.all(np.diff(gaussian) >= 0)
    for index in range(splat["means2d"].shape[0]):
        oracle = identify_influence_blocks(
            splat["means2d"][index],
            splat["conics"][index],
            float(splat["opacities"][index]),
            width,
            height,
            block_size=block_size,
            alpha_min=ALPHA_MIN,
        )
        mine = block[gaussian == index]
        assert mine.size == np.unique(mine).size
        assert {divmod(int(b), frame.blocks_x) for b in mine} == set(oracle.blocks), index
        assert visited[index] == oracle.blocks_visited, index


coordinate = st.one_of(
    st.floats(-4.0, 70.0),  # on and near the screen
    st.floats(-4000.0, 4000.0),  # far off it
    st.integers(-2, 66).map(float),  # exactly on pixel centres and block edges
)
sigma = st.one_of(st.floats(0.12, 3.0), st.floats(3.0, 80.0))
opacity = st.one_of(
    st.floats(1.0e-4, ALPHA_MIN),  # at or below the threshold: no footprint
    st.floats(ALPHA_MIN, 0.05),
    st.floats(0.05, 1.0),
    st.just(ALPHA_MIN),
)
one_splat = st.tuples(coordinate, coordinate, sigma, sigma, st.floats(0.0, np.pi), opacity)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(one_splat, min_size=1, max_size=6),
    width=st.integers(1, 70),
    height=st.integers(1, 70),
    block_size=st.sampled_from([4, 8, 16]),
)
def test_group_traversal_matches_per_gaussian_oracle(rows, width, height, block_size):
    rows = np.asarray(rows)
    splat = splats(rows[:, 0:2], rows[:, 2:4], rows[:, 4], rows[:, 5])
    assert_traversal_matches_oracle(splat, width, height, block_size)


def test_traversal_of_an_empty_group():
    splat = splats(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    frame = kernels.BlockFrame(20, 12, 8)
    gaussian, block, visited = kernels.identify_group_blocks(
        frame, splat["means2d"], splat["conics"], splat["cov2d"], splat["opacities"], ALPHA_MIN
    )
    assert gaussian.size == block.size == visited.size == 0


# ----------------------------------------------------------------------
# Directed frames of screen-space Gaussians
# ----------------------------------------------------------------------
def render_splats(
    monkeypatch,
    splat,
    width,
    height,
    visible=None,
    enable_cc=True,
    boundary_mode="alpha",
    group_capacity=None,
):
    """The crafted Gaussians through ``render_gaussianwise``, on both backends.

    Stage I sees equal depths — its groups are then runs of
    ``group_capacity`` Gaussians in index order — and Stage II hands back the
    crafted geometry (index order = depth order) of the Gaussians in
    ``visible``.  ``group_capacity``, when given, replaces the paper's
    N = 256 for this test.  Returns ``(reference, vectorized)``.
    """
    num = splat["means2d"].shape[0]
    visible = np.ones(num, dtype=bool) if visible is None else np.asarray(visible)
    scene = GaussianScene.from_flat_colors(
        means=np.column_stack([np.linspace(-1.0, 1.0, num), np.zeros(num), np.full(num, 5.0)]),
        scales=np.full((num, 3), 0.1),
        quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (num, 1)),
        opacities=np.full(num, 0.5),
        rgb=np.linspace(0.05, 0.95, 3 * num).reshape(num, 3),
    )

    def stage_one(scene, camera):
        return np.full(num, 5.0), np.ones(num, dtype=bool)

    def stage_two(scene, camera, indices, config):
        keep = indices[visible[indices]]
        return GeometryProjection(
            source_indices=keep,
            depths=keep.astype(np.float64),
            num_input=indices.size,
            **{name: values[keep] for name, values in splat.items()},
        )

    monkeypatch.setattr(gaussian_raster, "frustum_cull_depths", stage_one)
    monkeypatch.setattr(gaussian_raster, "project_geometry", stage_two)
    if group_capacity is not None:
        monkeypatch.setattr(RenderConfig, "group_capacity", group_capacity)
    return [
        render_gaussianwise(
            scene,
            Camera.from_fov(width=width, height=height, fov_y_degrees=60.0),
            RenderConfig(backend=backend),
            enable_cc=enable_cc,
            boundary_mode=boundary_mode,
        )
        for backend in ("reference", "vectorized")
    ]


def assert_frames_identical(reference, vectorized) -> None:
    assert np.array_equal(reference.image, vectorized.image)
    assert_stats_equal(reference.stats, vectorized.stats)


class TestDirectedFrames:
    def test_start_block_outside_the_footprint(self, monkeypatch):
        # Centres off the screen: the clamped start block fails the alpha
        # condition, so the traversal visits it and stops — even for the
        # second Gaussian, whose footprint does reach other blocks.
        splat = splats(
            [[-30.0, 20.0], [-20.0, 4.0]], [[2.0, 2.0], [40.0, 0.3]], [0.0, 0.915], [0.9, 0.9]
        )
        ref, vec = render_splats(monkeypatch, splat, 40, 40)
        assert_frames_identical(ref, vec)
        inside = mahalanobis_sq(splat["conics"][1], 0.0 + 20.0, np.arange(40) - 4.0)
        assert np.any(inside <= 2.0 * np.log(0.9 / ALPHA_MIN))  # it crosses column 0
        assert vec.stats.blocks_visited == 2 and vec.stats.blocks_evaluated == 0
        assert vec.stats.num_empty_footprint == 2 and vec.stats.num_sh_evaluated == 0

    def test_one_block_footprint(self, monkeypatch):
        splat = splats([[19.6, 11.4]], [[0.7, 0.5]], [0.3], [0.6])
        ref, vec = render_splats(monkeypatch, splat, 40, 24)
        assert_frames_identical(ref, vec)
        assert vec.stats.blocks_visited == 1 and vec.stats.blocks_evaluated == 1
        assert vec.stats.alpha_evaluations == 64 and 0 < vec.stats.pixels_blended < 64

    def test_thin_ellipse_with_a_disconnected_sampled_footprint(self, monkeypatch):
        # Sampled on the pixel grid this needle is not connected, and the
        # traversal — either engine's — stops at the first gap: fewer
        # influence blocks than blocks holding a pixel inside the ellipse.
        splat = splats([[12.5, 40.2]], [[25.0, 0.15]], [0.6], [0.9])
        ref, vec = render_splats(monkeypatch, splat, 64, 64)
        assert_frames_identical(ref, vec)
        ys, xs = np.mgrid[0:64, 0:64]
        maha = mahalanobis_sq(splat["conics"][0], xs - 12.5, ys - 40.2)
        inside = maha <= 2.0 * np.log(0.9 / ALPHA_MIN)
        holding = {(y // 8, x // 8) for y, x in zip(*np.nonzero(inside))}
        assert 0 < vec.stats.blocks_evaluated < len(holding)
        assert_traversal_matches_oracle(splat, 64, 64, 8)

    def test_block_saturates_mid_group_with_deeper_pairs_behind_it(self, monkeypatch):
        # Eight opaque Gaussians centred on block (1, 1) of a 3x3-block
        # image, all in one group: that block saturates at the fourth, so
        # ranks 4-7 skip it while still blending into its live neighbours.
        splat = splats([[11.5, 11.5]] * 8, [[12.0, 12.0]] * 8, [0.0] * 8, [0.99] * 8)
        ref, vec = render_splats(monkeypatch, splat, 24, 24)
        assert_frames_identical(ref, vec)
        assert vec.stats.num_groups == 1 and vec.stats.num_rendered == 8
        assert vec.stats.blocks_skipped_tmask == 4 and vec.stats.num_skipped_tmask == 0
        assert vec.stats.blocks_evaluated == 8 * 9 - 4
        # Cross-stage conditions off: nothing is skipped, the image is the same.
        ref_off, vec_off = render_splats(monkeypatch, splat, 24, 24, enable_cc=False)
        assert_frames_identical(ref_off, vec_off)
        assert vec_off.stats.blocks_evaluated == 8 * 9
        assert np.array_equal(vec_off.image, vec.image)

    @pytest.mark.parametrize("group_capacity, skipped_groups, skipped_blocks", [(3, 2, 0), (2, 2, 2)])
    def test_termination_on_a_group_boundary(
        self, monkeypatch, group_capacity, skipped_groups, skipped_blocks
    ):
        # Screen-filling opaque Gaussians: every pixel terminates at the
        # third.  With groups of three that is the last Gaussian of the
        # first group — the very next group is already skipped; with groups
        # of two it is the first of the second group, whose other Gaussian
        # is a T_mask skip.
        num = 3 * group_capacity if group_capacity == 3 else 8
        splat = splats([[7.5, 3.5]] * num, [[900.0, 900.0]] * num, [0.0] * num, [0.99] * num)
        ref, vec = render_splats(monkeypatch, splat, 16, 8, group_capacity=group_capacity)
        assert_frames_identical(ref, vec)
        assert vec.stats.num_rendered == 3
        assert vec.stats.num_groups_skipped == skipped_groups
        assert vec.stats.blocks_skipped_tmask == skipped_blocks

    @pytest.mark.parametrize("boundary_mode", ["alpha", "aabb"])
    def test_group_left_empty_by_screen_culling(self, monkeypatch, boundary_mode):
        splat = splats(
            [[5.0, 5.0], [9.0, 4.0], [20.0, 9.0], [14.0, 12.0], [3.0, 13.0], [17.0, 2.0]],
            [[3.0, 2.0]] * 6,
            [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
            [0.7, 0.2, 0.9, 0.003, 0.5, 0.8],
        )
        visible = [True, True, False, False, True, True]
        ref, vec = render_splats(
            monkeypatch, splat, 21, 13, visible, group_capacity=2, boundary_mode=boundary_mode
        )
        assert_frames_identical(ref, vec)
        assert vec.stats.num_groups_processed == 3 and vec.stats.num_projected == 6
        assert vec.stats.num_screen_passed == 4 and vec.stats.sort_elements == 4


# ----------------------------------------------------------------------
# Two numerical facts the batching leans on
# ----------------------------------------------------------------------
def test_vectorized_chi2_equals_the_scalar_form_bit_for_bit():
    # identify_group_blocks computes 2 log(opacity / alpha_min) for a whole
    # group; the oracle computes it one Gaussian at a time.
    rng = np.random.default_rng(0)
    for length in (1, 2, 3, 5, 7, 94, 255, 20_000):
        opacities = rng.uniform(ALPHA_MIN, 1.0, size=length)
        opacities[::3] = rng.uniform(ALPHA_MIN, 2.0 * ALPHA_MIN, size=opacities[::3].size)
        batched = 2.0 * np.log(opacities / ALPHA_MIN)
        scalar = np.array([_alpha_chi2(float(value), ALPHA_MIN) for value in opacities])
        assert np.array_equal(batched, scalar), length
    assert _alpha_chi2(np.nextafter(ALPHA_MIN, 0.0), ALPHA_MIN) is None


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_batched_sh_colours_equal_the_one_row_form_bit_for_bit(degree):
    # The group evaluates SH colour for all of its Gaussians in one call, on
    # rows gathered out of the scene arrays; the oracle calls it row by row.
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(scale=0.6, size=(1200, 3, 16))
    directions = rng.normal(size=(1200, 3)) * rng.uniform(0.01, 50.0, size=(1200, 1))
    one_row = np.concatenate(
        [evaluate_sh_colors(coeffs[i][None], directions[i][None], degree=degree) for i in range(1200)]
    )
    assert np.array_equal(evaluate_sh_colors(coeffs, directions, degree=degree), one_row)
    gather = rng.permutation(1200)[:700]
    batched = evaluate_sh_colors(coeffs[gather], directions[gather], degree=degree)
    assert np.array_equal(batched, one_row[gather])


# ----------------------------------------------------------------------
# Chunk invariance and the memory guard
# ----------------------------------------------------------------------
GAUSS_CONFIG = RenderConfig(radius_rule="omega-sigma")


@pytest.mark.parametrize("scene, chunks", [("train", (1, 7, 4096)), ("drjohnson", (7, 4096))])
def test_frame_does_not_depend_on_the_pair_chunk(monkeypatch, scene, chunks):
    # A chunk of one pair costs ~4 s on drjohnson's 25 k candidate pairs;
    # train (9 k, ~2 s) carries that case.
    scene_data, camera = load_scene_and_camera(EvalSetup(scene, quick=True))
    expected = render_gaussianwise(scene_data, camera, GAUSS_CONFIG)
    for chunk in chunks:
        monkeypatch.setattr(kernels, "GROUP_PAIR_CHUNK", chunk)
        assert_frames_identical(expected, render_gaussianwise(scene_data, camera, GAUSS_CONFIG))


#: Peak traced allocation (bytes) of one Gaussian-wise ``render_frame`` on
#: the quick presets at the commit before the group kernels (per-Gaussian
#: footprint regions): train 0.82 MB, drjohnson 1.21 MB.  The group kernels
#: may use 2 MB more (they read 1.21 and 1.92 MB).
PARENT_PEAK_BYTES = {"train": 816_423, "drjohnson": 1_212_305}


@pytest.mark.parametrize("scene", sorted(PARENT_PEAK_BYTES))
def test_frame_allocates_little_more_than_before_and_keeps_nothing(scene):
    scene_data, camera = load_scene_and_camera(EvalSetup(scene, quick=True))
    render_gaussianwise(scene_data, camera, GAUSS_CONFIG)  # warm imports and lazy state
    tracemalloc.start()
    try:
        render_gaussianwise(scene_data, camera, GAUSS_CONFIG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_PEAK_BYTES[scene] + 2_000_000
    for module in (kernels, gaussian_raster):
        held = [name for name, value in vars(module).items() if isinstance(value, np.ndarray)]
        assert not held, f"{module.__name__} holds module-level arrays: {held}"
