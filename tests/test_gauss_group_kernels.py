"""The group-batched Gaussian-wise kernels against the oracle.

The engine processes a whole depth group at once
(:func:`repro.render.kernels.identify_group_blocks`,
:func:`~repro.render.kernels.blend_group_layers`); the per-Gaussian loops of
:mod:`repro.render.reference` are the oracle.  This file holds what
``test_engine_equivalence.py``'s scenes do not reach:

* property tests of the batched Algorithm 1 fixpoint against
  ``identify_influence_blocks`` on generated screen-space Gaussians;
* directed frames of hand-placed screen-space Gaussians (Stage I/II are
  stubbed so the 2D geometry and the grouping are exactly what the case
  needs), compared counter for counter and bit for bit;
* property tests of Stage IV's prefix rank layers against a per-block
  ``blend_pixels`` loop, and of the in-place quadratic form against
  ``mahalanobis_sq``;
* the two numerical facts the batching leans on;
* invariance under the group window and the pair-chunk sizes, and the
  memory guard.
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
from repro.render import gaussian_raster, kernels, reference
from repro.render.blending import blend_pixels, compute_alpha
from repro.render.common import ALPHA_MIN, RenderConfig
from repro.render.gaussian_raster import render_gaussianwise
from repro.render.preprocess import GeometryProjection
from repro.render.reference import (
    _alpha_chi2,
    identify_influence_blocks,
    render_gaussianwise_reference,
)


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
    """The crafted Gaussians through ``render_gaussianwise`` and its reference.

    Stage I sees equal depths — its groups are then runs of
    ``group_capacity`` Gaussians in index order — and Stage II hands back the
    crafted geometry (index order = depth order) of the Gaussians in
    ``visible``, to the engine's window calls and the reference's group
    calls alike.  ``group_capacity``, when given, replaces the paper's
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
    monkeypatch.setattr(reference, "project_geometry", stage_two)
    if group_capacity is not None:
        monkeypatch.setattr(RenderConfig, "group_capacity", group_capacity)
    return [
        render(
            scene,
            Camera.from_fov(width=width, height=height, fov_y_degrees=60.0),
            RenderConfig(),
            enable_cc=enable_cc,
            boundary_mode=boundary_mode,
        )
        for render in (render_gaussianwise_reference, render_gaussianwise)
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
        # is a T_mask skip.  Windows of two or more groups put termination
        # mid-window: the window's later groups are projected, not processed.
        num = 3 * group_capacity if group_capacity == 3 else 8
        splat = splats([[7.5, 3.5]] * num, [[900.0, 900.0]] * num, [0.0] * num, [0.99] * num)
        for window in (1, 2, 4, 1000):
            monkeypatch.setattr(gaussian_raster, "GROUP_WINDOW", window)
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
# Stage IV in prefix layers, against per-block blend_pixels
# ----------------------------------------------------------------------
def blend_oracle(frame, gaussian, block, means2d, conics, opacities, colors, use_tmask):
    """The reference's Stage IV, one pair at a time in depth order, on image
    copies of ``frame``: ``(color, transmittance, saturated, evaluated,
    pixels, alpha_evaluations)``."""
    config, bs = RenderConfig(), frame.block_size
    color = frame.unblocked(frame.color.transpose(0, 2, 1)).copy()
    trans = frame.unblocked(frame.transmittance).copy()
    saturated = frame.saturated.copy()
    evaluated, pixels = np.zeros(means2d.shape[0], int), np.zeros(means2d.shape[0], int)
    alpha_evaluations = 0
    for row, b in zip(gaussian, block):
        if use_tmask and saturated[b]:
            continue
        by, bx = divmod(int(b), frame.blocks_x)
        y0, x0 = by * bs, bx * bs
        y1, x1 = min(y0 + bs, frame.height), min(x0 + bs, frame.width)
        grid_x, grid_y = np.meshgrid(np.arange(x0, x1, dtype=float), np.arange(y0, y1, dtype=float))
        alpha = compute_alpha(
            conics[row], float(opacities[row]), grid_x - means2d[row, 0], grid_y - means2d[row, 1]
        )
        block_color = color[y0:y1, x0:x1].reshape(-1, 3)
        block_trans = trans[y0:y1, x0:x1].reshape(-1)
        count = blend_pixels(
            block_color, block_trans, alpha.reshape(-1), colors[row], config.transmittance_eps
        )
        color[y0:y1, x0:x1] = block_color.reshape(y1 - y0, x1 - x0, 3)
        trans[y0:y1, x0:x1] = block_trans.reshape(y1 - y0, x1 - x0)
        if count and np.all(block_trans <= config.transmittance_eps):
            saturated[b] = True
        evaluated[row] += 1
        pixels[row] += count
        alpha_evaluations += alpha.size
    return color, trans, saturated, evaluated, pixels, alpha_evaluations


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    block_size=st.sampled_from([4, 8]),
    hot_run=st.sampled_from([1, 3, 12, 130]),
    spread=st.floats(0.0, 1.0),
    use_tmask=st.booleans(),
    chunk=st.sampled_from([1, 7, 2048]),
)
def test_prefix_layers_blend_like_per_block_pixels(
    seed, size, block_size, hot_run, spread, use_tmask, chunk
):
    # One hot block under ``hot_run`` pairs (opaque ones saturate it
    # mid-run), beside blocks holding a pair or a few; a frame state that
    # already has terminated pixels and saturated blocks.
    rng = np.random.default_rng(seed)
    width, height = size
    frame = kernels.BlockFrame(width, height, block_size)
    num_blocks = frame.blocks_x * frame.blocks_y
    valid = frame.transmittance > 0.0
    start = rng.choice([1.0, 0.6, 1.0e-5], size=valid.sum(), p=[0.6, 0.3, 0.1])
    frame.transmittance[valid] = start * rng.uniform(0.5, 1.0, size=start.size)
    frame.color.transpose(0, 2, 1)[valid] = rng.uniform(0.0, 0.5, size=(start.size, 3))
    frame.saturated[:] = np.all(frame.transmittance <= RenderConfig.transmittance_eps, axis=1)

    num = hot_run + int(rng.integers(0, 12))
    hot = int(rng.integers(num_blocks))
    pairs = []
    for row in range(num):
        others = rng.random(num_blocks) < spread * rng.random()
        others[hot] = row < hot_run
        pairs += [(row, b) for b in np.flatnonzero(others)]
    gaussian = np.array([p[0] for p in pairs], dtype=np.intp)
    block = np.array([p[1] for p in pairs], dtype=np.intp)

    hot_y, hot_x = divmod(hot, frame.blocks_x)
    centre = np.array([hot_x, hot_y]) * block_size + block_size / 2.0
    means2d = centre + rng.normal(scale=1.5 * block_size, size=(num, 2))
    sigmas = rng.uniform(0.5, 3.0 * block_size, size=(num, 2))
    splat = splats(means2d, sigmas, rng.uniform(0.0, np.pi, size=num), np.ones(num))
    opacities = rng.choice([0.99, 0.6, 0.05, 0.002], size=num)
    colors = rng.uniform(0.0, 1.0, size=(num, 3))

    expected = blend_oracle(
        frame, gaussian, block, splat["means2d"], splat["conics"], opacities, colors, use_tmask
    )
    old_chunk = kernels.GROUP_PAIR_CHUNK
    kernels.GROUP_PAIR_CHUNK = chunk
    try:
        evaluated, pixels, alpha_evaluations = kernels.blend_group_layers(
            frame, gaussian, block, splat["means2d"], splat["conics"], opacities, colors,
            RenderConfig(), use_tmask,
        )
    finally:
        kernels.GROUP_PAIR_CHUNK = old_chunk
    color = frame.unblocked(frame.color.transpose(0, 2, 1))
    assert color.tobytes() == expected[0].tobytes()
    assert frame.unblocked(frame.transmittance).tobytes() == expected[1].tobytes()
    assert np.array_equal(frame.saturated, expected[2])
    assert np.array_equal(evaluated, expected[3]) and np.array_equal(pixels, expected[4])
    assert alpha_evaluations == expected[5]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(one_splat, min_size=1, max_size=8),
    size=st.tuples(st.integers(1, 70), st.integers(1, 70)),
    block_size=st.sampled_from([4, 8, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_block_form_is_mahalanobis_sq_bit_for_bit(rows, size, block_size, seed):
    rows = np.asarray(rows)
    splat = splats(rows[:, 0:2], rows[:, 2:4], rows[:, 4], rows[:, 5])
    frame = kernels.BlockFrame(*size, block_size)
    rng = np.random.default_rng(seed)
    block_x = rng.integers(0, frame.blocks_x, size=len(rows))
    block_y = rng.integers(0, frame.blocks_y, size=len(rows))
    offsets = np.arange(block_size)
    form = kernels._block_maha(frame, splat["means2d"], splat["conics"], block_x, block_y, offsets)
    px = np.minimum(block_x[:, None] * block_size + offsets, frame.width - 1)
    py = np.minimum(block_y[:, None] * block_size + offsets, frame.height - 1)
    dx, dy = px - splat["means2d"][:, 0, None], py - splat["means2d"][:, 1, None]
    expected = mahalanobis_sq(splat["conics"][:, None, None, :], dx[:, None, :], dy[:, :, None])
    assert form.tobytes() == expected.tobytes()
    # Algorithm 1's footprint bits read the same form pixel-major.
    pixel_major = kernels._block_maha(
        frame, splat["means2d"], splat["conics"], block_x, block_y, offsets, pixel_major=True
    )
    assert pixel_major.tobytes() == np.ascontiguousarray(expected.transpose(1, 2, 0)).tobytes()


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
        monkeypatch.setattr(kernels, "FOOTPRINT_CHUNK", chunk)
        assert_frames_identical(expected, render_gaussianwise(scene_data, camera, GAUSS_CONFIG))


@pytest.mark.parametrize("boundary_mode", ["alpha", "aabb"])
@pytest.mark.parametrize("enable_cc", [True, False])
@pytest.mark.parametrize("scene", ["train", "palace", "drjohnson"])
def test_frame_does_not_depend_on_the_group_window(monkeypatch, scene, enable_cc, boundary_mode):
    # Algorithm 1 runs once per window of groups; the frame must be the
    # reference's whatever the window, down to one group per call.
    scene_data, camera = load_scene_and_camera(EvalSetup(scene, quick=True))
    kwargs = dict(enable_cc=enable_cc, boundary_mode=boundary_mode)
    expected = render_gaussianwise_reference(
        scene_data, camera, RenderConfig(radius_rule="omega-sigma"), **kwargs
    )
    frames = {}
    for window in (1, 2, 4, 1000):
        monkeypatch.setattr(gaussian_raster, "GROUP_WINDOW", window)
        frames[window] = render_gaussianwise(scene_data, camera, GAUSS_CONFIG, **kwargs)
        assert_frames_identical(expected, frames[window])
        assert_frames_identical(frames[1], frames[window])


#: Peak traced allocation (bytes) of one Gaussian-wise ``render_frame`` on
#: the quick presets at the commit before the group kernels (per-Gaussian
#: footprint regions): train 0.82 MB, drjohnson 1.21 MB.  The group kernels
#: may use 2 MB more (they read 1.21 and 1.92 MB; with four-group windows
#: and the in-place form, 2.47 and 2.60 MB; with window-wide Stage II and
#: pixel-major footprint bits in chunks of 1024 pairs, 1.92 and 2.17 MB).
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
