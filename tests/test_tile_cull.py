"""The tile-wise engine's dead-pair cull, rank windows and memory footprint.

Three contracts of the frame-level Stage IV (``render/kernels.py``,
``render/tile_raster.py::_blend_tiles``):

* **The cull is exact.**  A ``(Gaussian, tile)`` pair whose footprint box
  (:func:`~repro.render.kernels.footprint_block_spans`) spans none of the tile's
  blocks, and a ``(Gaussian, block)`` entry that
  :func:`~repro.render.kernels.ellipse_meets_blocks` finds out of reach,
  have all-zero alpha and no pixel within the 3-sigma subtile test when they
  *are* evaluated, by the kernel of the same dtype; and mapping the
  live-row exit rank back to the depth-ordered list reproduces the
  reference loop's counters one for one, whatever mix of live and dead rows
  the tile holds.
* **The rank windows and layer chunks are unobservable** in counters and
  float64 transmittance.
* **Memory:** one frame allocates no more than the engine it replaced, and
  nothing array-valued outlives the call at module level.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.render import kernels, tile_raster
from repro.render.common import RenderConfig
from repro.render.preprocess import ProjectedGaussians
from repro.render.reference import _render_tile_reference, render_tilewise_reference
from repro.render.tile_raster import TileWiseStats, render_tilewise

CONFIG = RenderConfig()
TILE = CONFIG.tile_size


def splats(means, sigmas, thetas, opacities, dtype=np.float64) -> ProjectedGaussians:
    """Screen-space Gaussians from per-axis sigmas and a rotation angle.

    Only the fields the per-tile renderers read are meaningful; colours are
    a fixed ramp and the tile-assignment fields are placeholders.
    """
    means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1, 2)
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    num = means.shape[0]
    cos, sin = np.cos(thetas), np.sin(thetas)
    rot = np.stack([np.stack([cos, -sin], axis=1), np.stack([sin, cos], axis=1)], axis=1)
    cov2d = rot @ (sigmas[:, :, None] ** 2 * np.eye(2)) @ rot.transpose(0, 2, 1)
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conics = np.stack([cov2d[:, 1, 1], -cov2d[:, 0, 1], cov2d[:, 0, 0]], axis=1) / det[:, None]
    ramp = np.linspace(0.1, 0.9, num)
    return ProjectedGaussians(
        source_indices=np.arange(num),
        means2d=means.astype(dtype),
        depths=np.arange(num, dtype=np.float64),
        conics=conics.astype(dtype),
        cov2d=cov2d,
        radii=3.0 * sigmas.max(axis=1),
        opacities=np.asarray(opacities, dtype=np.float64).reshape(-1).astype(dtype),
        num_input=num,
        colors=np.stack([ramp, ramp[::-1], 0.5 * ramp], axis=1).astype(dtype),
        num_total=num,
    )


def cull_level(view: ProjectedGaussians, width: int, height: int) -> np.ndarray:
    return kernels.cull_level(
        view.means2d, view.conics, view.opacities, CONFIG.alpha_min, width, height
    )


def live_rows(view: ProjectedGaussians, rect, width: int, height: int) -> np.ndarray:
    """The rows the engine keeps for the tile at ``rect``: those whose box
    spans one of its block columns and one of its block rows."""
    x0, y0, x1, y1 = rect
    bs = CONFIG.subtile_size
    frame = kernels.BlockFrame(width, height, bs)
    spans = kernels.footprint_block_spans(
        frame, view.means2d, view.conics, cull_level(view, width, height)
    )
    x_lo, x_hi, y_lo, y_hi = spans
    hit_x = (x_lo <= (x1 - 1) // bs) & (x_hi >= x0 // bs)
    return np.flatnonzero(hit_x & (y_lo <= (y1 - 1) // bs) & (y_hi >= y0 // bs))


def render_tile(backend, view, rect, width, height):
    """One tile through one backend: ``(stats, processed, rendered, colour, trans)``.

    The engine renders the tile's depth-ordered list (every row) as the one
    occupied tile of a ``width x height`` frame."""
    x0, y0, x1, y1 = rect
    dtype = view.means2d.dtype
    stats = TileWiseStats()
    processed = np.zeros(view.num_visible, dtype=bool)
    rendered = np.zeros(view.num_visible, dtype=bool)
    rows = np.arange(view.num_visible)
    if backend == "reference":
        num_pixels = (y1 - y0) * (x1 - x0)
        tile_color = np.zeros((num_pixels, 3), dtype=dtype)
        tile_trans = np.ones(num_pixels, dtype=dtype)
        grid_x, grid_y = np.meshgrid(np.arange(x0, x1, dtype=dtype), np.arange(y0, y1, dtype=dtype))
        tail = (tile_color, tile_trans, CONFIG, stats, processed, rendered)
        _render_tile_reference(rows, view, grid_x, grid_y, *tail)
        return stats, processed, rendered, tile_color, tile_trans
    num_tiles_x = -(-width // TILE)
    tile_ids = np.full(rows.size, (y0 // TILE) * num_tiles_x + x0 // TILE)
    frame = kernels.BlockFrame(width, height, CONFIG.subtile_size, dtype)
    tile_raster._blend_tiles(
        view, tile_ids, rows, np.zeros(1, dtype=np.intp), num_tiles_x, frame, CONFIG,
        stats, processed, rendered,
    )  # fmt: skip
    color = frame.unblocked(frame.color.transpose(0, 2, 1))[y0:y1, x0:x1].reshape(-1, 3)
    trans = frame.unblocked(frame.transmittance)[y0:y1, x0:x1].reshape(-1)
    return stats, processed, rendered, color, trans


def _counters(stats) -> dict:
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if not isinstance(getattr(stats, f.name), np.ndarray)
    }


def assert_tile_matches_reference(view, rect, width, height) -> TileWiseStats:
    ref = render_tile("reference", view, rect, width, height)
    got = render_tile("vectorized", view, rect, width, height)
    assert _counters(got[0]) == _counters(ref[0])
    assert np.array_equal(got[1], ref[1]), "processed rows differ"
    assert np.array_equal(got[2], ref[2]), "rendered rows differ"
    assert np.array_equal(got[4], ref[4]), "transmittance is not bitwise equal"
    assert np.array_equal(got[3], ref[3]), "colour is not bitwise equal (left fold)"
    return got[0]


# ----------------------------------------------------------------------
# Generated Gaussians and tile rectangles
# ----------------------------------------------------------------------
@st.composite
def tiles_of_splats(draw):
    """A frame size, one (possibly partial edge) tile of it and 1-40 Gaussians
    scattered on and around the frame: round and needle-shaped, faint
    (opacity below ``alpha_min``) to opaque."""
    width = draw(st.integers(TILE, 6 * TILE + 5))
    height = draw(st.integers(2, 4 * TILE + 3))
    x0 = TILE * draw(st.integers(0, (width - 1) // TILE))
    y0 = TILE * draw(st.integers(0, (height - 1) // TILE))
    rect = (x0, y0, min(x0 + TILE, width), min(y0 + TILE, height))
    num = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Half of the means near the tile, half anywhere around the frame.
    near = rng.uniform(-2.5 * TILE, 3.5 * TILE, size=(num, 2)) + (x0, y0)
    far = rng.uniform(-0.2, 1.2, size=(num, 2)) * (width, height)
    means = np.where(rng.uniform(size=(num, 1)) < 0.5, near, far)
    sigmas = np.exp(rng.uniform(np.log(0.55), np.log(60.0), size=(num, 2)))
    thetas = rng.uniform(0.0, np.pi, size=num)
    opacities = np.exp(rng.uniform(np.log(1.0e-3), 0.0, size=num))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return splats(means, sigmas, thetas, opacities, dtype), rect, width, height


class TestCullIsExact:
    @given(case=tiles_of_splats())
    @settings(max_examples=300, deadline=None)
    def test_culled_rows_are_dead_in_the_same_dtype_kernel(self, case):
        view, rect, width, height = case
        x0, y0, x1, y1 = rect
        dead = np.setdiff1d(np.arange(view.num_visible), live_rows(view, rect, width, height))
        alpha, maha = kernels.batched_tile_alpha(
            view.means2d[dead], view.conics[dead], view.opacities[dead],
            x0, y0, x1, y1, CONFIG.alpha_min, CONFIG.alpha_max,
        )  # fmt: skip
        assert alpha.dtype == view.means2d.dtype
        assert not alpha.any(), "a culled row has a non-zero alpha"
        assert dead.size == 0 or maha.min() > 9.0, "a culled row reaches a 3-sigma subtile"

    @given(case=tiles_of_splats())
    @settings(max_examples=300, deadline=None)
    def test_unreached_blocks_are_dead_in_the_same_dtype_kernel(self, case):
        view, (x0, y0, x1, y1), width, height = case
        bs = CONFIG.subtile_size
        frame = kernels.BlockFrame(width, height, bs, view.means2d.dtype)
        level = cull_level(view, width, height)
        rows = np.arange(view.num_visible)
        for by in range(y0 // bs, -(-y1 // bs)):
            for bx in range(x0 // bs, -(-x1 // bs)):
                block = np.full(rows.size, by * frame.blocks_x + bx)
                means, conics = view.means2d, view.conics
                dead = rows[~kernels.ellipse_meets_blocks(frame, block, means, conics, level)]
                bx0, by0 = bx * bs, by * bs
                alpha, maha = kernels.batched_tile_alpha(
                    view.means2d[dead], view.conics[dead], view.opacities[dead],
                    bx0, by0, min(bx0 + bs, width), min(by0 + bs, height),
                    CONFIG.alpha_min, CONFIG.alpha_max,
                )  # fmt: skip
                assert not alpha.any(), "an unreached block has a non-zero alpha"
                assert dead.size == 0 or maha.min() > 9.0, "an unreached block is 3-sigma"

    @given(case=tiles_of_splats())
    @settings(max_examples=150, deadline=None)
    def test_tile_counters_match_reference(self, case):
        view, rect, width, height = case
        assert_tile_matches_reference(view, rect, width, height)

    def test_cull_drops_what_the_bounding_radius_keeps(self):
        # A faint Gaussian's 3-sigma radius reaches the tile; its alpha
        # footprint and 3-sigma ellipse (thin, pointing away) do not.
        view = splats([[40.0, 8.0]], [[1.0, 12.0]], [0.0], [0.5])
        live = live_rows(view, (0, 0, 16, 16), 64, 64)
        assert view.radii[0] > 40.0 - 15.0 and live.size == 0

    def test_degenerate_conic_is_never_culled(self):
        view = splats([[500.0, 500.0]], [[1.0, 1.0]], [0.0], [0.5])
        view.conics[0] = (1.0, 1.0, 1.0)  # det == 0
        live = live_rows(view, (0, 0, 16, 16), 64, 64)
        assert live.tolist() == [0]
        block = np.zeros(1, dtype=np.intp)
        frame = kernels.BlockFrame(64, 64, CONFIG.subtile_size)
        level = cull_level(view, 64, 64)
        assert kernels.ellipse_meets_blocks(frame, block, view.means2d, view.conics, level).all()


# ----------------------------------------------------------------------
# Directed stop-position cases
# ----------------------------------------------------------------------
#: A Gaussian so wide its alpha is ~its opacity over the whole tile: 14 of
#: them at opacity 0.5 saturate every pixel on the same row.
def _blanket(num: int):
    return [[8.0, 8.0]] * num, [[100.0, 100.0]] * num, [0.0] * num, [0.5] * num


#: A small Gaussian far from the tile at (0, 0, 16, 16): always culled.
def _bystander(num: int):
    return [[200.0, 200.0]] * num, [[1.0, 1.0]] * num, [0.0] * num, [0.9] * num


def _interleave(*groups):
    """Concatenate ``(means, sigmas, thetas, opacities)`` groups in order."""
    return splats(*[sum((list(g[i]) for g in groups), []) for i in range(4)])


RECT, FRAME = (0, 0, 16, 16), (256, 256)


class TestStopPositionMapping:
    def _live_rows_to_saturate(self) -> int:
        stats = assert_tile_matches_reference(_interleave(_blanket(40)), RECT, *FRAME)
        assert 1 < stats.num_pairs_processed < 40
        return stats.num_pairs_processed

    def test_saturation_on_last_live_row_then_trailing_dead_rows(self):
        need = self._live_rows_to_saturate()
        view = _interleave(_bystander(3), _blanket(need), _bystander(5))
        stats = assert_tile_matches_reference(view, RECT, *FRAME)
        # The leading dead rows count, the trailing ones fall behind the exit.
        assert stats.num_pairs_processed == 3 + need

    def test_dead_rows_between_live_rows_are_counted(self):
        need = self._live_rows_to_saturate()
        view = _interleave(_blanket(need - 1), _bystander(4), _blanket(5), _bystander(2))
        stats = assert_tile_matches_reference(view, RECT, *FRAME)
        assert stats.num_pairs_processed == need + 4

    def test_saturation_exactly_on_a_chunk_boundary(self, monkeypatch):
        # The tile saturates on the last live row of its first rank window.
        need = self._live_rows_to_saturate()
        monkeypatch.setattr(tile_raster, "RANK_WINDOW", need)
        view = _interleave(_bystander(2), _blanket(need), _bystander(2), _blanket(need))
        stats = assert_tile_matches_reference(view, RECT, *FRAME)
        assert stats.num_pairs_processed == 2 + need

    def test_unsaturated_tile_processes_every_row(self):
        view = _interleave(_blanket(3), _bystander(6))
        stats = assert_tile_matches_reference(view, RECT, *FRAME)
        assert stats.num_pairs_processed == 9

    def test_tile_whose_rows_are_all_dead(self):
        stats = assert_tile_matches_reference(_interleave(_bystander(7)), RECT, *FRAME)
        assert stats.num_pairs_processed == 7 and stats.pixels_blended == 0
        assert stats.alpha_evaluations == 0


# ----------------------------------------------------------------------
# Rank-window and layer-chunk invariance, and memory
# ----------------------------------------------------------------------
#: ``(RANK_WINDOW, LAYER_CHUNK)`` settings: one rank per window and one
#: block per chunk, odd sizes, and one window and chunk for the whole frame.
SCHEDULES = [(kernels.RANK_WINDOW, kernels.LAYER_CHUNK), (1, 1), (7, 50), (64, 128), (4096, 10**6)]


@pytest.mark.parametrize("scene", ["train", "drjohnson"])
def test_chunk_schedule_is_unobservable(scene, monkeypatch):
    scene_data, camera = load_scene_and_camera(EvalSetup(scene, quick=True))
    transmittances = []
    finalize = tile_raster.finalize_image

    def spy(color_accum, transmittance, background):
        transmittances.append(transmittance.copy())
        return finalize(color_accum, transmittance, background)

    monkeypatch.setattr(tile_raster, "finalize_image", spy)
    reference = render_tilewise_reference(scene_data, camera, RenderConfig())
    for schedule in SCHEDULES:
        monkeypatch.setattr(tile_raster, "RANK_WINDOW", schedule[0])
        monkeypatch.setattr(tile_raster, "LAYER_CHUNK", schedule[1])
        result = render_tilewise(scene_data, camera, RenderConfig())
        assert _counters(result.stats) == _counters(reference.stats), schedule
        assert result.stats.processed_indices.size == result.stats.num_distinct_processed
        assert np.array_equal(result.stats.processed_indices, reference.stats.processed_indices)
        assert np.array_equal(result.stats.rendered_indices, reference.stats.rendered_indices)
        assert np.array_equal(transmittances[-1], transmittances[0]), schedule
        # The colour sum is a left fold in the reference's order, so the
        # image is the reference's, bit for bit, under every schedule.
        assert np.array_equal(result.image, reference.image), schedule


#: Peak traced allocation (bytes) of one ``render_tilewise`` call on the
#: quick presets at the commit before the cull (fixed 256-row chunks,
#: ``(K, 16, 16)`` float temporaries): train 3.75 MB, drjohnson 4.07 MB.
PARENT_PEAK_BYTES = {"train": 3_750_000, "drjohnson": 4_070_000}


@pytest.mark.parametrize("scene", sorted(PARENT_PEAK_BYTES))
def test_frame_allocates_no_more_than_before_and_keeps_nothing(scene):
    scene_data, camera = load_scene_and_camera(EvalSetup(scene, quick=True))
    render_tilewise(scene_data, camera)  # warm imports and lazy state
    tracemalloc.start()
    try:
        render_tilewise(scene_data, camera)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_PEAK_BYTES[scene]
    for module in (kernels, tile_raster):
        held = [name for name, value in vars(module).items() if isinstance(value, np.ndarray)]
        assert not held, f"{module.__name__} holds module-level arrays: {held}"
