"""Standard-dataflow renderer: preprocess-then-render with tile-wise rendering.

This is the pipeline used by the original 3DGS GPU rasteriser and by the
GSCore baseline accelerator (Section 2.2 of the paper):

1. *Preprocessing*: every Gaussian is projected to 2D and its colour is
   evaluated from spherical harmonics, regardless of whether it will be used.
2. *Tile assignment*: each 2D Gaussian is mapped to the fixed-size tiles its
   bounding box overlaps, producing Gaussian-tile key-value pairs.
3. *Tile-wise rendering*: tiles are processed in scanline order; each tile
   sorts its Gaussians by depth and alpha-blends them front-to-back with
   per-pixel early termination.

Besides the image, the renderer reports the statistics the paper's
motivation figures are built from: how many preprocessed Gaussians are never
used (Figure 2a), how many times each Gaussian is re-loaded across tiles
(Figure 2b), and how many pixels are alpha-evaluated versus actually blended
(Table 1).

Each tile's depth-ordered Gaussian list is first culled to the rows whose
footprint can reach the tile, then processed in batched chunks via
:mod:`repro.render.kernels`, with the early-termination point recovered
exactly from a running transmittance product and mapped back to the
un-culled list.  The original per-pair Python loop lives apart, in
:mod:`repro.render.reference`, as the oracle this engine is validated
against: identical statistics counters and bitwise-identical images (the
kernels perform the reference's colour additions in the reference's order).

Two orthogonal execution modes extend the pipeline without changing it:

* **Tile-range sharding** — ``render_tilewise(..., tile_shard=(lo, hi))``
  renders only the tiles whose row-major id falls in the half-open
  interval.  Tiles are independent until Stage IV blending is applied
  per-tile, so a frame sharded over any partition of the tile range and
  merged by :func:`compose_tile_shards` is *bitwise identical* — image and
  statistics counters — to the unsharded render.  Projection and pair
  building run identically in every shard (they are cheap relative to
  blending and keep the frame-global counters exact); only the per-tile
  rendering loop is restricted.
* **float32 engine mode** — ``RenderConfig(dtype="float32")`` runs alpha
  evaluation and blending in single precision.  Projection, depth sorting
  and tile assignment stay float64, so the pair stream and every counter
  are identical to the float64 mode; images are validated against the
  float64 reference oracle by PSNR floor instead of bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianScene
from repro.render.blending import finalize_image
from repro.render.common import INDEX_DTYPE, RenderConfig
from repro.render.kernels import (
    TILE_CHUNK_SCHEDULE,
    batched_tile_alpha,
    live_tile_rows,
    sequential_blend,
    stage_hook,
    subtile_evaluation_count,
    tile_cull_bounds,
    tile_interval_slice,
)
from repro.render.preprocess import ProjectedGaussians, project_scene, tile_range


@dataclass
class TileWiseStats:
    """Work and data-movement statistics of one tile-wise rendered frame."""

    width: int = 0
    height: int = 0
    #: Gaussians in the model.
    num_total: int = 0
    #: Gaussians passing the near/far depth cull.
    num_depth_passed: int = 0
    #: Gaussians preprocessed into on-screen 2D splats ("In Frustum" in Fig 2a).
    num_preprocessed: int = 0
    #: Gaussians assigned to at least one tile.
    num_assigned: int = 0
    #: Gaussian-tile key-value pairs created (sorting keys).
    num_tile_pairs: int = 0
    #: Gaussian-tile pairs actually processed by the rendering loop (pairs
    #: remaining after a tile saturates are skipped, but their Gaussian data
    #: was still preprocessed and stored).
    num_pairs_processed: int = 0
    #: Distinct Gaussians appearing in at least one processed pair.  Differs
    #: from ``num_assigned`` when every pair of a Gaussian fell behind a
    #: saturated tile's early exit.
    num_distinct_processed: int = 0
    #: Gaussians that contributed at least one blended pixel ("Rendered").
    num_rendered: int = 0
    #: Per-pixel alpha evaluations performed.
    alpha_evaluations: int = 0
    #: Pixels that actually received a blending contribution.
    pixels_blended: int = 0
    #: Number of tiles containing at least one Gaussian.
    num_occupied_tiles: int = 0
    #: Gaussian indices (into the original scene) that were rendered.
    rendered_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE))
    #: Gaussian indices (into the original scene) with at least one processed
    #: pair.  Kept as a sorted array (not just the ``num_distinct_processed``
    #: count) so shard compositing can take the exact union across shards.
    processed_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE))

    @property
    def avg_loads_per_gaussian(self) -> float:
        """Average number of times a Gaussian is loaded during rendering.

        In the standard dataflow a Gaussian's parameters are re-fetched for
        every tile it is processed in, so this is processed pairs divided by
        the number of distinct Gaussians processed (Figure 2b).  Gaussians
        whose every pair was skipped by tile saturation never load their
        parameters in the rendering loop and are excluded from the
        denominator.
        """
        if self.num_distinct_processed == 0:
            return 0.0
        return self.num_pairs_processed / self.num_distinct_processed

    @property
    def rendered_fraction(self) -> float:
        """Fraction of preprocessed Gaussians that were actually rendered."""
        if self.num_preprocessed == 0:
            return 0.0
        return self.num_rendered / self.num_preprocessed


@dataclass
class TileWiseResult:
    """Image plus statistics returned by :func:`render_tilewise`.

    ``tile_shard`` is the half-open tile-id interval this result rendered,
    or ``None`` for a whole frame.  A shard's image holds the background
    colour outside its owned tiles; :func:`compose_tile_shards` merges a
    partition of shards back into a whole frame.
    """

    image: np.ndarray
    stats: TileWiseStats
    projected: ProjectedGaussians
    tile_shard: tuple[int, int] | None = None


def _build_tile_pairs(
    projected: ProjectedGaussians,
    width: int,
    height: int,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Create (tile_id, gaussian_index) pairs sorted by (tile, depth).

    Returns ``(tile_ids, gaussian_rows, num_tiles_x)`` where ``gaussian_rows``
    indexes into the projected arrays.  Pairs are built with a repeat/offset
    construction instead of a per-Gaussian Python loop; the output (order
    included) is identical to
    :func:`repro.render.reference._build_tile_pairs_reference`.
    """
    tx_min, tx_max, ty_min, ty_max = tile_range(
        projected.means2d, projected.radii, width, height, tile_size
    )
    nx = (tx_max - tx_min).astype(np.int64)
    ny = (ty_max - ty_min).astype(np.int64)
    counts = nx * ny
    total_pairs = int(counts.sum())
    num_tiles_x = (width + tile_size - 1) // tile_size

    gaussian_rows = np.repeat(np.arange(projected.num_visible, dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total_pairs, dtype=np.int64) - np.repeat(starts, counts)
    # Row-major (y outer, x inner) within each Gaussian, as the reference
    # loop's ravel() of the (ty, tx) meshgrid produces.
    nx_rep = np.repeat(nx, counts)
    iy, ix = np.divmod(local, np.maximum(nx_rep, 1))
    tile_ids = (np.repeat(ty_min, counts) + iy) * num_tiles_x + np.repeat(tx_min, counts) + ix

    # Sort by (tile, depth) — the radix sort of the standard pipeline.
    depths = projected.depths[gaussian_rows]
    order = np.lexsort((depths, tile_ids))
    return tile_ids[order], gaussian_rows[order], num_tiles_x


def _render_tile_vectorized(
    rows: np.ndarray,
    projected: ProjectedGaussians,
    cull_bounds: np.ndarray,
    x0: int,
    y0: int,
    x1: int,
    y1: int,
    tile_color: np.ndarray,
    tile_trans: np.ndarray,
    config: RenderConfig,
    stats: TileWiseStats,
    processed_rows: np.ndarray,
    rendered_rows: np.ndarray,
) -> None:
    """Chunked, batched processing of one tile's depth-ordered Gaussians.

    Only the *live* rows — those whose footprint box meets the tile — are
    evaluated.  A dead row leaves every pixel and every counter alone
    except that the reference loop still counts it as processed while the
    tile is unsaturated, so the number of processed pairs is mapped back
    from the live rows: one past the position of the live row the tile
    saturated on, or every row when it never saturates.
    """
    num_pixels = (y1 - y0) * (x1 - x0)
    live = live_tile_rows(cull_bounds, rows, x0, y0, x1, y1)
    live_rows = rows[live]
    processed = rows.size
    pos = 0
    for size in chain(TILE_CHUNK_SCHEDULE, repeat(TILE_CHUNK_SCHEDULE[-1])):
        if pos >= live_rows.size:
            break
        chunk = live_rows[pos : pos + size]
        alpha, maha = batched_tile_alpha(
            projected.means2d[chunk],
            projected.conics[chunk],
            projected.opacities[chunk],
            x0,
            y0,
            x1,
            y1,
            config.alpha_min,
            config.alpha_max,
        )
        n_proc, counts = sequential_blend(
            tile_color,
            tile_trans,
            alpha.reshape(chunk.size, num_pixels),
            projected.colors[chunk],
            config.transmittance_eps,
        )
        stats.alpha_evaluations += subtile_evaluation_count(
            maha[:n_proc], config.subtile_size
        )
        stats.pixels_blended += int(counts[:n_proc].sum())
        rendered_rows[chunk[:n_proc][counts[:n_proc] > 0]] = True
        # Saturation can land exactly on the chunk's last row (n_proc ==
        # chunk size), so a full chunk re-checks before the next one.
        if n_proc < chunk.size or np.all(tile_trans <= config.transmittance_eps):
            processed = int(live[pos + n_proc - 1]) + 1
            break
        pos += chunk.size
    stats.num_pairs_processed += processed
    processed_rows[rows[:processed]] = True


def frame_tile_count(width: int, height: int) -> int:
    """Number of tiles in a frame's row-major tile grid."""
    tile_size = RenderConfig.tile_size
    num_tiles_x = (width + tile_size - 1) // tile_size
    num_tiles_y = (height + tile_size - 1) // tile_size
    return num_tiles_x * num_tiles_y


def _render_view(projected: ProjectedGaussians, dtype: np.dtype) -> ProjectedGaussians:
    """The projected arrays the rendering loop reads, in the engine dtype.

    Projection and pair building always run float64; for the float32 mode
    only the fields the per-pixel stage touches are down-cast, leaving
    depths (sorting) and radii (tile assignment) untouched.
    """
    if dtype == np.float64:
        return projected
    return replace(
        projected,
        means2d=projected.means2d.astype(dtype),
        conics=projected.conics.astype(dtype),
        opacities=projected.opacities.astype(dtype),
        colors=projected.colors.astype(dtype),
    )


def frame_setup(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None,
    tile_shard: tuple[int, int] | None,
) -> tuple[RenderConfig, tuple[int, int] | None, ProjectedGaussians, TileWiseStats]:
    """The bookkeeping that opens a frame, shared with the reference loops:
    the configuration, the range-checked ``tile_shard``, Stages I-III
    (:func:`~repro.render.preprocess.project_scene`) and the statistics
    header."""
    config = config or RenderConfig()
    if tile_shard is not None:
        lo, hi = int(tile_shard[0]), int(tile_shard[1])
        num_tiles = frame_tile_count(camera.width, camera.height)
        if not 0 <= lo <= hi <= num_tiles:
            raise ValueError(
                f"tile_shard {tile_shard!r} out of range for {num_tiles} tiles"
            )
        tile_shard = (lo, hi)
    with stage_hook().stage("project"):
        projected = project_scene(scene, camera, config)
    stats = TileWiseStats(
        width=camera.width,
        height=camera.height,
        num_total=projected.num_total,
        num_depth_passed=projected.num_depth_passed,
        num_preprocessed=projected.num_visible,
    )
    return config, tile_shard, projected, stats


def frame_result(
    config: RenderConfig,
    tile_shard: tuple[int, int] | None,
    projected: ProjectedGaussians,
    stats: TileWiseStats,
    color_accum: np.ndarray,
    transmittance: np.ndarray,
    processed_rows: np.ndarray,
    rendered_rows: np.ndarray,
) -> TileWiseResult:
    """The bookkeeping that closes a frame, shared with the reference loops:
    the processed and rendered index sets recovered from their row masks,
    and the image over the background."""
    stats.num_distinct_processed = int(np.count_nonzero(processed_rows))
    stats.num_rendered = int(np.count_nonzero(rendered_rows))
    if stats.num_distinct_processed:
        stats.processed_indices = projected.source_indices[processed_rows].astype(INDEX_DTYPE)
    if stats.num_rendered:
        stats.rendered_indices = projected.source_indices[rendered_rows].astype(INDEX_DTYPE)
    image = finalize_image(color_accum, transmittance, config.background)
    return TileWiseResult(
        image=image, stats=stats, projected=projected, tile_shard=tile_shard
    )


def render_tilewise(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None = None,
    tile_shard: tuple[int, int] | None = None,
) -> TileWiseResult:
    """Render ``scene`` with the standard preprocess-then-render dataflow.

    Alpha evaluations are counted as GSCore's OBB subtile skip does: only
    for the subtiles (half a tile on each side) that meet the Gaussian's
    3-sigma oriented footprint; the rendered image is unaffected.

    Parameters
    ----------
    tile_shard:
        Optional half-open ``(lo, hi)`` interval of row-major tile ids.
        When given, only tiles with ``lo <= id < hi`` are rendered: pixels
        outside the interval hold the background colour and the per-tile
        statistics counters (pairs processed, alpha evaluations, pixels
        blended, occupied tiles, processed/rendered index sets) cover only
        the owned tiles, while the frame-global counters (totals, depth
        cull, preprocessed, assigned, tile pairs) are those of the whole
        frame.  :func:`compose_tile_shards` merges a partition of shards
        bitwise-exactly back into the unsharded result.

    Returns
    -------
    :class:`TileWiseResult` with the ``(H, W, 3)`` image in [0, 1+] and the
    collected statistics.
    """
    config, tile_shard, projected, stats = frame_setup(scene, camera, config, tile_shard)
    width, height = camera.width, camera.height
    tile_size = config.tile_size
    dtype = np.dtype(config.dtype)
    color_accum = np.zeros((height, width, 3), dtype=dtype)
    transmittance = np.ones((height, width), dtype=dtype)
    processed_rows = np.zeros(projected.num_visible, dtype=bool)
    rendered_rows = np.zeros(projected.num_visible, dtype=bool)
    frame = (config, tile_shard, projected, stats, color_accum, transmittance)
    if projected.num_visible == 0:
        return frame_result(*frame, processed_rows, rendered_rows)

    with stage_hook().stage("pair_build"):
        tile_ids, gaussian_rows, num_tiles_x = _build_tile_pairs(
            projected, width, height, tile_size
        )
    stats.num_tile_pairs = int(tile_ids.size)
    stats.num_assigned = int(np.unique(gaussian_rows).size) if tile_ids.size else 0

    view = _render_view(projected, dtype)
    unique_tiles, tile_starts = np.unique(tile_ids, return_index=True)
    tile_bounds = np.append(tile_starts, tile_ids.size)
    if tile_shard is None:
        t_lo, t_hi = 0, int(unique_tiles.size)
    else:
        owned = tile_interval_slice(unique_tiles, *tile_shard)
        t_lo, t_hi = owned.start, owned.stop
    stats.num_occupied_tiles = t_hi - t_lo

    with stage_hook().stage("blend", tiles=t_hi - t_lo):
        cull_bounds = tile_cull_bounds(
            view.means2d, view.conics, view.opacities, config.alpha_min, width, height
        )
        for t_index in range(t_lo, t_hi):
            tile_id = unique_tiles[t_index]
            start, stop = tile_bounds[t_index], tile_bounds[t_index + 1]
            rows = gaussian_rows[start:stop]

            ty, tx = divmod(int(tile_id), num_tiles_x)
            x0, y0 = tx * tile_size, ty * tile_size
            x1, y1 = min(x0 + tile_size, width), min(y0 + tile_size, height)

            tile_color = color_accum[y0:y1, x0:x1].reshape(-1, 3)
            tile_trans = transmittance[y0:y1, x0:x1].reshape(-1)
            _render_tile_vectorized(
                rows, view, cull_bounds, x0, y0, x1, y1, tile_color, tile_trans,
                config, stats, processed_rows, rendered_rows,
            )
            color_accum[y0:y1, x0:x1] = tile_color.reshape(y1 - y0, x1 - x0, 3)
            transmittance[y0:y1, x0:x1] = tile_trans.reshape(y1 - y0, x1 - x0)

    return frame_result(*frame, processed_rows, rendered_rows)


def _copy_tile_interval(
    dst: np.ndarray,
    src: np.ndarray,
    interval: tuple[int, int],
    num_tiles_x: int,
    tile_size: int,
) -> None:
    """Copy the pixels of the tiles in ``interval`` from ``src`` to ``dst``.

    A contiguous row-major tile-id interval is a stack of full tile rows
    with at most one partial row at each end, so the copy is a handful of
    rectangular slice assignments, not a per-tile loop.
    """
    lo, hi = interval
    if lo >= hi:
        return
    height, width = dst.shape[:2]
    for ty in range(lo // num_tiles_x, (hi - 1) // num_tiles_x + 1):
        tx_lo = max(lo - ty * num_tiles_x, 0)
        tx_hi = min(hi - ty * num_tiles_x, num_tiles_x)
        y0, y1 = ty * tile_size, min((ty + 1) * tile_size, height)
        x0, x1 = tx_lo * tile_size, min(tx_hi * tile_size, width)
        dst[y0:y1, x0:x1] = src[y0:y1, x0:x1]


def _union_indices(arrays: list[np.ndarray]) -> np.ndarray:
    """Sorted union of per-shard source-index arrays.

    Each input is sorted-unique (a subset of the ascending
    ``source_indices``), so the union reproduces the unsharded array
    bitwise, dtype included.
    """
    nonempty = [a for a in arrays if a.size]
    if not nonempty:
        return np.zeros(0, dtype=INDEX_DTYPE)
    out = nonempty[0]
    for arr in nonempty[1:]:
        out = np.union1d(out, arr)
    return out


def compose_tile_shards(shards: list[TileWiseResult]) -> TileWiseResult:
    """Merge tile-range shards of one frame into the whole-frame result.

    ``shards`` must be the renders of a partition of the frame's tile-id
    range (any order, empty intervals allowed).  The composition is *pure*
    and *exact*: because Stage IV blending is per-tile, the merged image
    and every statistics counter are bitwise identical to an unsharded
    :func:`render_tilewise` call with the same scene/camera/config.

    Per-tile counters are summed across shards; frame-global counters are
    taken from any shard (each shard runs the identical projection and
    pair-building stages); the distinct-processed and rendered Gaussian
    sets are recovered exactly as the union of the per-shard index arrays.
    """
    if not shards:
        raise ValueError("compose_tile_shards needs at least one shard")
    for shard in shards:
        if shard.tile_shard is None:
            raise ValueError("compose_tile_shards got a whole-frame result")
    base = shards[0].stats
    width, height = base.width, base.height
    tile_size = RenderConfig.tile_size
    num_tiles_x = (width + tile_size - 1) // tile_size
    num_tiles = frame_tile_count(width, height)

    ordered = sorted(shards, key=lambda s: s.tile_shard)
    cursor = 0
    for shard in ordered:
        st = shard.stats
        if (st.width, st.height) != (width, height):
            raise ValueError("shards disagree on frame geometry")
        lo, hi = shard.tile_shard
        if lo != cursor:
            raise ValueError(
                f"shard intervals do not partition [0, {num_tiles}): "
                f"gap or overlap at tile {cursor}"
            )
        cursor = hi
    if cursor != num_tiles:
        raise ValueError(
            f"shard intervals cover [0, {cursor}) but the frame has {num_tiles} tiles"
        )

    image = np.empty_like(ordered[0].image)
    for shard in ordered:
        _copy_tile_interval(image, shard.image, shard.tile_shard, num_tiles_x, tile_size)

    processed = _union_indices([s.stats.processed_indices for s in ordered])
    rendered = _union_indices([s.stats.rendered_indices for s in ordered])
    stats = TileWiseStats(
        width=width,
        height=height,
        num_total=base.num_total,
        num_depth_passed=base.num_depth_passed,
        num_preprocessed=base.num_preprocessed,
        num_assigned=base.num_assigned,
        num_tile_pairs=base.num_tile_pairs,
        num_pairs_processed=sum(s.stats.num_pairs_processed for s in ordered),
        num_distinct_processed=int(processed.size),
        num_rendered=int(rendered.size),
        alpha_evaluations=sum(s.stats.alpha_evaluations for s in ordered),
        pixels_blended=sum(s.stats.pixels_blended for s in ordered),
        num_occupied_tiles=sum(s.stats.num_occupied_tiles for s in ordered),
        rendered_indices=rendered,
        processed_indices=processed,
    )
    return TileWiseResult(
        image=image, stats=stats, projected=ordered[0].projected, tile_shard=None
    )
