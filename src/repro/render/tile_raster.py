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

Stage IV blends every tile at once, with no per-tile loop, on a block-major
frame of GSCore's 8x8 subtiles in the rank layers of GCC's engine
(:func:`~repro.render.kernels.blend_layers`); each tile's early exit and
every counter are recovered in bulk (:func:`_blend_tiles`).  The original
per-pair loop lives apart, in :mod:`repro.render.reference`, as the oracle
this engine is validated against: identical statistics counters and
bitwise-identical images (each pixel gets the reference's operations, colour
additions included, in the reference's order).

Two orthogonal execution modes extend the pipeline without changing it:

* **Tile-range sharding** — ``render_tilewise(..., tile_shard=(lo, hi))``
  renders only the tiles whose row-major id falls in the half-open
  interval.  Tiles are independent in Stage IV, so a frame sharded over
  any partition of the tile range and merged by :func:`compose_tile_shards`
  is *bitwise identical* — image and statistics counters — to the
  unsharded render.  Projection and pair building run identically in every
  shard (they keep the frame-global counters exact); only Stage IV is
  restricted.
* **float32 engine mode** — ``RenderConfig(dtype="float32")`` runs alpha
  evaluation and blending in single precision.  Projection, depth sorting
  and tile assignment stay float64, so the pair stream and every counter
  are identical to the float64 mode; images are validated against the
  float64 reference oracle by PSNR floor instead of bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianScene
from repro.render.blending import finalize_image
from repro.render.common import INDEX_DTYPE, RenderConfig
from repro.render.kernels import (
    LAYER_CHUNK,
    RANK_WINDOW,
    BlockFrame,
    blend_layers,
    cull_level,
    ellipse_meets_blocks,
    entry_maha,
    footprint_block_spans,
    layer_chunks,
    rank_layers,
    stage_hook,
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
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Create (tile_id, gaussian_index) pairs sorted by (tile, depth).

    Returns ``(tile_ids, gaussian_rows, num_tiles_x, num_assigned)`` where
    ``gaussian_rows`` indexes into the projected arrays and ``num_assigned``
    counts the Gaussians with at least one pair.  Pairs are laid out
    Gaussian by Gaussian in stable depth order, each Gaussian's tiles
    row-major, and then stably sorted by tile id (a radix sort when the ids
    fit 16 bits), so the order is exactly that of
    :func:`repro.render.reference._build_tile_pairs_reference`'s lexsort.
    """
    tx_min, tx_max, ty_min, ty_max = tile_range(
        projected.means2d, projected.radii, width, height, tile_size
    )
    nx = tx_max - tx_min
    counts = nx * (ty_max - ty_min)
    num_tiles_x = (width + tile_size - 1) // tile_size

    by_depth = np.argsort(projected.depths, kind="stable")
    per_gaussian = counts[by_depth]
    position = np.repeat(np.arange(by_depth.size), per_gaussian)
    owner = by_depth[position]
    local = np.arange(owner.size) - (np.cumsum(per_gaussian) - per_gaussian)[position]
    iy, ix = np.divmod(local, nx[owner])
    tile_ids = (ty_min[owner] + iy) * num_tiles_x + tx_min[owner] + ix
    num_tiles = num_tiles_x * ((height + tile_size - 1) // tile_size)
    key = tile_ids.astype(np.uint16) if num_tiles <= 2**16 else tile_ids
    order = np.argsort(key, kind="stable")
    return tile_ids[order], owner[order], num_tiles_x, int(np.count_nonzero(counts))


def frame_tile_count(width: int, height: int) -> int:
    """Number of tiles in a frame's row-major tile grid."""
    tile_size = RenderConfig.tile_size
    num_tiles_x = (width + tile_size - 1) // tile_size
    num_tiles_y = (height + tile_size - 1) // tile_size
    return num_tiles_x * num_tiles_y


def _render_view(projected: ProjectedGaussians, dtype: np.dtype) -> ProjectedGaussians:
    """The projected arrays Stage IV reads, in the engine dtype: projection
    and pair building (depths, radii) always run float64."""
    if dtype == np.float64:
        return projected
    fields = ("means2d", "conics", "opacities", "colors")
    return replace(projected, **{name: getattr(projected, name).astype(dtype) for name in fields})


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
    frame = BlockFrame(camera.width, camera.height, config.subtile_size, config.dtype)
    processed_rows = np.zeros(projected.num_visible, dtype=bool)
    rendered_rows = np.zeros(projected.num_visible, dtype=bool)
    if projected.num_visible:
        with stage_hook().stage("pair_build"):
            tile_ids, gaussian_rows, num_tiles_x, stats.num_assigned = _build_tile_pairs(
                projected, camera.width, camera.height, config.tile_size
            )
        stats.num_tile_pairs = int(tile_ids.size)
        if tile_shard is not None:
            owned = tile_interval_slice(tile_ids, *tile_shard)
            tile_ids, gaussian_rows = tile_ids[owned], gaussian_rows[owned]
        starts = np.flatnonzero(np.diff(tile_ids, prepend=-1))
        stats.num_occupied_tiles = int(starts.size)
        with stage_hook().stage("blend", tiles=stats.num_occupied_tiles):
            if starts.size:
                view = _render_view(projected, np.dtype(config.dtype))
                _blend_tiles(
                    view, tile_ids, gaussian_rows, starts, num_tiles_x, frame, config,
                    stats, processed_rows, rendered_rows,
                )  # fmt: skip
    color = frame.unblocked(frame.color.transpose(0, 2, 1))
    return frame_result(
        config, tile_shard, projected, stats, color, frame.unblocked(frame.transmittance),
        processed_rows, rendered_rows,
    )  # fmt: skip


def _blend_tiles(
    view: ProjectedGaussians,
    tile_ids: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    num_tiles_x: int,
    frame: BlockFrame,
    config: RenderConfig,
    stats: TileWiseStats,
    processed_rows: np.ndarray,
    rendered_rows: np.ndarray,
) -> None:
    """Stage IV of every tile of a pair stream at once, on ``frame``'s blocks.

    ``tile_ids``/``rows`` are the pairs sorted by (tile, depth), each tile's
    list starting at ``starts``; ``frame`` has GSCore's subtile edge, half
    the tile's.  A
    tile's *live* rows are those whose footprint box spans one of its blocks
    (:func:`~repro.render.kernels.footprint_block_spans`); a block's run is
    the live rows, in depth order, whose box spans it and whose ellipse
    reaches it (:func:`~repro.render.kernels.ellipse_meets_blocks`); any
    other row has zero alpha and no 3-sigma pixel there.  Windows of
    :data:`RANK_WINDOW` ranks of the live lists go through
    :func:`~repro.render.kernels.blend_layers` in chunks of whole blocks,
    longest run first, and a tile leaves once all its blocks saturate.

    The reference exits a tile on the live row its last block saturates on,
    so the counters follow in bulk: that rank, mapped back to the tile's
    full list (dead rows included), gives its processed pairs, and each
    processed (row, block) entry with a pixel within the 3-sigma test adds
    its block's pixels to the alpha evaluations (an entry of an already
    saturated block is evaluated for that test alone).
    """
    bs, per = frame.block_size, config.tile_size // frame.block_size
    lengths = np.diff(np.append(starts, tile_ids.size))
    tile_of = np.repeat(np.arange(starts.size, dtype=np.int32), lengths)
    ty, tx = np.divmod(tile_ids[starts], num_tiles_x)
    level = cull_level(
        view.means2d, view.conics, view.opacities, config.alpha_min, frame.width, frame.height
    )
    # Per pair, the cells (0..per-1) of its tile's block columns and rows
    # that its footprint box spans.
    spans = footprint_block_spans(frame, view.means2d, view.conics, level)
    origin = ((tx * per).astype(np.int32), (ty * per).astype(np.int32))
    x_lo, x_hi, y_lo, y_hi = (s[rows] - origin[i // 2][tile_of] for i, s in enumerate(spans))
    live = (x_lo < per) & (x_hi >= 0) & (y_lo < per) & (y_hi >= 0)
    before = np.cumsum(live, dtype=np.int32) - live
    rank = before - before[starts][tile_of]
    live_pairs = np.flatnonzero(live)
    window = rank[live_pairs] // RANK_WINDOW
    per_window = np.bincount(window)
    key = window.astype(np.uint16) if per_window.size <= 2**16 else window
    live_pairs = live_pairs[np.argsort(key, kind="stable")]
    window_ends = np.cumsum(per_window).tolist()

    # Per tile its blocks, cell by cell; a cell past the frame edge points
    # at a sentinel slot that reads as saturated before the first row.
    cells = np.arange(per)
    cell_y, cell_x = ty[:, None] * per + cells, tx[:, None] * per + cells
    on_frame = (cell_y < frame.blocks_y)[:, :, None] & (cell_x < frame.blocks_x)[:, None, :]
    num_blocks = frame.valid_pixels.size
    tile_blocks = cell_y[:, :, None] * frame.blocks_x + cell_x[:, None, :]
    tile_blocks = np.where(on_frame, tile_blocks, num_blocks).reshape(starts.size, per * per)
    never = np.iinfo(np.intp).max
    #: Rank (in its tile's live list) of the row each block saturated on.
    saturated_on = np.full(num_blocks + 1, never)
    saturated_on[-1] = -1
    exit_rank = np.full(starts.size, never)
    alive = exit_rank == never
    arrays = (view.means2d, view.conics, view.opacities, view.colors)
    for lo, hi in zip([0, *window_ends], window_ends):
        sel = live_pairs[lo:hi]
        sel = sel[alive[tile_of[sel]]]
        if not sel.size:
            break
        # The window's (pair, block) entries, cell by cell: each block's
        # entries are one contiguous run in depth order.
        in_y = (y_lo[sel, None] <= cells) & (y_hi[sel, None] >= cells)
        in_x = (x_lo[sel, None] <= cells) & (x_hi[sel, None] >= cells)
        cell, at = np.nonzero((in_y[:, :, None] & in_x[:, None, :]).reshape(sel.size, -1).T)
        pair = sel[at]
        blocks = tile_blocks[tile_of[pair], cell]
        g = rows[pair]
        reach = ellipse_meets_blocks(frame, blocks, view.means2d[g], view.conics[g], level[g])
        pair, blocks = pair[reach], blocks[reach]
        tile = tile_of[pair]
        first = np.flatnonzero(np.diff(blocks, prepend=-1))
        run = np.diff(np.append(first, blocks.size))
        done = saturated_on[blocks[first]] != never
        inside = np.zeros(pair.size, dtype=bool)
        if done.any():
            ent = np.repeat(done, run)
            maha = entry_maha(frame, blocks[ent], rows[pair[ent]], *arrays[:2])
            inside[ent] = np.minimum.reduce(maha, axis=1) <= 9.0
        first, run = first[~done], run[~done]
        longest = np.argsort(-run, kind="stable")
        blk, run, first = blocks[first[longest]], run[longest], first[longest]
        for start, stop in layer_chunks(run, LAYER_CHUNK):
            layers = rank_layers(run[start:stop])
            _, layer_start, layer_rank, local = layers
            e = first[start:stop][local] + layer_rank
            counts, sat, inside[e] = blend_layers(
                frame, blk[start:stop], run[start:stop], layers, rows[pair[e]], *arrays, config,
                footprint=True,
            )  # fmt: skip
            stats.pixels_blended += int(counts.sum())
            rendered_rows[rows[pair[e[counts > 0]]]] = True
            new = np.flatnonzero((sat > 0) & (sat <= run[start:stop]))
            saturated_on[blk[start + new]] = rank[pair[e[layer_start[sat[new] - 1] + new]]]
        exit_rank = saturated_on[tile_blocks].max(axis=1)
        alive = exit_rank == never
        counted = inside & (rank[pair] <= exit_rank[tile])
        stats.alpha_evaluations += int(frame.valid_pixels[blocks[counted]].sum())

    exited = np.flatnonzero(exit_rank != never)
    last = np.flatnonzero(live)[before[starts[exited]] + exit_rank[exited]]
    lengths[exited] = last + 1 - starts[exited]
    stats.num_pairs_processed += int(lengths.sum())
    position = np.arange(rows.size) - starts[tile_of]
    processed_rows[rows[position < lengths[tile_of]]] = True


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
    tile_y, tile_x = np.arange(height) // tile_size, np.arange(width) // tile_size
    pixel_tile = tile_y[:, None] * num_tiles_x + tile_x
    for shard in ordered:
        owned = (pixel_tile >= shard.tile_shard[0]) & (pixel_tile < shard.tile_shard[1])
        image[owned] = shard.image[owned]

    # Each shard's index set is a sorted subset of the ascending
    # ``source_indices``, so their union is the unsharded array, dtype included.
    processed = np.unique(np.concatenate([s.stats.processed_indices for s in ordered]))
    rendered = np.unique(np.concatenate([s.stats.rendered_indices for s in ordered]))
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
