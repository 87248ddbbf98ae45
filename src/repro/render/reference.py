"""The reference loops: the oracle both rendering engines are checked against.

:func:`render_tilewise_reference` and :func:`render_gaussianwise_reference`
are the original per-pair, per-Gaussian and per-block Python loops, which
mirror the hardware pipelines one operation at a time.  They return the
engines' result types, and the engines must match them exactly: identical
statistics counters and, in float64, bitwise identical images.
:func:`identify_influence_blocks` is Algorithm 1's per-Gaussian traversal,
the oracle of :func:`repro.render.kernels.identify_group_blocks`.

The oracle stands apart from what it checks: it imports nothing from
:mod:`repro.render.kernels`, and shares with the engines only Stages I-III
(:mod:`repro.render.preprocess`), :mod:`repro.render.blending` and each
engine's ``frame_setup``/``frame_result`` bookkeeping.  In the program only
:func:`repro.exec.frames.render_frame` calls it, when a
:class:`~repro.exec.frames.FrameSpec` asks for the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.covariance import mahalanobis_sq
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import evaluate_sh_colors
from repro.render import gaussian_raster, tile_raster
from repro.render.blending import alpha_from_maha, blend_pixels, compute_alpha
from repro.render.common import ALPHA_MIN, RenderConfig
from repro.render.preprocess import ProjectedGaussians, project_geometry, tile_range
from repro.render.tile_raster import TileWiseResult, TileWiseStats


def _build_tile_pairs_reference(
    projected: ProjectedGaussians,
    width: int,
    height: int,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-Gaussian loop version of :func:`repro.render.tile_raster._build_tile_pairs`."""
    tx_min, tx_max, ty_min, ty_max = tile_range(
        projected.means2d, projected.radii, width, height, tile_size
    )
    counts = (tx_max - tx_min) * (ty_max - ty_min)
    total_pairs = int(counts.sum())
    num_tiles_x = (width + tile_size - 1) // tile_size

    tile_ids = np.empty(total_pairs, dtype=np.int64)
    gaussian_rows = np.empty(total_pairs, dtype=np.int64)
    cursor = 0
    for row in range(projected.num_visible):
        nx = tx_max[row] - tx_min[row]
        ny = ty_max[row] - ty_min[row]
        if nx <= 0 or ny <= 0:
            continue
        txs = np.arange(tx_min[row], tx_max[row])
        tys = np.arange(ty_min[row], ty_max[row])
        ids = (tys[:, None] * num_tiles_x + txs[None, :]).ravel()
        n = ids.size
        tile_ids[cursor : cursor + n] = ids
        gaussian_rows[cursor : cursor + n] = row
        cursor += n
    tile_ids = tile_ids[:cursor]
    gaussian_rows = gaussian_rows[:cursor]

    depths = projected.depths[gaussian_rows]
    order = np.lexsort((depths, tile_ids))
    return tile_ids[order], gaussian_rows[order], num_tiles_x


def _render_tile_reference(
    rows: np.ndarray,
    projected: ProjectedGaussians,
    grid_x: np.ndarray,
    grid_y: np.ndarray,
    tile_color: np.ndarray,
    tile_trans: np.ndarray,
    config: RenderConfig,
    stats: TileWiseStats,
    processed_rows: np.ndarray,
    rendered_rows: np.ndarray,
) -> None:
    """Original per-pair loop over one tile's depth-ordered Gaussians.

    Alpha evaluations are counted as GSCore's OBB subtile skip does: only
    the subtiles that meet the Gaussian's 3-sigma footprint are evaluated.
    """
    subtile = config.subtile_size
    for row in rows:
        if np.all(tile_trans <= config.transmittance_eps):
            break
        stats.num_pairs_processed += 1
        processed_rows[row] = True

        mean = projected.means2d[row]
        conic = projected.conics[row]
        dx = grid_x - mean[0]
        dy = grid_y - mean[1]

        maha = mahalanobis_sq(conic[None, :], dx, dy)
        evaluated = 0
        for sy in range(0, dx.shape[0], subtile):
            for sx in range(0, dx.shape[1], subtile):
                block = maha[sy : sy + subtile, sx : sx + subtile]
                if np.min(block) <= 9.0:  # 3-sigma footprint test
                    evaluated += block.size
        stats.alpha_evaluations += evaluated
        alpha = alpha_from_maha(
            maha,
            projected.opacities[row],
            alpha_min=config.alpha_min,
            alpha_max=config.alpha_max,
        )

        contributed = blend_pixels(
            tile_color,
            tile_trans,
            alpha.reshape(-1),
            projected.colors[row],
            config.transmittance_eps,
        )
        stats.pixels_blended += contributed
        if contributed:
            rendered_rows[row] = True


def render_tilewise_reference(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None = None,
    tile_shard: tuple[int, int] | None = None,
) -> TileWiseResult:
    """:func:`~repro.render.tile_raster.render_tilewise` on the per-Gaussian
    pair builder and the per-pair loop over every occupied tile (of
    ``tile_shard`` when given), in any ``config.dtype``."""
    config, tile_shard, projected, stats = tile_raster.frame_setup(
        scene, camera, config, tile_shard
    )
    width, height = camera.width, camera.height
    tile_size = config.tile_size
    dtype = np.dtype(config.dtype)
    color_accum = np.zeros((height, width, 3), dtype=dtype)
    transmittance = np.ones((height, width), dtype=dtype)
    processed_rows = np.zeros(projected.num_visible, dtype=bool)
    rendered_rows = np.zeros(projected.num_visible, dtype=bool)
    frame = (config, tile_shard, projected, stats, color_accum, transmittance)
    if projected.num_visible == 0:
        return tile_raster.frame_result(*frame, processed_rows, rendered_rows)

    tile_ids, gaussian_rows, num_tiles_x = _build_tile_pairs_reference(
        projected, width, height, tile_size
    )
    stats.num_tile_pairs = int(tile_ids.size)
    stats.num_assigned = int(np.unique(gaussian_rows).size) if tile_ids.size else 0

    view = tile_raster._render_view(projected, dtype)
    unique_tiles, tile_starts = np.unique(tile_ids, return_index=True)
    tile_bounds = np.append(tile_starts, tile_ids.size)
    for t_index, tile_id in enumerate(unique_tiles):
        if tile_shard is not None and not tile_shard[0] <= tile_id < tile_shard[1]:
            continue
        stats.num_occupied_tiles += 1
        rows = gaussian_rows[tile_bounds[t_index] : tile_bounds[t_index + 1]]

        ty, tx = divmod(int(tile_id), num_tiles_x)
        x0, y0 = tx * tile_size, ty * tile_size
        x1, y1 = min(x0 + tile_size, width), min(y0 + tile_size, height)

        tile_color = color_accum[y0:y1, x0:x1].reshape(-1, 3)
        tile_trans = transmittance[y0:y1, x0:x1].reshape(-1)
        xs = np.arange(x0, x1, dtype=dtype)
        ys = np.arange(y0, y1, dtype=dtype)
        grid_x, grid_y = np.meshgrid(xs, ys)
        _render_tile_reference(
            rows, view, grid_x, grid_y, tile_color, tile_trans,
            config, stats, processed_rows, rendered_rows,
        )
        color_accum[y0:y1, x0:x1] = tile_color.reshape(y1 - y0, x1 - x0, 3)
        transmittance[y0:y1, x0:x1] = tile_trans.reshape(y1 - y0, x1 - x0)

    return tile_raster.frame_result(*frame, processed_rows, rendered_rows)


def _alpha_chi2(opacity: float, alpha_min: float) -> float | None:
    """The Mahalanobis^2 threshold for ``alpha >= alpha_min`` (None if empty)."""
    if opacity < alpha_min:
        return None
    return 2.0 * float(np.log(opacity / alpha_min))


def _clamp_to_bounds(value: float, upper: int) -> int:
    """Clamp a float coordinate to the integer range ``[0, upper - 1]``.

    Uses ``floor`` so that an in-bounds coordinate maps to the pixel (or
    block) *containing* it, matching Algorithm 1's "start from the pixel
    containing the projected centre".  Rounding instead can start the
    traversal one pixel past the containing one (e.g. x = 10.7 -> pixel 11),
    which at block granularity can begin the search in a block the footprint
    never touches and miss it entirely.
    """
    return int(min(max(np.floor(value), 0), upper - 1))


@dataclass
class BlockTraversalResult:
    """Outcome of a block-level boundary identification for one Gaussian."""

    #: Blocks (by, bx) whose pixels must be alpha-evaluated, in traversal order.
    blocks: list[tuple[int, int]]
    #: Number of blocks visited (evaluated or rejected); each visit costs one
    #: pass of the n x n PE array in hardware.
    blocks_visited: int
    #: Number of blocks skipped because the transmittance mask marked them
    #: saturated before this Gaussian was processed.
    blocks_skipped_tmask: int


def identify_influence_blocks(
    mean2d: np.ndarray,
    conic: np.ndarray,
    opacity: float,
    width: int,
    height: int,
    block_size: int = 8,
    alpha_min: float = ALPHA_MIN,
    saturated_blocks: np.ndarray | None = None,
) -> BlockTraversalResult:
    """Block-level boundary identification as performed by the Alpha Unit.

    Parameters
    ----------
    saturated_blocks:
        Optional boolean array of shape ``(blocks_y, blocks_x)``; blocks
        marked ``True`` have every pixel's transmittance below the early
        termination threshold (the paper's ``T_mask``) and are skipped without
        evaluation.

    Returns
    -------
    A :class:`BlockTraversalResult`.  A block is included when at least one of
    its pixels satisfies the alpha condition; traversal expands from any
    included block to its 4-neighbours, which (by convexity of the footprint)
    reaches every influenced block while evaluating only a one-block ring
    beyond the footprint.
    """
    blocks_x = (width + block_size - 1) // block_size
    blocks_y = (height + block_size - 1) // block_size
    result_blocks: list[tuple[int, int]] = []
    if blocks_x <= 0 or blocks_y <= 0:
        return BlockTraversalResult(result_blocks, 0, 0)

    chi2 = _alpha_chi2(opacity, alpha_min)
    if chi2 is None:
        return BlockTraversalResult(result_blocks, 0, 0)

    conic = np.asarray(conic, dtype=np.float64)
    cx = _clamp_to_bounds(float(mean2d[0]), width)
    cy = _clamp_to_bounds(float(mean2d[1]), height)
    start = (cy // block_size, cx // block_size)

    visited = np.zeros((blocks_y, blocks_x), dtype=bool)
    skipped_tmask = 0
    blocks_visited = 0

    def block_influence_mask(by: int, bx: int) -> np.ndarray:
        """Per-pixel alpha-condition mask of block (by, bx).

        In hardware this is exactly one pass of the n x n PE array; the
        identifier controller then reads the boundary rows/columns of the
        mask to decide which neighbouring blocks to enqueue, so rejected
        directions never cost an extra array pass.
        """
        x0 = bx * block_size
        y0 = by * block_size
        x1 = min(x0 + block_size, width)
        y1 = min(y0 + block_size, height)
        xs = np.arange(x0, x1, dtype=np.float64) - float(mean2d[0])
        ys = np.arange(y0, y1, dtype=np.float64) - float(mean2d[1])
        dx, dy = np.meshgrid(xs, ys)
        maha = mahalanobis_sq(conic[None, :], dx, dy)
        return maha <= chi2

    queue: deque[tuple[int, int]] = deque()
    visited[start] = True
    blocks_visited += 1
    start_mask = block_influence_mask(*start)
    start_saturated = saturated_blocks is not None and bool(saturated_blocks[start])
    if bool(np.any(start_mask)):
        queue.append(start)
        _masks = {start: start_mask}
        if start_saturated:
            skipped_tmask += 1
        else:
            result_blocks.append(start)
    else:
        _masks = {}

    # Directional expansion: a neighbour is enqueued only when the current
    # block's boundary pixels facing it contain at least one influenced pixel
    # (the paper's directional early termination, valid by convexity).
    while queue:
        by, bx = queue.popleft()
        mask = _masks.pop((by, bx))
        edges = (
            ((by, bx + 1), mask[:, -1]),  # right
            ((by, bx - 1), mask[:, 0]),   # left
            ((by + 1, bx), mask[-1, :]),  # down
            ((by - 1, bx), mask[0, :]),   # up
        )
        for (ny, nx), edge in edges:
            if not (0 <= ny < blocks_y and 0 <= nx < blocks_x):
                continue
            if visited[ny, nx] or not bool(np.any(edge)):
                continue
            visited[ny, nx] = True
            blocks_visited += 1
            neighbour_mask = block_influence_mask(ny, nx)
            if not bool(np.any(neighbour_mask)):
                continue
            queue.append((ny, nx))
            _masks[(ny, nx)] = neighbour_mask
            if saturated_blocks is not None and saturated_blocks[ny, nx]:
                skipped_tmask += 1
            else:
                result_blocks.append((ny, nx))
    return BlockTraversalResult(result_blocks, blocks_visited, skipped_tmask)


def _blocks_from_radius(
    mean2d: np.ndarray,
    radius: float,
    width: int,
    height: int,
    block_size: int,
) -> list[tuple[int, int]]:
    """All blocks overlapped by the axis-aligned radius box (ablation mode)."""
    x0 = max(int((mean2d[0] - radius) // block_size), 0)
    x1 = min(int((mean2d[0] + radius) // block_size), (width - 1) // block_size)
    y0 = max(int((mean2d[1] - radius) // block_size), 0)
    y1 = min(int((mean2d[1] + radius) // block_size), (height - 1) // block_size)
    if x1 < x0 or y1 < y0:
        return []
    return [(by, bx) for by in range(y0, y1 + 1) for bx in range(x0, x1 + 1)]


def render_gaussianwise_reference(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None = None,
    enable_cc: bool = True,
    boundary_mode: str = "alpha",
) -> gaussian_raster.GaussianWiseResult:
    """:func:`~repro.render.gaussian_raster.render_gaussianwise` as one
    Gaussian at a time: Algorithm 1's traversal (or the radius box), its SH
    colour and its blocks blended in image layout, with the per-block
    saturation mask refreshed after every Gaussian."""
    config, stats, sources, bounds = gaussian_raster.frame_setup(
        scene, camera, config, enable_cc, boundary_mode
    )
    width, height = camera.width, camera.height
    block_size = config.block_size
    blocks_x = (width + block_size - 1) // block_size
    blocks_y = (height + block_size - 1) // block_size
    # Frame state: image layout plus the per-block saturation mask (the
    # hardware T_mask): True when every pixel in the block has terminated.
    color_accum = np.zeros((height, width, 3), dtype=np.float64)
    transmittance = np.ones((height, width), dtype=np.float64)
    saturated_blocks = np.zeros((blocks_y, blocks_x), dtype=bool)
    rendered_sources: list[int] = []
    camera_position = camera.position

    def refresh_block_mask(block_coords: list[tuple[int, int]]) -> None:
        """Update the saturation mask for the given blocks after blending."""
        for by, bx in block_coords:
            y0, x0 = by * block_size, bx * block_size
            y1, x1 = min(y0 + block_size, height), min(x0 + block_size, width)
            if np.all(transmittance[y0:y1, x0:x1] <= config.transmittance_eps):
                saturated_blocks[by, bx] = True

    terminated = False
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if enable_cc and terminated:
            stats.num_groups_skipped += 1
            stats.num_skipped_by_termination += end - start
            continue

        stats.num_groups_processed += 1

        # ------------------------------------------------------------------
        # Stage II: position/shape projection and screen culling.
        # ------------------------------------------------------------------
        geometry = project_geometry(scene, camera, sources[start:end], config)
        stats.num_projected += geometry.num_input
        stats.num_screen_passed += geometry.num_visible
        if geometry.num_visible == 0:
            continue

        # ------------------------------------------------------------------
        # Stage III: intra-group front-to-back sort (colour is evaluated
        # conditionally under CC).
        # ------------------------------------------------------------------
        order = np.argsort(geometry.depths, kind="stable")
        stats.sort_elements += geometry.num_visible

        # ------------------------------------------------------------------
        # Stage IV: boundary identification, alpha computation, blending.
        # ------------------------------------------------------------------
        for row in order:
            mean2d = geometry.means2d[row]
            conic = geometry.conics[row]
            opacity = float(geometry.opacities[row])

            if boundary_mode == "alpha":
                traversal = identify_influence_blocks(
                    mean2d,
                    conic,
                    opacity,
                    width,
                    height,
                    block_size=block_size,
                    alpha_min=config.alpha_min,
                    saturated_blocks=saturated_blocks if enable_cc else None,
                )
                blocks = traversal.blocks
                stats.blocks_visited += traversal.blocks_visited
                stats.blocks_skipped_tmask += traversal.blocks_skipped_tmask
                skipped_here = traversal.blocks_skipped_tmask
            else:
                blocks = _blocks_from_radius(
                    mean2d, float(geometry.radii[row]), width, height, block_size
                )
                stats.blocks_visited += len(blocks)
                skipped_here = 0
                if enable_cc:
                    kept = [b for b in blocks if not saturated_blocks[b]]
                    skipped_here = len(blocks) - len(kept)
                    stats.blocks_skipped_tmask += skipped_here
                    blocks = kept

            if not blocks:
                # Nothing to render.  Only count a T_mask skip when the
                # saturation mask actually removed blocks; a footprint that
                # covered no block to begin with was never going to render
                # and is not a preprocessing saving.
                if skipped_here > 0:
                    stats.num_skipped_tmask += 1
                else:
                    stats.num_empty_footprint += 1
                if enable_cc:
                    # Under CC this Gaussian's SH coefficients are never
                    # fetched.
                    continue

            # Stage III colour evaluation (conditional under CC).
            direction = scene.means[geometry.source_indices[row]] - camera_position
            color = evaluate_sh_colors(
                scene.sh_coeffs[geometry.source_indices[row]][None, :, :],
                direction[None, :],
                degree=config.sh_degree,
            )[0]
            stats.num_sh_evaluated += 1

            if not blocks:
                continue

            contributed_any = 0
            touched_blocks: list[tuple[int, int]] = []
            for by, bx in blocks:
                y0, x0 = by * block_size, bx * block_size
                y1, x1 = min(y0 + block_size, height), min(x0 + block_size, width)
                xs = np.arange(x0, x1, dtype=np.float64)
                ys = np.arange(y0, y1, dtype=np.float64)
                grid_x, grid_y = np.meshgrid(xs, ys)
                dx = grid_x - mean2d[0]
                dy = grid_y - mean2d[1]

                stats.alpha_evaluations += dx.size
                stats.blocks_evaluated += 1
                alpha = compute_alpha(
                    conic,
                    opacity,
                    dx,
                    dy,
                    alpha_min=config.alpha_min,
                    alpha_max=config.alpha_max,
                )

                block_color = color_accum[y0:y1, x0:x1].reshape(-1, 3)
                block_trans = transmittance[y0:y1, x0:x1].reshape(-1)
                contributed = blend_pixels(
                    block_color,
                    block_trans,
                    alpha.reshape(-1),
                    color,
                    config.transmittance_eps,
                )
                color_accum[y0:y1, x0:x1] = block_color.reshape(y1 - y0, x1 - x0, 3)
                transmittance[y0:y1, x0:x1] = block_trans.reshape(y1 - y0, x1 - x0)
                stats.pixels_blended += contributed
                contributed_any += contributed
                if contributed:
                    touched_blocks.append((by, bx))
            if contributed_any:
                refresh_block_mask(touched_blocks)
                rendered_sources.append(int(geometry.source_indices[row]))

        # Cross-stage conditional check: if every block is saturated, the
        # remaining (deeper) groups are skipped entirely.
        if enable_cc and bool(np.all(saturated_blocks)):
            terminated = True

    return gaussian_raster.frame_result(
        config, stats, rendered_sources, color_accum, transmittance
    )
