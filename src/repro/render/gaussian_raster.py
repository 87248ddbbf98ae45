"""GCC-dataflow renderer: Gaussian-wise rendering with cross-stage conditions.

This renderer implements the four-stage pipeline of Figure 3:

* **Stage I** — depth computation and grouping: only the 3D means are needed;
  Gaussians closer than the near plane are culled and the rest are organised
  into front-to-back depth groups.
* **Stage II** — position and shape projection of one group at a time, with
  omega-sigma screen culling.
* **Stage III** — spherical-harmonics colour evaluation and intra-group depth
  sorting.  Under cross-stage conditional (CC) processing the SH coefficients
  of a Gaussian are only fetched/evaluated if its footprint still overlaps
  unsaturated pixels.
* **Stage IV** — alpha computation over the blocks found by alpha-based
  boundary identification, and front-to-back blending with a per-block
  transmittance mask.

The produced image matches the tile-wise reference (Table 2 of the paper):
every Gaussian/pixel pair skipped by the GCC dataflow would have contributed
nothing under the standard dataflow either.

Two execution backends are provided, selected by ``RenderConfig.backend``:

* ``"vectorized"`` (default) — Stages III/IV run one whole depth group at a
  time (:mod:`repro.render.kernels`): footprint bits of every (Gaussian,
  candidate block) pair in one pass, Algorithm 1 as a reachability fixpoint
  over them, one SH call, and blending per block in depth-rank layers.
* ``"reference"`` — the original per-Gaussian/per-block Python loops, kept
  as the oracle the vectorized backend is validated against.

Per pixel the two backends perform the same operations in the same order
and the transmittance mask evolves identically, so images are bitwise
equal and every statistics counter matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import evaluate_sh_colors
from repro.render.blending import blend_pixels, compute_alpha, finalize_image
from repro.render.boundary import identify_influence_blocks
from repro.render.common import INDEX_DTYPE, RenderConfig
from repro.render.grouping import group_by_depth
from repro.render.kernels import (
    BlockFrame,
    blend_group_layers,
    identify_group_blocks,
    radius_box_blocks,
    stage_hook,
)
from repro.render.preprocess import frustum_cull_depths, project_geometry

#: Boundary identifiers: Algorithm 1's alpha test, or the full radius box.
BOUNDARY_MODES: tuple[str, ...] = ("alpha", "aabb")


@dataclass
class GaussianWiseStats:
    """Work and data-movement statistics of one Gaussian-wise rendered frame."""

    width: int = 0
    height: int = 0
    block_size: int = 8
    enable_cc: bool = True
    #: Gaussians in the model.
    num_total: int = 0
    #: Gaussians culled by the Stage I depth test.
    num_depth_culled: int = 0
    #: Gaussians entering the group pipeline (passed Stage I).
    num_stage1_passed: int = 0
    #: Total depth groups formed.
    num_groups: int = 0
    #: Groups actually processed (Stages II-IV executed).
    num_groups_processed: int = 0
    #: Groups skipped entirely by cross-stage early termination.
    num_groups_skipped: int = 0
    #: Gaussians inside skipped groups (never projected, never loaded beyond
    #: their mean).
    num_skipped_by_termination: int = 0
    #: Gaussians projected in Stage II.
    num_projected: int = 0
    #: Gaussians surviving the Stage II screen cull.
    num_screen_passed: int = 0
    #: Gaussians skipped because every influence block was saturated in the
    #: transmittance mask (a genuine T_mask skip: the SH load is avoided).
    num_skipped_tmask: int = 0
    #: Gaussians whose alpha footprint covered no block at all (e.g. an
    #: off-screen centre whose clamped start fails the alpha condition).
    #: These never saturated anything and are not T_mask savings.
    num_empty_footprint: int = 0
    #: Gaussians whose SH colour was evaluated (Stage III work / SH loads).
    num_sh_evaluated: int = 0
    #: Gaussians that contributed at least one blended pixel.
    num_rendered: int = 0
    #: Per-pixel alpha evaluations performed in Stage IV.
    alpha_evaluations: int = 0
    #: Pixels that received a blending contribution.
    pixels_blended: int = 0
    #: Pixel blocks visited by boundary identification (evaluated or rejected).
    blocks_visited: int = 0
    #: Pixel blocks whose alphas were computed and blended.
    blocks_evaluated: int = 0
    #: Pixel blocks skipped thanks to the transmittance mask.
    blocks_skipped_tmask: int = 0
    #: Sort operations (elements pushed through the intra-group sorter).
    sort_elements: int = 0
    #: Gaussian indices (into the original scene) that were rendered.
    rendered_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE))

    @property
    def rendered_fraction(self) -> float:
        """Fraction of screen-passed Gaussians that were actually rendered."""
        if self.num_screen_passed == 0:
            return 0.0
        return self.num_rendered / self.num_screen_passed

    @property
    def preprocessing_savings(self) -> float:
        """Fraction of Gaussians whose full preprocessing was avoided.

        Counts Gaussians that were never projected (skipped groups) plus
        those whose SH evaluation was skipped by the transmittance mask,
        relative to the total the standard dataflow would have preprocessed.
        Gaussians with an empty footprint are *not* counted: the standard
        dataflow would not have rendered them either, so skipping them is
        not a dataflow saving.
        """
        if self.num_stage1_passed == 0:
            return 0.0
        avoided = self.num_skipped_by_termination + self.num_skipped_tmask
        return avoided / self.num_stage1_passed


@dataclass
class GaussianWiseResult:
    """Image plus statistics returned by :func:`render_gaussianwise`."""

    image: np.ndarray
    stats: GaussianWiseStats


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


def render_gaussianwise(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None = None,
    enable_cc: bool = True,
    boundary_mode: str = "alpha",
) -> GaussianWiseResult:
    """Render ``scene`` with the GCC Gaussian-wise dataflow.

    Parameters
    ----------
    enable_cc:
        Enable cross-stage conditional processing.  When disabled (the "GW
        only" ablation of Figure 11), every Gaussian that passes screen
        culling has its SH colour evaluated and its full footprint
        alpha-evaluated, and no depth group is skipped.
    boundary_mode:
        ``"alpha"`` uses alpha-based boundary identification (Algorithm 1);
        ``"aabb"`` evaluates every block under the bounding-radius box (the
        ablation quantifying the identifier's contribution, Figure 11c).

    Returns
    -------
    :class:`GaussianWiseResult` with the ``(H, W, 3)`` image and statistics.
    """
    config = config or RenderConfig(radius_rule="omega-sigma")
    if boundary_mode not in BOUNDARY_MODES:
        raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")
    width, height = camera.width, camera.height
    block_size = config.block_size
    blocks_x = (width + block_size - 1) // block_size
    blocks_y = (height + block_size - 1) // block_size
    vectorized = config.backend == "vectorized"

    stats = GaussianWiseStats(
        width=width,
        height=height,
        block_size=block_size,
        enable_cc=enable_cc,
        num_total=scene.num_gaussians,
    )

    if scene.num_gaussians == 0:
        blank = np.zeros((height, width, 3)), np.ones((height, width))
        return GaussianWiseResult(finalize_image(*blank, config.background), stats)

    # Frame state: block-major on the vectorized backend; on the reference,
    # image layout plus the per-block saturation mask (the hardware T_mask):
    # True when every pixel in the block has terminated.
    if vectorized:
        frame = BlockFrame(width, height, block_size)
    else:
        color_accum = np.zeros((height, width, 3), dtype=np.float64)
        transmittance = np.ones((height, width), dtype=np.float64)
        saturated_blocks = np.zeros((blocks_y, blocks_x), dtype=bool)

    # ------------------------------------------------------------------
    # Stage I: depth computation, culling, grouping.
    # ------------------------------------------------------------------
    depths_all, keep = frustum_cull_depths(scene, camera, config.depth_near)
    visible_indices = np.nonzero(keep)[0]
    stats.num_depth_culled = scene.num_gaussians - int(visible_indices.size)
    stats.num_stage1_passed = int(visible_indices.size)

    groups = group_by_depth(depths_all[visible_indices], capacity=config.group_capacity)
    stats.num_groups = len(groups)

    rendered_sources: list[int] = []
    camera_position = camera.position

    def render_group_batched(geometry, order: np.ndarray) -> list[int]:
        """Stages III/IV of one depth group on the vectorized backend; returns
        the source indices of the Gaussians that contributed a pixel.  The
        conditional *counters* come from per-Gaussian outcome counts after
        the fact: colour values do not depend on the render state, only how
        many of them were needed does."""
        num = order.size
        means2d, conics = geometry.means2d[order], geometry.conics[order]
        opacities, sources = geometry.opacities[order], geometry.source_indices[order]
        with stage_hook().stage("boundary"):
            if boundary_mode == "alpha":
                gaussian, block, visited = identify_group_blocks(
                    frame, means2d, conics, geometry.cov2d[order], opacities, config.alpha_min
                )
                stats.blocks_visited += int(visited.sum())
            else:
                gaussian, block = radius_box_blocks(frame, means2d, geometry.radii[order])
                stats.blocks_visited += gaussian.size
            influence = np.bincount(gaussian, minlength=num)
            if enable_cc:
                # Blocks saturated when the group starts are skipped whatever
                # happens in it: they need no colour and no rank.
                live = ~frame.saturated[block]
                gaussian, block = gaussian[live], block[live]
        with stage_hook().stage("sh"):
            owners = np.flatnonzero(np.bincount(gaussian, minlength=num))
            colors = np.zeros((num, 3))
            colors[owners] = evaluate_sh_colors(
                scene.sh_coeffs[sources[owners]],
                scene.means[sources[owners]] - camera_position,
                degree=config.sh_degree,
            )
        with stage_hook().stage("blend"):
            evaluated, pixels, alpha_evaluations = blend_group_layers(
                frame, gaussian, block, means2d, conics, opacities, colors, config, enable_cc
            )
            skipped = influence - evaluated
            stats.blocks_skipped_tmask += int(skipped.sum())
            stats.blocks_evaluated += int(evaluated.sum())
            stats.alpha_evaluations += alpha_evaluations
            stats.pixels_blended += int(pixels.sum())
            # Nothing left to render: a T_mask skip when the mask removed blocks,
            # an empty footprint otherwise; under CC neither fetches SH data.
            nothing_left = evaluated == 0
            stats.num_skipped_tmask += int(np.count_nonzero(nothing_left & (skipped > 0)))
            stats.num_empty_footprint += int(np.count_nonzero(nothing_left & (skipped == 0)))
            stats.num_sh_evaluated += int(np.count_nonzero(~nothing_left)) if enable_cc else num
        return sources[pixels > 0].tolist()

    def refresh_block_mask(block_coords: list[tuple[int, int]]) -> None:
        """Update the saturation mask for the given blocks after blending."""
        for by, bx in block_coords:
            y0, x0 = by * block_size, bx * block_size
            y1, x1 = min(y0 + block_size, height), min(x0 + block_size, width)
            if np.all(transmittance[y0:y1, x0:x1] <= config.transmittance_eps):
                saturated_blocks[by, bx] = True

    terminated = False
    for group_index, group in enumerate(groups):
        if enable_cc and terminated:
            stats.num_groups_skipped += 1
            stats.num_skipped_by_termination += group.size
            continue

        stats.num_groups_processed += 1
        source_idx = visible_indices[group.indices]

        # ------------------------------------------------------------------
        # Stage II: position/shape projection and screen culling.
        # ------------------------------------------------------------------
        with stage_hook().stage("project"):
            geometry = project_geometry(scene, camera, source_idx, config)
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
        if vectorized:
            rendered_sources += render_group_batched(geometry, order)
            # Cross-stage conditional check, as at the end of the loop body.
            terminated = enable_cc and bool(frame.saturated.all())
            continue

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

    stats.num_rendered = len(rendered_sources)
    if rendered_sources:
        stats.rendered_indices = np.asarray(sorted(rendered_sources), dtype=INDEX_DTYPE)

    if vectorized:
        color_accum = frame.unblocked(frame.color)
        transmittance = frame.unblocked(frame.transmittance)
    image = finalize_image(color_accum, transmittance, config.background)
    return GaussianWiseResult(image=image, stats=stats)
