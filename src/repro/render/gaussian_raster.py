"""GCC-dataflow renderer: Gaussian-wise rendering with cross-stage conditions.

This renderer implements the four-stage pipeline of Figure 3:

* **Stage I** — depth computation and grouping: only the 3D means are needed;
  Gaussians closer than the near plane are culled and the rest are organised
  into front-to-back depth groups.
* **Stage II** — position and shape projection of each group, with
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

Stage I hands out its survivors in one stable depth order, each depth group
a run of it (:func:`~repro.render.grouping.group_by_depth`), and groups are
taken in windows of :data:`~repro.render.kernels.GROUP_WINDOW`: one Stage II
call on the window's run (:func:`~repro.render.preprocess.project_geometry`,
which is per Gaussian, so every group's rows are bit for bit those of a call
on that group alone), whose survivors are already in (group, depth) order;
then footprint bits of every (Gaussian, candidate block) pair of the window
in one pass and Algorithm 1 as one reachability fixpoint over them — it does
not depend on the render state — and then, group by group until cross-stage
termination, one SH call and blending per block in rank layers that are
contiguous prefixes of the group's blocks.

The original per-Gaussian/per-block Python loops live apart, in
:mod:`repro.render.reference`, as the oracle this engine is validated
against.  Per pixel the two perform the same operations in the same order
and the transmittance mask evolves identically, so images are bitwise equal
and every statistics counter matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import evaluate_sh_colors
from repro.render.blending import finalize_image
from repro.render.common import INDEX_DTYPE, RenderConfig
from repro.render.grouping import group_by_depth
from repro.render.kernels import (
    GROUP_WINDOW,
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


def frame_setup(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None,
    enable_cc: bool,
    boundary_mode: str,
) -> tuple[RenderConfig, GaussianWiseStats, np.ndarray, np.ndarray]:
    """The bookkeeping that opens a frame, shared with the reference loops:
    the configuration, the checked ``boundary_mode``, the statistics header
    and Stage I — depth computation, culling and grouping — as
    ``(config, stats, sources, bounds)``: the surviving scene indices in
    depth order, group ``k`` being ``sources[bounds[k] : bounds[k + 1]]``."""
    config = config or RenderConfig(radius_rule="omega-sigma")
    if boundary_mode not in BOUNDARY_MODES:
        raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")
    stats = GaussianWiseStats(
        width=camera.width,
        height=camera.height,
        block_size=config.block_size,
        enable_cc=enable_cc,
        num_total=scene.num_gaussians,
    )
    depths_all, keep = frustum_cull_depths(scene, camera)
    visible_indices = np.nonzero(keep)[0]
    stats.num_depth_culled = scene.num_gaussians - int(visible_indices.size)
    stats.num_stage1_passed = int(visible_indices.size)
    order, starts = group_by_depth(depths_all[visible_indices], capacity=config.group_capacity)
    stats.num_groups = int(starts.size)
    return config, stats, visible_indices[order], np.append(starts, order.size)


def frame_result(
    config: RenderConfig,
    stats: GaussianWiseStats,
    rendered_sources: list[int],
    color_accum: np.ndarray,
    transmittance: np.ndarray,
) -> GaussianWiseResult:
    """The bookkeeping that closes a frame, shared with the reference loops:
    the rendered index set and the image over the background."""
    stats.num_rendered = len(rendered_sources)
    if rendered_sources:
        stats.rendered_indices = np.asarray(sorted(rendered_sources), dtype=INDEX_DTYPE)
    image = finalize_image(color_accum, transmittance, config.background)
    return GaussianWiseResult(image=image, stats=stats)


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
    config, stats, sources, bounds = frame_setup(
        scene, camera, config, enable_cc, boundary_mode
    )
    frame = BlockFrame(camera.width, camera.height, config.block_size)
    rendered_sources: list[int] = []
    camera_position = camera.position

    # Each Stage I survivor's position in sources, by scene index.
    position = np.empty(scene.num_gaussians, dtype=np.int64)
    position[sources] = np.arange(sources.size)

    def project_window(first: int) -> list:
        """Stage II of the window of depth groups from group ``first`` on —
        one call on its run of ``sources``, whose survivors keep Stage III's
        (group, depth) order — then Algorithm 1 once for all of them (it
        does not depend on the render state).  Returns, per group, its input
        and survivor counts, its depth-ordered rows (means2d, conics,
        opacities, source indices), and its influence pairs
        ``(gaussian, block)`` and blocks visited."""
        edges = bounds[first : first + GROUP_WINDOW + 1]
        with stage_hook().stage("project"):
            geometry = project_geometry(scene, camera, sources[edges[0] : edges[-1]], config)
        with stage_hook().stage("boundary"):
            means2d, conics, opacities = geometry.means2d, geometry.conics, geometry.opacities
            if boundary_mode == "alpha":
                gaussian, block, visited = identify_group_blocks(
                    frame, means2d, conics, geometry.cov2d, opacities, config.alpha_min
                )
            else:
                gaussian, block = radius_box_blocks(frame, means2d, geometry.radii)
                visited = np.bincount(gaussian, minlength=means2d.shape[0])
            kept = geometry.source_indices
            row_ends = np.searchsorted(position[kept], edges[1:])
            pair_ends = np.searchsorted(gaussian, row_ends).tolist()
            row_ends = row_ends.tolist()
        out = []
        for size, r0, r1, p0, p1 in zip(
            np.diff(edges).tolist(), [0, *row_ends], row_ends, [0, *pair_ends], pair_ends
        ):
            group_rows = (means2d[r0:r1], conics[r0:r1], opacities[r0:r1], kept[r0:r1])
            pairs = (gaussian[p0:p1] - r0, block[p0:p1], int(visited[r0:r1].sum()))
            out.append((size, r1 - r0, group_rows, pairs))
        return out

    def render_group_batched(rows, gaussian, block) -> list[int]:
        """Stages III/IV of one depth group, from its depth-ordered rows and
        influence pairs; returns the source indices of the Gaussians that
        contributed a pixel.  The conditional *counters* come from
        per-Gaussian outcome counts after the fact: colour values do not
        depend on the render state, only how many of them were needed
        does."""
        means2d, conics, opacities, sources = rows
        num = sources.size
        with stage_hook().stage("sh"):
            influence = np.bincount(gaussian, minlength=num)
            if enable_cc:
                # Blocks saturated when the group starts are skipped whatever
                # happens in it: they need no colour and no rank.
                live = ~frame.saturated[block]
                gaussian, block = gaussian[live], block[live]
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

    # A window is projected and traversed when its first group is reached.
    windows = (project_window(first) for first in range(0, stats.num_groups, GROUP_WINDOW))
    for num_input, num_visible, rows, (gaussian, block, visited) in chain.from_iterable(windows):
        stats.num_groups_processed += 1
        stats.num_projected += num_input
        stats.num_screen_passed += num_visible
        if num_visible == 0:
            continue
        stats.sort_elements += num_visible
        stats.blocks_visited += visited
        rendered_sources += render_group_batched(rows, gaussian, block)
        # Cross-stage conditional check, as at the end of the loop body.
        if enable_cc and frame.saturated.all():
            break
    # Groups past termination, the rest of its window included, are skipped.
    stats.num_groups_skipped = stats.num_groups - stats.num_groups_processed
    stats.num_skipped_by_termination = int(sources.size - bounds[stats.num_groups_processed])
    color = frame.unblocked(frame.color.transpose(0, 2, 1))
    return frame_result(
        config, stats, rendered_sources, color, frame.unblocked(frame.transmittance)
    )
