"""Compatibility Mode (Cmode) — sub-view scheduling for constrained buffers.

Sections 4.1 and 4.6: when the target image's accumulation state exceeds the
Image Buffer capacity, the frame is partitioned into sub-views (128 x 128 by
default) rendered one after another.  Gaussians are additionally binned by
screen position so each sub-view only touches the Gaussians overlapping it —
but a Gaussian straddling several sub-views is then processed once per
sub-view, which is the redundancy quantified in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.preprocess import GeometryProjection, tile_range


@dataclass(frozen=True)
class CmodePlan:
    """Outcome of Cmode planning for one frame."""

    #: Whether Compatibility Mode is needed at all.
    enabled: bool
    #: Sub-view edge length in pixels.
    subview: int
    #: Number of sub-views the frame is split into.
    num_subviews: int
    #: Total Gaussian rendering invocations across sub-views (a Gaussian
    #: overlapping k sub-views is invoked k times).
    rendering_invocations: int
    #: Distinct Gaussians that overlap at least one sub-view.
    unique_gaussians: int

    @property
    def duplication_factor(self) -> float:
        """Average invocations per distinct Gaussian (1.0 when Cmode is off)."""
        if self.unique_gaussians == 0:
            return 1.0
        return self.rendering_invocations / self.unique_gaussians


def subview_invocations(
    projected: GeometryProjection,
    width: int,
    height: int,
    subview: int,
) -> tuple[int, int]:
    """Count (rendering invocations, unique Gaussians) for a sub-view size.

    This reuses the tile-range machinery with the sub-view as the "tile":
    the number of sub-views a Gaussian's bounding box overlaps is exactly the
    number of times Cmode will re-process it.
    """
    if projected.num_visible == 0:
        return 0, 0
    tx_min, tx_max, ty_min, ty_max = tile_range(
        projected.means2d, projected.radii, width, height, subview
    )
    counts = (tx_max - tx_min) * (ty_max - ty_min)
    invocations = int(counts.sum())
    unique = int(np.count_nonzero(counts > 0))
    return invocations, unique


def plan_cmode(
    projected: GeometryProjection,
    width: int,
    height: int,
    max_resident_pixels: int,
    subview: int,
) -> CmodePlan:
    """Decide whether Cmode is needed and quantify its duplication overhead."""
    if width * height <= max_resident_pixels:
        unique = projected.num_visible
        return CmodePlan(
            enabled=False,
            subview=subview,
            num_subviews=1,
            rendering_invocations=unique,
            unique_gaussians=unique,
        )
    invocations, unique = subview_invocations(projected, width, height, subview)
    tiles_x = (width + subview - 1) // subview
    tiles_y = (height + subview - 1) // subview
    return CmodePlan(
        enabled=True,
        subview=subview,
        num_subviews=tiles_x * tiles_y,
        rendering_invocations=invocations,
        unique_gaussians=unique,
    )
