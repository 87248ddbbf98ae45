"""Shared configuration and constants for the functional renderers.

The paper's thresholds (alpha bounds, early-termination transmittance, the
Stage I near plane, the SH degree and the depth-group capacity) are fixed
constants here, not settings: :class:`RenderConfig` exposes them read-only.
Both dataflows therefore share one preprocessing with the same numbers: the
standard dataflow's is GCC's Stages I-III with every condition taken
(:mod:`repro.render.preprocess`).  The standard dataflow is GSCore's: a
16x16 tile, alpha evaluations counted on its 8x8 OBB subtiles, blended over
a black background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

#: Minimum alpha that contributes to blending (the paper's 1/255 threshold).
ALPHA_MIN = 1.0 / 255.0

#: Maximum alpha after clamping (Equation 3/9 clamps at 0.99).
ALPHA_MAX = 0.99

#: Transmittance threshold below which a pixel is considered saturated and
#: further Gaussians are skipped (the 3DGS early-termination criterion).
TRANSMITTANCE_EPS = 1.0e-4

#: Depth below which Gaussians are culled in Stage I (the paper's Z pivot).
DEPTH_NEAR = 0.2

#: Spherical-harmonics degree of colour evaluation (16 coefficients per channel).
SH_DEGREE = 3

#: Tile edge length (pixels) of the standard dataflow (GSCore's 16x16 VRU);
#: GSCore's OBB subtile is half of it.
TILE_SIZE = 16

#: Background colour blended behind the scene.
BACKGROUND: tuple[float, float, float] = (0.0, 0.0, 0.0)

#: Pixel-block edge length used by GCC's Alpha Unit (an 8x8 PE array).
BLOCK_SIZE = 8

#: Maximum Gaussians per depth group (the paper's N = 256): the renderer's
#: default and the capacity GCC's Stage I grouping and Sort Unit are sized for.
GROUP_CAPACITY = 256

#: dtype of the Gaussian index arrays a frame's statistics carry
#: (``rendered_indices`` / ``processed_indices``).  They travel the worker
#: result pipe with every frame; scene sizes are far below 2**31.
INDEX_DTYPE = np.int32

#: Floating-point modes the tile-wise engine can compute in.  ``"float64"``
#: is the historical default, bitwise equal to :mod:`repro.render.reference`;
#: ``"float32"`` is the fast path: alpha evaluation and blending run in
#: single precision (counters stay integer-identical to the reference's,
#: images are held to a PSNR floor against the float64 oracle instead).
DTYPES: tuple[str, ...] = ("float64", "float32")


@dataclass(frozen=True)
class RenderConfig:
    """Configuration shared by both rasterisers.

    The paper's constants are class attributes bound to this module's
    constants (``alpha_min``, ``alpha_max``, ``transmittance_eps``,
    ``depth_near``, ``sh_degree``, ``group_capacity``, ``tile_size``,
    ``background``): readable on every instance, settable by no
    constructor.

    Attributes
    ----------
    block_size:
        Pixel-block edge length of the Gaussian-wise pipeline (Alpha Unit PE
        array dimension; the paper uses 8).
    radius_rule:
        ``"3sigma"`` for the conventional fixed envelope or ``"omega-sigma"``
        for the paper's opacity-aware radius (Equation 8).
    dtype:
        Floating-point mode of the tile-wise rendering stage, one of
        :data:`DTYPES`.  Projection, depth sorting and tile assignment
        always run in float64 (so the pair stream — and therefore every
        statistics counter — is independent of the mode); ``"float32"``
        switches the per-pixel alpha/blending arithmetic and the image
        accumulators to single precision.  The Gaussian-wise dataflow only
        supports ``"float64"``.
    """

    alpha_min: ClassVar[float] = ALPHA_MIN
    alpha_max: ClassVar[float] = ALPHA_MAX
    transmittance_eps: ClassVar[float] = TRANSMITTANCE_EPS
    depth_near: ClassVar[float] = DEPTH_NEAR
    sh_degree: ClassVar[int] = SH_DEGREE
    group_capacity: ClassVar[int] = GROUP_CAPACITY
    tile_size: ClassVar[int] = TILE_SIZE
    background: ClassVar[tuple[float, float, float]] = BACKGROUND

    block_size: int = BLOCK_SIZE
    radius_rule: str = "3sigma"
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.radius_rule not in ("3sigma", "omega-sigma"):
            raise ValueError("radius_rule must be '3sigma' or 'omega-sigma'")

    @property
    def subtile_size(self) -> int:
        """Edge of GSCore's OBB subtile, the unit alpha evaluations are counted in."""
        return max(self.tile_size // 2, 1)
