"""Shared configuration and constants for the functional renderers."""

from __future__ import annotations

from dataclasses import dataclass

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

#: Tile edge length (pixels) used by the standard dataflow.
TILE_SIZE = 16

#: Pixel-block edge length used by GCC's Alpha Unit (an 8x8 PE array).
BLOCK_SIZE = 8

#: Maximum Gaussians per depth group (the paper's N = 256): the renderer's
#: default and the capacity GCC's Stage I grouping and Sort Unit are sized for.
GROUP_CAPACITY = 256

#: dtype of the Gaussian index arrays a frame's statistics carry
#: (``rendered_indices`` / ``processed_indices``).  They travel the worker
#: result pipe with every frame; scene sizes are far below 2**31.
INDEX_DTYPE = np.int32

#: The rasterisation engines every renderer can run on.
BACKENDS: tuple[str, ...] = ("vectorized", "reference")

#: Floating-point modes the tile-wise engine can compute in.  ``"float64"``
#: is the historical default with the bitwise backend-equivalence contract;
#: ``"float32"`` is the fast path: alpha evaluation and blending run in
#: single precision (counters stay integer-identical across backends, images
#: are held to a PSNR floor against the float64 oracle instead of bitwise).
DTYPES: tuple[str, ...] = ("float64", "float32")


@dataclass(frozen=True)
class RenderConfig:
    """Configuration shared by both rasterisers.

    Attributes
    ----------
    tile_size:
        Tile edge length of the standard (tile-wise) pipeline.
    block_size:
        Pixel-block edge length of the Gaussian-wise pipeline (Alpha Unit PE
        array dimension; the paper uses 8).
    alpha_min:
        Minimum alpha contribution (1/255).
    alpha_max:
        Alpha clamp value (0.99).
    transmittance_eps:
        Early-termination threshold on accumulated transmittance.
    depth_near:
        Near-plane depth used for Stage I culling (0.2 in the paper).
    radius_rule:
        ``"3sigma"`` for the conventional fixed envelope or ``"omega-sigma"``
        for the paper's opacity-aware radius (Equation 8).
    sh_degree:
        Spherical-harmonics degree used for colour evaluation.
    group_capacity:
        Maximum Gaussians per depth group (N = 256 in the paper).
    background:
        Background colour blended behind the scene.
    backend:
        Execution engine for both rasterisers.  ``"vectorized"`` (default)
        batches alpha evaluation, boundary identification and blending with
        the kernels in :mod:`repro.render.kernels`; ``"reference"`` runs the
        original per-Gaussian/per-block Python loops.  The two backends
        produce identical statistics counters and, in float64, bitwise
        identical images, for both rasterisers.
    dtype:
        Floating-point mode of the tile-wise rendering stage, one of
        :data:`DTYPES`.  Projection, depth sorting and tile assignment
        always run in float64 (so the pair stream — and therefore every
        statistics counter — is independent of the mode); ``"float32"``
        switches the per-pixel alpha/blending arithmetic and the image
        accumulators to single precision.  The Gaussian-wise dataflow only
        supports ``"float64"``.
    """

    tile_size: int = TILE_SIZE
    block_size: int = BLOCK_SIZE
    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX
    transmittance_eps: float = TRANSMITTANCE_EPS
    depth_near: float = DEPTH_NEAR
    radius_rule: str = "3sigma"
    sh_degree: int = 3
    group_capacity: int = GROUP_CAPACITY
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    backend: str = "vectorized"
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}")
        if self.tile_size <= 0 or self.block_size <= 0:
            raise ValueError("tile_size and block_size must be positive")
        if not 0.0 < self.alpha_min < self.alpha_max <= 1.0:
            raise ValueError("require 0 < alpha_min < alpha_max <= 1")
        if self.transmittance_eps <= 0 or self.transmittance_eps >= 1:
            raise ValueError("transmittance_eps must be in (0, 1)")
        if self.radius_rule not in ("3sigma", "omega-sigma"):
            raise ValueError("radius_rule must be '3sigma' or 'omega-sigma'")
        if self.sh_degree not in (0, 1, 2, 3):
            raise ValueError("sh_degree must be in [0, 3]")
        if self.group_capacity <= 0:
            raise ValueError("group_capacity must be positive")
