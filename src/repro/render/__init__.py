"""Functional 3DGS renderers and footprint analysis.

Two renderers are provided, matching the two dataflows the paper compares:

* :func:`~repro.render.tile_raster.render_tilewise` — the standard
  "preprocess-then-render" tile-wise rasteriser used by the GPU reference and
  by the GSCore baseline accelerator.
* :func:`~repro.render.gaussian_raster.render_gaussianwise` — the GCC
  dataflow: depth-grouped, Gaussian-wise rendering with cross-stage
  conditional skipping and alpha-based boundary identification.

Both return the rendered image *and* a statistics object; the hardware models
in :mod:`repro.arch` consume those statistics to produce cycle and energy
estimates.

Each renderer is one engine: batched kernels (:mod:`repro.render.kernels`)
process whole tiles/chunks of Gaussians and whole depth groups at once.
:mod:`repro.render.reference` holds the oracle apart from them — the
original per-Gaussian/per-block Python loops that mirror the hardware
pipelines operation by operation.  Each engine is observationally
equivalent to its reference: statistics counters are integer-identical and
float64 images bitwise identical (see ``tests/test_engine_equivalence.py``).
"""

from repro.render.common import RenderConfig
from repro.render.gaussian_raster import GaussianWiseStats, render_gaussianwise
from repro.render.metrics import lpips_proxy, mse, psnr, ssim
from repro.render.preprocess import ProjectedGaussians, project_scene
from repro.render.tile_raster import TileWiseStats, render_tilewise

__all__ = [
    "GaussianWiseStats",
    "ProjectedGaussians",
    "RenderConfig",
    "TileWiseStats",
    "lpips_proxy",
    "mse",
    "project_scene",
    "psnr",
    "render_gaussianwise",
    "render_tilewise",
    "ssim",
]
