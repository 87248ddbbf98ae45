"""Reproduction of *GCC: A 3DGS Inference Architecture with Gaussian-Wise and
Cross-Stage Conditional Processing* (MICRO 2025).

The package follows the README's layers, each a client of the one below:
the engine (:mod:`repro.gaussians` and :mod:`repro.render`, the tile-wise
and the paper's Gaussian-wise, cross-stage-conditional renderers) →
:mod:`repro.store` (quality-tiered scene assets) → :mod:`repro.exec`
(persistent render workers) → :mod:`repro.serve` (trajectories, farm
facade, CLI) → :mod:`repro.fleet` (multi-executor routing) →
:mod:`repro.sched` (SLO-aware request scheduling).  Beside the stack sit
:mod:`repro.arch` (cycle-level models of GCC, the GSCore baseline and GPUs,
with DRAM/SRAM/energy accounting), :mod:`repro.eval` (the paper's tables
and figures) and :mod:`repro.obs` (tracing, metrics, trace analysis).

Quickstart::

    from repro.gaussians import make_scene
    from repro.gaussians.synthetic import make_camera
    from repro.render import render_gaussianwise
    from repro.arch import GccAccelerator

    scene = make_scene("lego", scale=0.02)
    camera = make_camera("lego", image_scale=0.2)
    frame = render_gaussianwise(scene, camera)
    report = GccAccelerator().simulate(scene, camera, render_result=frame)
    print(report.fps, report.energy_mj_per_frame)
"""

from repro.arch import GccAccelerator, GccConfig, GScoreAccelerator, GScoreConfig
from repro.gaussians import Camera, GaussianScene, make_scene
from repro.render import RenderConfig, render_gaussianwise, render_tilewise

__version__ = "1.0.0"

__all__ = [
    "Camera",
    "GaussianScene",
    "GccAccelerator",
    "GccConfig",
    "GScoreAccelerator",
    "GScoreConfig",
    "RenderConfig",
    "__version__",
    "make_scene",
    "render_gaussianwise",
    "render_tilewise",
]
