"""Reproduction of *GCC: A 3DGS Inference Architecture with Gaussian-Wise and
Cross-Stage Conditional Processing* (MICRO 2025).

The packages follow the README's layer order; each imports only itself,
the layers below it and the leaf :mod:`repro.obs` (tracing, metrics, trace
analysis):

0. :mod:`repro.gaussians` — scene model, cameras, synthetic scenes and
   the evaluation presets;
1. :mod:`repro.render` — the tile-wise and the paper's Gaussian-wise,
   cross-stage-conditional renderers;
2. :mod:`repro.arch` (cycle-level models of GCC, the GSCore baseline and
   GPUs, with DRAM/SRAM/energy accounting) and :mod:`repro.store`
   (quality-tiered scene assets, the shared LRU cache), which do not
   import each other;
3. :mod:`repro.exec` — persistent render workers;
4. :mod:`repro.eval` — the paper's tables and figures;
5. :mod:`repro.serve` — trajectories, farm facade, CLI;
6. :mod:`repro.fleet` — multi-executor routing;
7. :mod:`repro.sched` — SLO-aware request scheduling.

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
