#!/usr/bin/env python
"""Quickstart: render a scene with both dataflows and simulate both accelerators.

This walks through the whole stack on a small Lego-like scene:

1. generate a synthetic 3DGS scene and an evaluation camera,
2. render it with the standard (tile-wise) dataflow and with the GCC
   (Gaussian-wise, cross-stage conditional) dataflow,
3. check that the two images agree (Table 2 of the paper),
4. feed the collected work statistics into the GSCore and GCC accelerator
   models and compare cycles, DRAM traffic and energy (Figure 10 / 12).

Run with::

    python examples/quickstart.py [--scale 0.02] [--image-scale 0.15]

The per-Gaussian/per-block loops both engines are checked against are
``repro.render.reference`` (same statistics, same image to 1e-9).
"""

from __future__ import annotations

import argparse

from repro.arch import GccAccelerator, GScoreAccelerator
from repro.gaussians.synthetic import make_camera, make_scene
from repro.render import RenderConfig, render_gaussianwise, render_tilewise
from repro.render.metrics import psnr, ssim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", default="lego", help="benchmark scene name")
    parser.add_argument("--scale", type=float, default=0.02, help="scene scale factor")
    parser.add_argument("--image-scale", type=float, default=0.15, help="image scale factor")
    args = parser.parse_args()

    print(f"Generating synthetic scene {args.scene!r} at scale {args.scale} ...")
    scene = make_scene(args.scene, scale=args.scale)
    camera = make_camera(args.scene, image_scale=args.image_scale)
    print(f"  {scene.num_gaussians} Gaussians, {camera.width}x{camera.height} image")

    print("Rendering with the standard (tile-wise) dataflow ...")
    tile = render_tilewise(scene, camera, RenderConfig(radius_rule="3sigma"))
    print(
        f"  preprocessed {tile.stats.num_preprocessed} Gaussians, "
        f"rendered {tile.stats.num_rendered} "
        f"({tile.stats.rendered_fraction:.0%}), "
        f"avg {tile.stats.avg_loads_per_gaussian:.2f} loads/Gaussian"
    )

    print("Rendering with the GCC (Gaussian-wise) dataflow ...")
    gauss = render_gaussianwise(scene, camera, RenderConfig(radius_rule="omega-sigma"))
    print(
        f"  projected {gauss.stats.num_projected}, "
        f"SH evaluated {gauss.stats.num_sh_evaluated}, "
        f"skipped by CC {gauss.stats.num_skipped_tmask + gauss.stats.num_skipped_by_termination} "
        f"(empty footprints {gauss.stats.num_empty_footprint})"
    )

    print("Image agreement (Table 2):")
    print(f"  PSNR = {psnr(tile.image, gauss.image):.2f} dB, SSIM = {ssim(tile.image, gauss.image):.4f}")

    print("Simulating the accelerators (LPDDR4-3200, 1 GHz) ...")
    gscore = GScoreAccelerator().simulate(scene, camera, render_result=tile)
    gcc = GccAccelerator().simulate(scene, camera, render_result=gauss)
    for report in (gscore, gcc):
        print(
            f"  {report.accelerator:7s}: {report.total_cycles:12,.0f} cycles "
            f"({report.fps:8.1f} FPS, {report.fps_per_mm2:8.1f} FPS/mm^2), "
            f"DRAM {report.dram_traffic.total / 1e6:6.2f} MB, "
            f"energy {report.energy_mj_per_frame:6.3f} mJ/frame"
        )

    speedup = gcc.fps_per_mm2 / gscore.fps_per_mm2
    energy_gain = (gscore.energy_mj_per_frame * gscore.area_mm2) / (
        gcc.energy_mj_per_frame * gcc.area_mm2
    )
    print(f"Area-normalised speedup GCC vs GSCore: {speedup:.2f}x")
    print(f"Area-normalised energy efficiency:      {energy_gain:.2f}x")


if __name__ == "__main__":
    main()
