#!/usr/bin/env python
"""Build a custom Gaussian scene by hand, render it, and inspect each stage.

This example shows the library as a general 3DGS toolkit rather than a
benchmark harness: it constructs a small scene programmatically (a coloured
"traffic light" of three blobs plus a translucent fog layer), saves and
reloads it, renders a short orbit, and then reports the work each stage of
the GCC dataflow (Figure 3) did on one frame.  The stage-by-stage view of
Figure 3 is the reference loop in ``repro/render/gaussian_raster.py``, with
each stage commented there.

Run with::

    python examples/custom_scene_rendering.py [--output-dir /tmp/repro-out]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.io import load_scene_npz, save_scene_npz
from repro.gaussians.model import GaussianScene
from repro.render import render_gaussianwise
from repro.render.common import RenderConfig


def build_scene() -> GaussianScene:
    """Three opaque coloured blobs stacked vertically, wrapped in thin fog."""
    rng = np.random.default_rng(42)

    blob_means = np.array([[0.0, 0.6, 0.0], [0.0, 0.0, 0.0], [0.0, -0.6, 0.0]])
    blob_colors = np.array([[0.9, 0.1, 0.1], [0.9, 0.8, 0.1], [0.1, 0.8, 0.2]])
    blobs = GaussianScene.from_flat_colors(
        means=blob_means,
        scales=np.full((3, 3), 0.18),
        quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
        opacities=np.array([0.95, 0.95, 0.95]),
        rgb=blob_colors,
        name="traffic-light",
    )

    fog_count = 200
    fog = GaussianScene.from_flat_colors(
        means=rng.normal(scale=0.8, size=(fog_count, 3)),
        scales=np.full((fog_count, 3), 0.25),
        quaternions=rng.normal(size=(fog_count, 4)),
        opacities=np.full(fog_count, 0.03),
        rgb=np.full((fog_count, 3), 0.7),
        name="traffic-light",
    )
    return blobs.concatenated_with(fog)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="/tmp/repro-custom-scene")
    parser.add_argument("--views", type=int, default=4)
    args = parser.parse_args()
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    scene = build_scene()
    scene_path = output_dir / "traffic_light.npz"
    save_scene_npz(scene, scene_path)
    scene = load_scene_npz(scene_path)
    print(f"Built and reloaded scene with {scene.num_gaussians} Gaussians -> {scene_path}")

    print("\nRendering an orbit:")
    for view in range(args.views):
        angle = 2.0 * np.pi * view / args.views
        eye = np.array([3.0 * np.cos(angle), 0.5, 3.0 * np.sin(angle)])
        camera = Camera.from_fov(
            width=160, height=160, fov_y_degrees=45.0, world_to_camera=look_at(eye, np.zeros(3))
        )
        result = render_gaussianwise(scene, camera)
        image_path = output_dir / f"view_{view}.npy"
        np.save(image_path, result.image)
        print(
            f"  view {view}: rendered {result.stats.num_rendered:4d} Gaussians, "
            f"{result.stats.pixels_blended:7d} blended pixels -> {image_path}"
        )

    print("\nStage-by-stage execution of one frame (Figure 3):")
    camera = Camera.from_fov(
        width=160, height=160, fov_y_degrees=45.0,
        world_to_camera=look_at(np.array([0.0, 0.3, 3.0]), np.zeros(3)),
    )
    stats = render_gaussianwise(scene, camera, RenderConfig(radius_rule="omega-sigma")).stats
    print(f"  Stage I   : {stats.num_groups} depth groups "
          f"({stats.num_groups_processed} processed, {stats.num_groups_skipped} skipped)")
    print(f"  Stage II  : {stats.num_projected} Gaussians projected, "
          f"{stats.num_screen_passed} survived screen culling")
    print(f"  Stage III : {stats.num_sh_evaluated} SH colour evaluations")
    print(f"  Stage IV  : {stats.num_rendered} Gaussians blended, "
          f"{stats.pixels_blended} pixel contributions")


if __name__ == "__main__":
    main()
