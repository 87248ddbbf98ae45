"""Engine speed — vectorized vs reference rasterisation backends.

Not a paper figure: this benchmark guards the vectorized engine's two
contracts at the default evaluation scale (the ``train`` preset rendered by
every experiment):

1. *Equivalence* — identical statistics counters and bitwise identical
   images against the reference per-Gaussian/per-block loops, for both
   dataflows.
2. *Speed* — an end-to-end frame (one tile-wise render for the GSCore
   baseline plus one Gaussian-wise render for the GCC dataflow) is at least
   5x faster than the reference backend.

It also records where a vectorized frame spends its time (tile-wise
``project`` / ``pair_build`` / ``blend``, Gaussian-wise ``project`` /
``boundary`` / ``sh`` / ``blend`` stage milliseconds) and the *dead-pair
share*: of the ``(Gaussian, tile)`` pairs the frame counts as processed, the
share the footprint cull never evaluates.

Run with::

    pytest benchmarks/bench_engine_speed.py --benchmark-only
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
from conftest import run_once

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.obs import Tracer, TracerStageHook
from repro.render import kernels, tile_raster
from repro.render.common import RenderConfig
from repro.render.gaussian_raster import render_gaussianwise
from repro.render.tile_raster import render_tilewise


def _best_time(func, repeats: int):
    """Best-of-N wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _stats_identical(reference, vectorized) -> list[str]:
    mismatches = []
    for field in dataclasses.fields(reference):
        ref_value = getattr(reference, field.name)
        vec_value = getattr(vectorized, field.name)
        equal = (
            np.array_equal(ref_value, vec_value)
            if isinstance(ref_value, np.ndarray)
            else ref_value == vec_value
        )
        if not equal:
            mismatches.append(field.name)
    return mismatches


def stage_ms(render, scene, camera, config, repeats: int = 3) -> dict[str, float]:
    """Best-of-N milliseconds per kernel stage of one frame (a stage the
    Gaussian-wise engine runs once per depth group is summed over the frame)."""
    best: dict[str, float] = {}
    for _ in range(repeats):
        tracer = Tracer()
        previous = kernels.set_stage_hook(TracerStageHook(tracer))
        try:
            render(scene, camera, config)
        finally:
            kernels.set_stage_hook(previous)
        frame: dict[str, float] = {}
        for span in tracer.spans:
            frame[span["name"]] = frame.get(span["name"], 0.0) + span["dur_ms"]
        for name, ms in frame.items():
            best[name] = min(best.get(name, float("inf")), ms)
    return best


def dead_pair_share(scene, camera, config) -> float:
    """Processed pairs the cull skipped / processed pairs, over one frame."""
    processed = culled = 0
    render_tile = tile_raster._render_tile_vectorized

    def counting(rows, projected, cull_bounds, x0, y0, x1, y1, color, trans, cfg, stats, *rest):
        nonlocal processed, culled
        before = stats.num_pairs_processed
        render_tile(rows, projected, cull_bounds, x0, y0, x1, y1, color, trans, cfg, stats, *rest)
        counted = stats.num_pairs_processed - before
        live = kernels.live_tile_rows(cull_bounds, rows[:counted], x0, y0, x1, y1)
        processed += counted
        culled += counted - live.size

    tile_raster._render_tile_vectorized = counting
    try:
        render_tilewise(scene, camera, config)
    finally:
        tile_raster._render_tile_vectorized = render_tile
    return culled / processed if processed else 0.0


def measure_engine_speed(scene_name: str = "train") -> dict:
    """Time both backends on both dataflows at the default evaluation scale."""
    setup = EvalSetup(scene_name, quick=False)
    scene, camera = load_scene_and_camera(setup)

    tile_cfg = lambda backend: RenderConfig(radius_rule="3sigma", backend=backend)
    gauss_cfg = lambda backend: RenderConfig(radius_rule="omega-sigma", backend=backend)

    tile_ref_s, tile_ref = _best_time(
        lambda: render_tilewise(scene, camera, tile_cfg("reference")), repeats=1
    )
    tile_vec_s, tile_vec = _best_time(
        lambda: render_tilewise(scene, camera, tile_cfg("vectorized")), repeats=2
    )
    gauss_ref_s, gauss_ref = _best_time(
        lambda: render_gaussianwise(scene, camera, gauss_cfg("reference")), repeats=1
    )
    gauss_vec_s, gauss_vec = _best_time(
        lambda: render_gaussianwise(scene, camera, gauss_cfg("vectorized")), repeats=2
    )

    return {
        "scene": scene_name,
        "num_gaussians": scene.num_gaussians,
        "image": (camera.width, camera.height),
        "tile_reference_s": tile_ref_s,
        "tile_vectorized_s": tile_vec_s,
        "tile_speedup": tile_ref_s / tile_vec_s,
        "gauss_reference_s": gauss_ref_s,
        "gauss_vectorized_s": gauss_vec_s,
        "gauss_speedup": gauss_ref_s / gauss_vec_s,
        "frame_reference_s": tile_ref_s + gauss_ref_s,
        "frame_vectorized_s": tile_vec_s + gauss_vec_s,
        "frame_speedup": (tile_ref_s + gauss_ref_s) / (tile_vec_s + gauss_vec_s),
        "tile_image_max_diff": float(np.abs(tile_ref.image - tile_vec.image).max()),
        "gauss_image_max_diff": float(np.abs(gauss_ref.image - gauss_vec.image).max()),
        "tile_stats_mismatches": _stats_identical(tile_ref.stats, tile_vec.stats),
        "gauss_stats_mismatches": _stats_identical(gauss_ref.stats, gauss_vec.stats),
        "tile_stage_ms": stage_ms(render_tilewise, scene, camera, tile_cfg("vectorized")),
        "gauss_stage_ms": stage_ms(render_gaussianwise, scene, camera, gauss_cfg("vectorized")),
        "tile_dead_pair_share": dead_pair_share(scene, camera, tile_cfg("vectorized")),
    }


def _format_report(result: dict) -> str:
    lines = [
        "Engine speed: vectorized vs reference backends",
        f"scene={result['scene']} gaussians={result['num_gaussians']} "
        f"image={result['image'][0]}x{result['image'][1]}",
        "",
        f"{'dataflow':<14}{'reference':>12}{'vectorized':>12}{'speedup':>10}",
        f"{'tile-wise':<14}{result['tile_reference_s']:>11.3f}s"
        f"{result['tile_vectorized_s']:>11.3f}s{result['tile_speedup']:>9.2f}x",
        f"{'gaussian-wise':<14}{result['gauss_reference_s']:>11.3f}s"
        f"{result['gauss_vectorized_s']:>11.3f}s{result['gauss_speedup']:>9.2f}x",
        f"{'frame (both)':<14}{result['frame_reference_s']:>11.3f}s"
        f"{result['frame_vectorized_s']:>11.3f}s{result['frame_speedup']:>9.2f}x",
        "",
        f"tile image max |diff|:  {result['tile_image_max_diff']:.3e}",
        f"gauss image max |diff|: {result['gauss_image_max_diff']:.3e}",
        "",
        "tile-wise stages (vectorized): "
        + "  ".join(f"{name} {ms:.1f} ms" for name, ms in result["tile_stage_ms"].items()),
        "gaussian-wise stages (vectorized): "
        + "  ".join(f"{name} {ms:.1f} ms" for name, ms in result["gauss_stage_ms"].items()),
        f"dead-pair share (processed pairs never evaluated): {result['tile_dead_pair_share']:.3f}",
    ]
    return "\n".join(lines)


def test_engine_speed_and_equivalence(benchmark, save_report, save_json):
    result = run_once(benchmark, measure_engine_speed)
    save_report("engine_speed", _format_report(result))
    save_json("engine_speed", result)

    # Equivalence: exact statistics, bitwise images.
    assert result["tile_stats_mismatches"] == []
    assert result["gauss_stats_mismatches"] == []
    assert result["tile_image_max_diff"] == 0.0
    assert result["gauss_image_max_diff"] == 0.0

    # Speed: the vectorized engine must carry the full frame at >= 5x; each
    # dataflow individually must not regress below a conservative floor.
    assert result["frame_speedup"] >= 5.0, result["frame_speedup"]
    assert result["tile_speedup"] >= 3.0, result["tile_speedup"]
    # The group-batched Gaussian-wise engine reads 18-21x on the 2-CPU box.
    assert result["gauss_speedup"] >= 10.0, result["gauss_speedup"]
