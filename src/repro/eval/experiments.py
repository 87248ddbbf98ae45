"""One function per table/figure of the paper's evaluation and discussion.

Each function returns plain dictionaries/lists so that tests can assert on
the *shape* of the result (who wins, by roughly what factor, where crossovers
fall) and the benchmark harness can print them next to the paper's numbers.
The expected shapes and the paper's values are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.arch.area import gcc_area_table
from repro.arch.gcc import GccConfig
from repro.arch.gcc.accelerator import TrafficSummary
from repro.arch.gcc.cmode import subview_invocations
from repro.arch.gpu import GPU_PRESETS, gcc_dataflow_breakdown, standard_dataflow_breakdown
from repro.arch.gscore import GScoreConfig
from repro.eval.runner import (
    EvalSetup,
    load_scene_and_camera,
    run_gaussianwise,
    run_gcc_sim,
    run_gscore_sim,
    run_tilewise,
)
from repro.eval.scenes import ABLATION_SCENES, MOTIVATION_SCENES, all_benchmark_scenes
from repro.gaussians.synthetic import make_single_gaussian_scene
from repro.render.bounds import count_footprint_pixels, frame_footprint_counts
from repro.render.common import RenderConfig
from repro.render.metrics import lpips_proxy, psnr
from repro.render.preprocess import project_scene


def _geomean(values: list[float]) -> float:
    """Geometric mean of positive values (0 if empty)."""
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in positives) / len(positives)))


# ----------------------------------------------------------------------
# Figure 2 — motivation: unused preprocessing and repeated Gaussian loads
# ----------------------------------------------------------------------
def figure2(scenes: tuple[str, ...] = MOTIVATION_SCENES, quick: bool = False) -> list[dict]:
    """Gaussian counts per processing phase and per-Gaussian load counts.

    Paper: 64-83% of Gaussians are in the frustum, but far fewer are actually
    rendered; the same Gaussian is loaded 3.17-6.45 times on average during
    tile-wise rendering.
    """
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        stats = run_tilewise(setup).stats
        rows.append(
            {
                "scene": scene,
                "total": stats.num_total,
                "in_frustum": stats.num_preprocessed,
                "rendered": stats.num_rendered,
                "in_frustum_fraction": stats.num_preprocessed / max(stats.num_total, 1),
                "rendered_fraction": stats.rendered_fraction,
                "avg_loads_per_gaussian": stats.avg_loads_per_gaussian,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 1 / Figure 4 — bounding-box overdraw vs the alpha-exact footprint
# ----------------------------------------------------------------------
def table1(scenes: tuple[str, ...] = MOTIVATION_SCENES, quick: bool = False) -> list[dict]:
    """Average rendered pixels per frame under AABB, OBB and actual blending."""
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        scene_obj, camera = load_scene_and_camera(setup)
        render = run_tilewise(setup)
        counts = frame_footprint_counts(render.projected, camera.width, camera.height)
        rows.append(
            {
                "scene": scene,
                "aabb_pixels": counts.aabb,
                "obb_pixels": counts.obb,
                "alpha_pixels": counts.alpha,
                "rendered_pixels": render.stats.pixels_blended,
            }
        )
    return rows


def figure4(opacities: tuple[float, ...] = (1.0, 0.01)) -> list[dict]:
    """Footprint pixel counts of a single anisotropic Gaussian vs opacity.

    Paper: with opacity 1 the effective (alpha >= 1/255) region fills most of
    the OBB; with opacity 0.01 it collapses to a small core while AABB/OBB
    stay unchanged.
    """
    from repro.gaussians.synthetic import make_camera

    rows = []
    for opacity in opacities:
        scene = make_single_gaussian_scene(opacity=opacity, scale=0.25)
        camera = make_camera("smoke", image_scale=1.0)
        projected = project_scene(scene, camera, RenderConfig(radius_rule="3sigma"))
        if projected.num_visible == 0:
            rows.append({"opacity": opacity, "aabb": 0, "obb": 0, "alpha": 0})
            continue
        counts = count_footprint_pixels(
            projected.means2d[0],
            projected.cov2d[0],
            projected.conics[0],
            float(projected.opacities[0]),
            camera.width,
            camera.height,
        )
        rows.append(
            {
                "opacity": opacity,
                "aabb": counts.aabb,
                "obb": counts.obb,
                "alpha": counts.alpha,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 6 — Compatibility-Mode sub-view size sweep
# ----------------------------------------------------------------------
def figure6(
    scenes: tuple[str, ...] = ("lego", "train"),
    subview_sizes: tuple[int, ...] = (1024, 512, 256, 128, 64, 32, 16),
    quick: bool = False,
) -> dict[str, list[dict]]:
    """Rendering invocations vs unique rendered Gaussians per sub-view size.

    Paper: above 128x128 sub-views the duplication overhead is marginal; it
    grows steeply below 64x64.
    """
    results: dict[str, list[dict]] = {}
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        scene_obj, camera = load_scene_and_camera(setup)
        preset = setup.preset()
        projected = run_tilewise(setup).projected
        rows = []
        for size in subview_sizes:
            # Sub-view sizes are defined at paper-scale resolution; scale them
            # with the evaluation image so the sweep covers the same ratios.
            scaled = max(int(round(size * preset.image_scale)), 4)
            invocations, unique = subview_invocations(
                projected, camera.width, camera.height, scaled
            )
            rows.append(
                {
                    "subview": size,
                    "subview_scaled": scaled,
                    "rendering_invocations": invocations,
                    "rendered_gaussians": unique,
                    "duplication": invocations / max(unique, 1),
                }
            )
        results[scene] = rows
    return results


# ----------------------------------------------------------------------
# Table 2 — rendering quality
# ----------------------------------------------------------------------
def table2(scenes: tuple[str, ...] | None = None, quick: bool = False) -> list[dict]:
    """PSNR / perceptual-proxy of GSCore and GCC against the GPU reference.

    The GPU reference is the standard (tile-wise) dataflow.  GSCore's OBB
    subtile skip only changes which alpha evaluations are counted, not the
    image, so GSCore's image *is* the reference: its columns read ``inf`` dB
    and 0 by construction.  Only the GCC (Gaussian-wise) columns measure
    anything.  Paper: all three are within 0.1 dB.
    """
    scenes = scenes or all_benchmark_scenes()
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        reference = gscore_img = run_tilewise(setup).image
        gcc_img = run_gaussianwise(setup).image
        rows.append(
            {
                "scene": scene,
                "gscore_psnr": psnr(reference, gscore_img),
                "gscore_lpips": lpips_proxy(reference, gscore_img),
                "gcc_psnr": psnr(reference, gcc_img),
                "gcc_lpips": lpips_proxy(reference, gcc_img),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 10 — area-normalised speedup and energy efficiency
# ----------------------------------------------------------------------
def figure10(scenes: tuple[str, ...] | None = None, quick: bool = False) -> dict:
    """GCC vs GSCore area-normalised throughput and energy efficiency.

    Paper: geomean speedup 5.24x (4.27x-6.22x), geomean energy efficiency
    3.35x (3.05x-3.72x).
    """
    scenes = scenes or all_benchmark_scenes()
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        gscore = run_gscore_sim(setup)
        gcc = run_gcc_sim(setup)
        speedup = gcc.fps_per_mm2 / gscore.fps_per_mm2
        energy_eff = (gscore.energy_mj_per_frame * gscore.area_mm2) / (
            gcc.energy_mj_per_frame * gcc.area_mm2
        )
        rows.append(
            {
                "scene": scene,
                "gcc_fps": gcc.fps,
                "gscore_fps": gscore.fps,
                "gcc_fps_per_mm2": gcc.fps_per_mm2,
                "gscore_fps_per_mm2": gscore.fps_per_mm2,
                "speedup": speedup,
                "energy_efficiency": energy_eff,
            }
        )
    return {
        "rows": rows,
        "geomean_speedup": _geomean([r["speedup"] for r in rows]),
        "geomean_energy_efficiency": _geomean([r["energy_efficiency"] for r in rows]),
    }


# ----------------------------------------------------------------------
# Figure 11 — ablation: Gaussian-wise (GW) vs GW + cross-stage conditional
# ----------------------------------------------------------------------
def figure11(scenes: tuple[str, ...] = ABLATION_SCENES, quick: bool = False) -> list[dict]:
    """Breakdown of GCC's gains: performance, DRAM accesses and computation.

    Paper: GW alone already beats the baseline; adding CC gives a further
    boost, larger on sparse large scenes (Drjohnson); DRAM accesses split by
    3D / 2D / KV shrink dramatically; rendering computations drop thanks to
    the alpha-based identifier.
    """
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        baseline = run_gscore_sim(setup)
        gw_only = run_gcc_sim(setup, GccConfig(enable_cc=False))
        gw_cc = run_gcc_sim(setup)

        baseline_traffic = TrafficSummary.from_counter(baseline.dram_traffic)
        gw_traffic = TrafficSummary.from_counter(gw_only.dram_traffic)
        gcc_traffic = TrafficSummary.from_counter(gw_cc.dram_traffic)

        rows.append(
            {
                "scene": scene,
                # (a) performance, normalised to the baseline.
                "speedup_gw": (gw_only.fps_per_mm2 / baseline.fps_per_mm2),
                "speedup_gw_cc": (gw_cc.fps_per_mm2 / baseline.fps_per_mm2),
                # (b) DRAM accesses by class, normalised to the baseline total.
                "dram_baseline": baseline_traffic.__dict__ | {"total": baseline_traffic.total},
                "dram_gw": gw_traffic.__dict__ | {"total": gw_traffic.total},
                "dram_gw_cc": gcc_traffic.__dict__ | {"total": gcc_traffic.total},
                # (c) rendering computations (alpha evaluations), normalised.
                "render_ops_baseline": baseline.extra["alpha_evaluations"],
                "render_ops_gcc": gw_cc.extra["alpha_evaluations"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 3 — cross-accelerator comparison
# ----------------------------------------------------------------------
#: Published numbers for the accelerators we cannot re-simulate (NeRF designs
#: and GPUs); GCC and GSCore rows are filled from our simulations.
TABLE3_STATIC = [
    {"design": "MetaVRain (ISSCC'23)", "model": "NeRF", "area_mm2": 20.25, "power_w": 0.89,
     "throughput_fps": 110.0, "sram_kb": 2015},
    {"design": "Fusion-3D (MICRO'24)", "model": "NeRF", "area_mm2": 8.7, "power_w": 6.0,
     "throughput_fps": 36.0, "sram_kb": 1099},
    {"design": "NVIDIA A6000", "model": "3DGS", "area_mm2": 628.0, "power_w": 300.0,
     "throughput_fps": 300.0, "sram_kb": None},
    {"design": "Jetson AGX Xavier", "model": "3DGS", "area_mm2": 350.0, "power_w": 30.0,
     "throughput_fps": 20.0, "sram_kb": None},
]


def table3(quick: bool = False) -> list[dict]:
    """Comparison of neural-rendering accelerators on the Lego scene.

    Rows for NeRF accelerators and GPUs are the paper's quoted numbers; the
    GSCore and GCC rows carry our simulated throughput (at reduced scene
    scale) next to the paper's published silicon area/power.
    """
    setup = EvalSetup("lego", quick=quick)
    gscore = run_gscore_sim(setup)
    gcc = run_gcc_sim(setup)
    rows = [dict(row, fps_per_mm2=row["throughput_fps"] / row["area_mm2"]) for row in TABLE3_STATIC]
    for report, power_w in ((gscore, 0.87), (gcc, 0.79)):
        rows.append(
            {
                "design": f"{report.accelerator} (simulated)",
                "model": "3DGS",
                "area_mm2": report.area_mm2,
                "power_w": power_w,
                "throughput_fps": report.fps,
                "sram_kb": 272 if report.accelerator == "GSCore" else 190,
                "fps_per_mm2": report.fps_per_mm2,
            }
        )
    return rows


def table4() -> list[dict]:
    """Area and power breakdown of GCC (published Table 4)."""
    return gcc_area_table()


# ----------------------------------------------------------------------
# Figure 12 — energy breakdown
# ----------------------------------------------------------------------
def figure12(scenes: tuple[str, ...] | None = None, quick: bool = False) -> list[dict]:
    """Per-frame energy split into off-chip, on-chip and compute energy.

    Paper: DRAM dominates both designs; GCC cuts DRAM traffic by >50% while
    slightly increasing SRAM activity, for a large net energy win.

    The models read (default scale): off-chip is GSCore's largest term on
    every scene, but on-chip is GCC's largest on train, truck, playroom and
    drjohnson; GCC's on-chip energy is 1.04x (drjohnson) to 2.8x (lego;
    palace 2.7x) GSCore's, not "slightly" more; GCC's total is still lower
    on every scene (0.82x lego to 0.31x drjohnson).
    """
    scenes = scenes or all_benchmark_scenes()
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        for report in (run_gscore_sim(setup), run_gcc_sim(setup)):
            energy = report.energy_pj
            rows.append(
                {
                    "scene": scene,
                    "accelerator": report.accelerator,
                    "offchip_mj": energy["dram"] * 1e-9,
                    "onchip_mj": energy["sram"] * 1e-9,
                    "compute_mj": (energy["compute"] + energy["static"]) * 1e-9,
                    "total_mj": report.energy_mj_per_frame,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 13 — design space exploration
# ----------------------------------------------------------------------
def figure13a(
    scene: str = "train",
    buffer_sizes_kb: tuple[int, ...] = (32, 128, 512, 2048, 8192),
    quick: bool = False,
) -> list[dict]:
    """Area-normalised throughput/energy vs Image Buffer capacity.

    Paper: 128 KB and 512 KB are comparable; very large buffers hurt
    area-normalised throughput because the extra SRAM area is not amortised.
    """
    setup = EvalSetup(scene, quick=quick)
    rows = []
    for size_kb in buffer_sizes_kb:
        config = GccConfig(image_buffer_bytes=size_kb * 1024)
        report = run_gcc_sim(setup, config)
        rows.append(
            {
                "buffer_kb": size_kb,
                "fps": report.fps,
                "fps_per_mm2": report.fps_per_mm2,
                "mj_per_mm2": report.energy_per_area,
                "area_mm2": report.area_mm2,
                "cmode": bool(report.extra["cmode_enabled"]),
            }
        )
    return rows


def figure13b(
    scene: str = "train",
    array_sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
    quick: bool = False,
) -> list[dict]:
    """Area-normalised throughput/energy vs Alpha/Blending array size.

    Paper: the 8x8 array is the sweet spot; larger arrays cost area and
    become memory-limited, smaller arrays throttle throughput.
    """
    setup = EvalSetup(scene, quick=quick)
    rows = []
    for size in array_sizes:
        config = GccConfig(alpha_array_size=size)
        report = run_gcc_sim(setup, config)
        rows.append(
            {
                "array_size": size,
                "fps": report.fps,
                "fps_per_mm2": report.fps_per_mm2,
                "mj_per_mm2": report.energy_per_area,
                "area_mm2": report.area_mm2,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 14 — DRAM bandwidth sensitivity
# ----------------------------------------------------------------------
def figure14(scene: str = "train", quick: bool = False) -> list[dict]:
    """Throughput of GCC and GSCore under different DRAM generations.

    Paper: both gain from more bandwidth at the low end; beyond ~220 GB/s
    GCC is compute-bound and flattens while GSCore keeps improving slightly.
    """
    from repro.arch.params import DRAM_PRESETS

    setup = EvalSetup(scene, quick=quick)
    rows = []
    for name in DRAM_PRESETS:
        gcc = run_gcc_sim(setup, GccConfig(dram=name))
        gscore = run_gscore_sim(setup, GScoreConfig(dram=name))
        rows.append(
            {
                "dram": name,
                "bandwidth_gbps": DRAM_PRESETS[name].bandwidth_gbps,
                "gcc_fps": gcc.fps,
                "gscore_fps": gscore.fps,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 15 — GPU dataflow breakdown (Discussion)
# ----------------------------------------------------------------------
def figure15(
    scenes: tuple[str, ...] = ABLATION_SCENES,
    platforms: tuple[str, ...] = ("rtx3090", "jetson"),
    quick: bool = False,
) -> list[dict]:
    """Per-frame stage breakdown of the standard vs GCC dataflow.

    Paper: on GPUs rendering dominates and the GCC dataflow's render stage
    gets *slower* (atomics), so the dataflow alone does not solve edge 3DGS;
    on the accelerators the standard dataflow spends ~40% on preprocessing
    which GCC largely removes.
    """
    rows = []
    for scene in scenes:
        setup = EvalSetup(scene, quick=quick)
        tile_stats = run_tilewise(setup).stats
        gauss_stats = run_gaussianwise(setup).stats
        for platform in platforms:
            gpu = GPU_PRESETS[platform]
            standard = standard_dataflow_breakdown(tile_stats, gpu)
            gcc = gcc_dataflow_breakdown(gauss_stats, gpu)
            rows.append(
                {
                    "scene": scene,
                    "platform": gpu.name,
                    "standard": standard.normalized(),
                    "gcc": gcc.normalized(standard.total),
                    "standard_total_s": standard.total,
                    "gcc_total_s": gcc.total,
                }
            )
        # Accelerator column: normalised stage cycles from the simulators.
        gscore = run_gscore_sim(setup)
        gcc_sim = run_gcc_sim(setup)
        gscore_total = gscore.total_cycles
        rows.append(
            {
                "scene": scene,
                "platform": "GSCore / GCC",
                "standard": {
                    "preprocess": gscore.stage_cycles["preprocess"] / gscore_total,
                    "duplicate": 0.0,
                    "sort": gscore.stage_cycles["sort"] / gscore_total,
                    "render": gscore.stage_cycles["render"] / gscore_total,
                },
                "gcc": {
                    "preprocess": (
                        gcc_sim.stage_cycles["stage1_grouping"]
                        + gcc_sim.stage_cycles["projection"]
                        + gcc_sim.stage_cycles["sh"]
                    )
                    / gscore_total,
                    "duplicate": 0.0,
                    "sort": gcc_sim.stage_cycles["sort"] / gscore_total,
                    "render": max(
                        gcc_sim.stage_cycles["alpha"], gcc_sim.stage_cycles["blend"]
                    )
                    / gscore_total,
                },
                "standard_total_s": gscore.frame_time_s,
                "gcc_total_s": gcc_sim.frame_time_s,
            }
        )
    return rows

