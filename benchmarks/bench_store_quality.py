"""Scene store quality/compression sweep — the subsystem's two contracts.

Not a paper figure: this benchmark guards the scene store.

1. *Losslessness* — the ``lossless`` store tier (encode -> container ->
   decode) is **bitwise identical** to the legacy pipeline on every quick
   evaluation preset: same image bits, same statistics counters.
2. *Quality/compression* — sweeping the LOD x quant grid on the default
   ``train`` preset, every tier stays above its stated PSNR floor, and the
   flagship ``compact`` tier compresses the scene >= 4x on disk (vs the
   lossless ``.npz`` archive the repo shipped before the store existed)
   while holding PSNR >= 35 dB.

The grid report (compression ratio, frames/s, PSNR, LPIPS proxy) is written
as text and as machine-readable JSON under ``benchmarks/results/``.

Run with::

    pytest benchmarks/bench_store_quality.py --benchmark-only
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
from conftest import run_once

from repro.eval.runner import EvalSetup, load_scene_and_camera, run_tilewise
from repro.exec.frames import FrameSpec, render_frame
from repro.gaussians.io import save_scene_npz
from repro.gaussians.presets import EVAL_SCENES
from repro.render.metrics import lpips_proxy, psnr
from repro.store import (
    QUANT_SPECS,
    load_scene_store,
    roundtrip_scene,
    save_scene_store,
    select_lod,
)

LOD_LEVELS = (0, 1, 2)
QUANTS = ("lossless", "fp16", "compact")

#: The tier the acceptance contract names: >= 4x smaller on disk than the
#: lossless archive while >= 35 dB against the full-precision render.
FLAGSHIP = {"lod": 0, "quant": "compact"}
FLAGSHIP_MIN_RATIO = 4.0
FLAGSHIP_MIN_PSNR_DB = 35.0

#: Stated PSNR floors per (lod, quant) tier on the default ``train``
#: preset.  Quantization alone (lod 0) is visually lossless (~64 dB
#: measured); pruning dominates the loss at deeper levels (~27 dB at half
#: detail, ~23 dB at quarter detail on the synthetic stand-ins, which carry
#: far less inter-Gaussian redundancy than trained captures).  Floors sit
#: comfortably below measurement so only a real regression trips them.
PSNR_FLOORS_DB = {
    (0, "fp16"): 45.0,
    (0, "compact"): 45.0,
    (1, "lossless"): 24.0,
    (1, "fp16"): 24.0,
    (1, "compact"): 24.0,
    (2, "lossless"): 20.0,
    (2, "fp16"): 20.0,
    (2, "compact"): 20.0,
}


def _six_digits(value: float) -> float:
    """``value`` at 6 significant digits, as the paper ledger rounds its
    floats: an image metric's last digits move with numpy's SIMD dispatch,
    and the committed baseline is diffed exactly."""
    return float(f"{value:.6g}")


def _stats_mismatches(expected, actual) -> list[str]:
    mismatches = []
    for field in dataclasses.fields(expected):
        a, b = getattr(expected, field.name), getattr(actual, field.name)
        equal = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        if not equal:
            mismatches.append(field.name)
    return mismatches


def measure_lossless_fidelity(tmp_dir: Path) -> dict:
    """Lossless store tier vs legacy pipeline, every quick preset, bitwise."""
    mismatches: list[str] = []
    for name in EVAL_SCENES:
        setup = EvalSetup(name, quick=True)
        scene, camera = load_scene_and_camera(setup)
        baseline = run_tilewise(setup)

        path = tmp_dir / f"{name}.store.npz"
        save_scene_store(scene, path, QUANT_SPECS["lossless"])
        restored = load_scene_store(path)
        result = render_frame(restored, camera, FrameSpec())

        if not np.array_equal(baseline.image, result.image):
            mismatches.append(f"{name}:image")
        mismatches += [
            f"{name}:{f}" for f in _stats_mismatches(baseline.stats, result.stats)
        ]
    return {"scenes": sorted(EVAL_SCENES), "mismatches": mismatches}


def measure_store_grid(tmp_dir: Path, scene_name: str = "train") -> dict:
    """Sweep the LOD x quant grid on the default-scale ``scene_name`` preset."""
    setup = EvalSetup(scene_name)
    scene, camera = load_scene_and_camera(setup)
    spec = FrameSpec()
    reference = render_frame(scene, camera, spec)

    lossless_path = tmp_dir / "baseline.npz"
    save_scene_npz(scene, lossless_path)
    lossless_disk_bytes = lossless_path.stat().st_size

    rows = []
    for lod in LOD_LEVELS:
        lod_scene = select_lod(scene, lod)
        for quant in QUANTS:
            tier = QUANT_SPECS[quant]
            tier_path = tmp_dir / f"{scene_name}.lod{lod}.{quant}.npz"
            save_scene_store(lod_scene, tier_path, tier)
            disk_bytes = tier_path.stat().st_size

            render_scene = roundtrip_scene(lod_scene, tier)
            start = time.perf_counter()
            result = render_frame(render_scene, camera, spec)
            render_seconds = time.perf_counter() - start

            quality_db = psnr(reference.image, result.image)
            rows.append(
                {
                    "lod": lod,
                    "quant": quant,
                    "num_gaussians": render_scene.num_gaussians,
                    "disk_bytes": disk_bytes,
                    "disk_ratio": lossless_disk_bytes / disk_bytes,
                    "frames_per_second": 1.0 / render_seconds,
                    "psnr_db": None if math.isinf(quality_db) else _six_digits(quality_db),
                    "lpips_proxy": _six_digits(lpips_proxy(reference.image, result.image)),
                    "bitwise": bool(np.array_equal(reference.image, result.image)),
                }
            )
    return {
        "scene": scene_name,
        "image_size": [reference.stats.width, reference.stats.height],
        "lossless_disk_bytes": lossless_disk_bytes,
        "grid": rows,
    }


def measure_store_quality(tmp_dir: Path) -> dict:
    report = measure_lossless_fidelity(tmp_dir)
    grid = measure_store_grid(tmp_dir)
    return {"lossless_fidelity": report, **grid}


def _format_report(result: dict) -> str:
    lines = [
        "Scene store: LOD x quant sweep on the default train preset",
        f"scene={result['scene']} image={result['image_size'][0]}x{result['image_size'][1]} "
        f"lossless archive={result['lossless_disk_bytes']} B",
        "",
        f"{'lod':>4}{'quant':>10}{'gaussians':>11}{'disk B':>10}"
        f"{'ratio':>8}{'frames/s':>10}{'PSNR dB':>9}{'LPIPS*':>8}",
    ]
    for row in result["grid"]:
        quality = "inf" if row["psnr_db"] is None else f"{row['psnr_db']:.1f}"
        lines.append(
            f"{row['lod']:>4}{row['quant']:>10}{row['num_gaussians']:>11}"
            f"{row['disk_bytes']:>10}{row['disk_ratio']:>7.1f}x"
            f"{row['frames_per_second']:>10.1f}{quality:>9}{row['lpips_proxy']:>8.3f}"
        )
    lines += [
        "",
        f"lossless tier bitwise identical on quick presets: "
        f"{not result['lossless_fidelity']['mismatches']}",
    ]
    return "\n".join(lines)


def test_store_quality_and_compression(benchmark, save_report, save_json, tmp_path):
    result = run_once(benchmark, measure_store_quality, tmp_path)
    save_report("store_quality", _format_report(result))
    save_json("store_quality", result)

    # Contract 1: the lossless store tier is bit-for-bit the legacy
    # pipeline — images and statistics counters — on every quick preset.
    assert result["lossless_fidelity"]["mismatches"] == []
    lossless_rows = [r for r in result["grid"] if r["lod"] == 0 and r["quant"] == "lossless"]
    assert all(r["bitwise"] for r in lossless_rows)

    # Contract 2: every tier stays above its stated PSNR floor...
    by_tier = {(r["lod"], r["quant"]): r for r in result["grid"]}
    for (lod, quant), floor in PSNR_FLOORS_DB.items():
        measured = by_tier[(lod, quant)]["psnr_db"]
        assert measured is not None and measured >= floor, (
            f"lod={lod} quant={quant}: PSNR {measured} dB under floor {floor} dB"
        )

    # ...and the flagship compact tier is >= 4x smaller on disk than the
    # lossless archive while holding >= 35 dB.
    flagship = by_tier[(FLAGSHIP["lod"], FLAGSHIP["quant"])]
    assert flagship["disk_ratio"] >= FLAGSHIP_MIN_RATIO, flagship["disk_ratio"]
    assert flagship["psnr_db"] >= FLAGSHIP_MIN_PSNR_DB, flagship["psnr_db"]
