"""Render-farm throughput — multiprocessing pool vs sequential fallback.

Not a paper figure: this benchmark guards the serving subsystem's two
contracts on a 16-frame orbit of the default ``train`` preset:

1. *Fidelity* — every farm-rendered frame is bitwise identical to the
   sequential in-process fallback, and the frame at the evaluation azimuth
   is bitwise identical to the single-frame :mod:`repro.eval.runner` render
   of the same camera — statistics counters included.
2. *Throughput* — the 4-worker farm completes the job at least 1.5x faster
   than the sequential path (end-to-end wall time, pool start-up and scene
   shipping included).  Frame-parallel rendering needs hardware parallelism,
   so the speedup assertion requires >= 2 usable CPUs; on single-CPU
   machines the fidelity checks still run and the speedup is reported
   without being enforced.

Run with::

    pytest benchmarks/bench_serve_throughput.py --benchmark-only
"""

from __future__ import annotations

import dataclasses

import numpy as np
from conftest import run_once

from repro.eval.runner import EvalSetup, run_tilewise
from repro.exec.frames import usable_cpu_count
from repro.serve.farm import RenderFarm
from repro.serve.trajectories import RenderJob, make_trajectory

NUM_FRAMES = 16
NUM_WORKERS = 4
MIN_SPEEDUP = 1.5


def _stats_mismatches(expected, actual) -> list[str]:
    mismatches = []
    for field in dataclasses.fields(expected):
        a, b = getattr(expected, field.name), getattr(actual, field.name)
        equal = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        if not equal:
            mismatches.append(field.name)
    return mismatches


def measure_farm_throughput(scene_name: str = "train") -> dict:
    """Run the orbit job sequentially and on the farm; compare both ways."""
    job = RenderJob(scene_name, make_trajectory("orbit", num_frames=NUM_FRAMES))

    sequential = RenderFarm(num_workers=0).run(job)
    farm = RenderFarm(num_workers=NUM_WORKERS).run(job)

    frame_mismatches: list[str] = []
    for seq_frame, farm_frame in zip(sequential.frames, farm.frames):
        if not np.array_equal(seq_frame.image, farm_frame.image):
            frame_mismatches.append(f"frame{farm_frame.index}:image")
        frame_mismatches += [
            f"frame{farm_frame.index}:{name}"
            for name in _stats_mismatches(seq_frame.stats, farm_frame.stats)
        ]

    # The orbit's frame 0 sits at the evaluation azimuth (view_index=0), so
    # it must reproduce the runner's memoised single-frame render bit-for-bit.
    single = run_tilewise(EvalSetup(scene_name))
    runner_mismatches = _stats_mismatches(single.stats, farm.frames[0].stats)
    if not np.array_equal(single.image, farm.frames[0].image):
        runner_mismatches.insert(0, "image")

    return {
        "scene": scene_name,
        "num_frames": NUM_FRAMES,
        "num_workers": farm.num_workers,
        "usable_cpus": usable_cpu_count(),
        "sequential_s": sequential.wall_seconds,
        "farm_s": farm.wall_seconds,
        "speedup": sequential.wall_seconds / farm.wall_seconds,
        "sequential_fps": sequential.frames_per_second,
        "farm_fps": farm.frames_per_second,
        "sequential_p50_ms": sequential.p50_ms,
        "sequential_p95_ms": sequential.p95_ms,
        "farm_p50_ms": farm.p50_ms,
        "farm_p95_ms": farm.p95_ms,
        "frame_mismatches": frame_mismatches,
        "runner_mismatches": runner_mismatches,
        "counters_match": sequential.aggregate_counters() == farm.aggregate_counters(),
    }


def _format_report(result: dict) -> str:
    lines = [
        "Render-farm throughput: 4-worker pool vs sequential fallback",
        f"scene={result['scene']} frames={result['num_frames']} "
        f"workers={result['num_workers']} cpus={result['usable_cpus']}",
        "",
        f"{'path':<12}{'wall':>10}{'frames/s':>10}{'p50':>10}{'p95':>10}",
        f"{'sequential':<12}{result['sequential_s']:>9.2f}s"
        f"{result['sequential_fps']:>10.2f}"
        f"{result['sequential_p50_ms']:>8.1f}ms{result['sequential_p95_ms']:>8.1f}ms",
        f"{'farm':<12}{result['farm_s']:>9.2f}s{result['farm_fps']:>10.2f}"
        f"{result['farm_p50_ms']:>8.1f}ms{result['farm_p95_ms']:>8.1f}ms",
        "",
        f"speedup: {result['speedup']:.2f}x",
        f"bitwise identical to sequential: {not result['frame_mismatches']}",
        f"bitwise identical to eval runner: {not result['runner_mismatches']}",
    ]
    return "\n".join(lines)


def test_farm_throughput_and_fidelity(benchmark, save_report, save_json):
    result = run_once(benchmark, measure_farm_throughput)
    save_report("serve_throughput", _format_report(result))
    save_json("serve_throughput", result)

    # Fidelity: farm output is bit-for-bit the sequential output, and the
    # evaluation-azimuth frame is bit-for-bit the runner's single frame.
    assert result["frame_mismatches"] == []
    assert result["runner_mismatches"] == []
    assert result["counters_match"]

    # Throughput: requires real hardware parallelism.
    if result["usable_cpus"] >= 2:
        assert result["speedup"] >= MIN_SPEEDUP, result["speedup"]
