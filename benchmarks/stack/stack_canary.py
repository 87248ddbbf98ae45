"""Canaries: small fixed probes behind the off-home cells of the result line.

The driver wants every end-to-end metric from every workload, and a workload
has no operation of every kind: ``sched_replay`` renders no frame, the other
three take no scheduling decision.  Where ``stack_catalog.OFF_HOME`` says
``canary`` the number comes from here: the same public calls the home
workload times, on one fixed input that no seed changes, so the name is a
real measurement everywhere and a change that moves it shows on every
workload.  Cite a metric only on its home workloads; a canary is sized to be
steady, not to be representative.
"""

from __future__ import annotations

import time

from repro.eval.scenes import eval_preset
from repro.exec.frames import render_frame
from repro.gaussians.synthetic import make_scene
from repro.sched.workload import WorkloadSpec, generate_workload

import stack_catalog as catalog
from stack_harness import median, pct, speed_reading
from stack_paper import SPECS, seeded_camera
from stack_replay import replay

#: Frame canary: this quick preset from anchor view 0, Gaussian-wise calls
#: spread evenly among the tile-wise ones.
FRAME_SCENE = "lego"
TILE_CALLS = 10
GAUSS_CALLS = 5

#: Decision canary: legacy scheduler over a fixed poisson stream.
REPLAY_REQUESTS = 1000
REPLAYS = 4


def frame_canary(smoke: bool = False) -> dict[str, float]:
    """Every frame- and request-shaped metric, read on in-process
    ``render_frame`` calls (a request is one tile-wise call)."""
    preset = eval_preset(FRAME_SCENE, quick=True)
    scene = make_scene(preset.name, scale=preset.scale)
    camera = seeded_camera(preset, 0, 0)
    tile_calls, gauss_calls = (1, 1) if smoke else (TILE_CALLS, GAUSS_CALLS)
    if not smoke:
        for spec in SPECS.values():  # untimed warm-up of both code paths
            render_frame(scene, camera, spec)
    ms = {"tile": [], "gauss": []}
    arms = ["tile"] * tile_calls
    for k in range(gauss_calls):
        arms.insert((k + 1) * (tile_calls // gauss_calls) + k, "gauss")
    before = speed_reading()
    for arm in arms:  # each call at reference speed: scaled by the readings that bracket it
        t0 = time.perf_counter()
        render_frame(scene, camera, SPECS[arm])
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        after = speed_reading()
        ms[arm].append(elapsed_ms / ((before + after) / 2.0))
        before = after
    tile = ms["tile"]
    return {
        "tile_frames_per_s": 1000.0 / median(tile),
        "gauss_frames_per_s": 1000.0 / median(ms["gauss"]),
        "req_ms_p50": median(tile),
        "req_ms_p90": pct(tile, 90),
        "first_frame_ms_p50": median(tile),
        "slo_attainment": sum(t <= catalog.SLO_LIMIT_MS["canary_frame"] for t in tile) / len(tile),
        "sat_frames_per_s": len(arms) * 1000.0 / (sum(tile) + sum(ms["gauss"])),
    }


def decision_canary(smoke: bool = False) -> dict[str, float]:
    """``decisions_per_s`` of the legacy scheduler, ``execute=False``."""
    count = 150 if smoke else REPLAY_REQUESTS
    spec = WorkloadSpec(arrival="poisson", rate_rps=24.0, duration_s=1.33 * count / 24.0, seed=0)
    requests = generate_workload(spec)[:count]
    rates = []
    before = speed_reading()
    for k in range(1 + (1 if smoke else REPLAYS)):
        report, elapsed, _, _ = replay(requests, spec, None)
        after = speed_reading()
        if k:  # the first replay is the untimed warm-up
            rates.append(len(report.log) * (before + after) / 2.0 / elapsed)
        before = after
    return {"decisions_per_s": median(rates)}
