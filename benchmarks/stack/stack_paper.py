"""``paper_frames``: the paper's frames, rendered in-process.

One closed-loop caller renders a fixed set of full-preset frames through
``render_frame`` pass after pass until the time box is used: a tile-wise arm
(the standard/GSCore dataflow; six presets x 2 cameras) and a Gaussian-wise
arm (GCC: cross-stage conditional on, alpha boundary; the three ablation
presets x 1 camera, because one such frame costs 0.6-2 s), shuffled together
so that a slow stretch of the machine lands on both.  ``render`` does all the
work; ``exec``/``serve``/``sched`` do none.

The seed jitters each camera slightly around a fixed anchor view and
shuffles the order inputs are rendered in, so two seeds offer statistically
the same work (frame cost varies ~2x between anchor views of one scene,
which a free choice of view would turn into run-to-run spread).
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from repro.arch.gcc import GccAccelerator
from repro.arch.gscore import GScoreAccelerator
from repro.eval.runner import EvalSetup, clear_cache, load_scene_and_camera
from repro.eval.scenes import ABLATION_SCENES, eval_preset
from repro.exec.frames import FrameSpec, render_frame
from repro.gaussians.synthetic import BENCHMARK_SCENES, make_scene
from repro.render import kernels
from repro.render.common import RenderConfig
from repro.render.metrics import psnr
from repro.serve.trajectories import make_trajectory

import stack_catalog as catalog
from stack_harness import Check, Measurement, median, pct, sha256_hex, speed_reading, timed_passes

#: Eye perturbation of a seeded camera, as a fraction of the scene extent.
JITTER_SIGMA = 0.01

#: PSNR reported for bitwise-identical images (JSON has no infinity).
PSNR_IDENTICAL_DB = 999.0

SPECS = {
    "tile": FrameSpec(dataflow="tilewise"),
    "gauss": FrameSpec(dataflow="gaussianwise", enable_cc=True, boundary_mode="alpha"),
}


def stats_counters(stats) -> dict[str, int]:
    """The integer work counters of a stats object (arrays and flags left out)."""
    return {
        f.name: int(getattr(stats, f.name))
        for f in dataclasses.fields(stats)
        if isinstance(getattr(stats, f.name), (int, np.integer))
        and not isinstance(getattr(stats, f.name), bool)
    }


def frame_digest(result) -> str:
    image = np.ascontiguousarray(result.image)
    counters = json.dumps(stats_counters(result.stats), sort_keys=True)
    return sha256_hex(image.tobytes(), counters.encode())


def seeded_camera(preset, anchor_view: int, jitter_seed: int):
    trajectory = make_trajectory(
        "jitter",
        num_frames=1,
        view_index=anchor_view,
        seed=jitter_seed,
        jitter_sigma=JITTER_SIGMA,
    )
    return trajectory.cameras(preset)[0]


def capped_psnr(image_a, image_b) -> float:
    return min(psnr(image_a, image_b), PSNR_IDENTICAL_DB)


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


class PaperFrames:
    name = "paper_frames"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.quick = smoke
        if smoke:
            arms = {"tile": (("train", "playroom"), (0,)), "gauss": (("train",), (0,))}
        else:
            arms = {"tile": (BENCHMARK_SCENES, (0, 4)), "gauss": (ABLATION_SCENES, (0,))}
        rng = np.random.default_rng([seed, 0])
        #: (arm, scene, anchor view, jitter seed) per input.
        self.input_keys = [
            (arm, scene, anchor, int(rng.integers(2**31 - 1)))
            for arm, (scenes, anchors) in arms.items()
            for scene in scenes
            for anchor in anchors
        ]
        self.scene_names = tuple(dict.fromkeys(key[1] for key in self.input_keys))
        self.order_rng = rng
        self.scenes: dict = {}
        self.inputs: list = []
        self.make_scene_ms: list[float] = []

    def _of_arm(self, arm: str) -> list[int]:
        return [i for i, key in enumerate(self.input_keys) if key[0] == arm]

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.scenes, self.make_scene_ms = {}, []
        for name in self.scene_names:
            preset = eval_preset(name, quick=self.quick)
            t0 = time.perf_counter()
            self.scenes[name] = make_scene(preset.name, scale=preset.scale)
            self.make_scene_ms.append((time.perf_counter() - t0) * 1000.0)
        self.inputs = [
            (self.scenes[scene], seeded_camera(eval_preset(scene, quick=self.quick), anchor, jitter))
            for _, scene, anchor, jitter in self.input_keys
        ]
        # Untimed warm-up: one small frame through each arm's code path.
        warm = eval_preset("train", quick=True)
        for spec in SPECS.values():
            render_frame(make_scene(warm.name, scale=warm.scale), seeded_camera(warm, 0, 0), spec)

    def teardown(self) -> None:
        self.scenes, self.inputs = {}, []

    # ------------------------------------------------------------------
    def measure(self, seconds: float, rec=None, min_passes: int = 1) -> Measurement:
        n = len(self.inputs)
        #: Per input: raw wall ms, and the same at reference speed.
        raw_ms: list[list[float]] = [[] for _ in range(n)]
        frame_ms: list[list[float]] = [[] for _ in range(n)]
        f32_ms: list[list[float]] = [[] for _ in range(n)]
        speed: list[float] = []
        digests: list[str | None] = [None] * n
        results: list = [None] * n
        mismatches = 0
        f32_spec = dataclasses.replace(SPECS["tile"], dtype="float32")

        def run_pass(pass_index: int) -> None:
            nonlocal mismatches
            # A speed reading between frames; a frame is scaled by the mean
            # of the two that bracket it.
            speed.append(speed_reading())
            for i in self.order_rng.permutation(n):
                arm = self.input_keys[i][0]
                scene, camera = self.inputs[i]
                if rec is None:
                    t0 = time.perf_counter()
                    result = render_frame(scene, camera, SPECS[arm])
                    elapsed_ms = (time.perf_counter() - t0) * 1000.0
                else:
                    with rec.span("bench.frame", op=f"{self.name}:{arm}:{i}:{pass_index}"):
                        t0 = time.perf_counter()
                        with rec.span("render.render_frame") as span:
                            result = render_frame(scene, camera, SPECS[arm])
                        elapsed_ms = (time.perf_counter() - t0) * 1000.0
                    span["counts"]["alpha_evals"] = int(result.stats.alpha_evaluations)
                speed.append(speed_reading())
                raw_ms[i].append(elapsed_ms)
                frame_ms[i].append(elapsed_ms / ((speed[-2] + speed[-1]) / 2.0))
                digest = frame_digest(result)
                if digests[i] is None:
                    digests[i], results[i] = digest, result
                elif digest != digests[i]:
                    mismatches += 1
                if rec is not None and arm == "tile":
                    # The float32 fast path beside its float64 twin, so the
                    # ratio is taken under the same machine conditions (hook
                    # off: its stages belong to no traced operation).
                    kernels.set_stage_hook(None)
                    t0 = time.perf_counter()
                    render_frame(scene, camera, f32_spec)
                    f32_ms[i].append((time.perf_counter() - t0) * 1000.0)
                    kernels.set_stage_hook(rec)
                    speed.append(speed_reading())

        previous_hook = kernels.set_stage_hook(rec) if rec is not None else None
        try:
            passes = len(timed_passes(run_pass, seconds, min_passes))
        finally:
            if rec is not None:
                kernels.set_stage_hook(previous_hook)

        # Throughput is over each arm's fixed input set, from per-input medians.
        medians = {arm: [median(frame_ms[i]) for i in self._of_arm(arm)] for arm in SPECS}
        within = sum(
            ms <= catalog.SLO_LIMIT_MS[f"{self.input_keys[i][0]}_frame"]
            for i in range(n)
            for ms in frame_ms[i]
        )
        frames = n * passes
        return Measurement(
            values={
                "tile_frames_per_s": len(medians["tile"]) * 1000.0 / sum(medians["tile"]),
                "gauss_frames_per_s": len(medians["gauss"]) * 1000.0 / sum(medians["gauss"]),
                "req_ms_p50": median(medians["tile"]),
                "req_ms_p90": pct(medians["tile"], 90),
                "first_frame_ms_p50": median(medians["tile"]),
                "slo_attainment": within / frames,
                "sat_frames_per_s": frames * 1000.0 / sum(sum(times) for times in frame_ms),
            },
            samples=len(medians["tile"]),
            op_ms=median(medians["tile"] + medians["gauss"]),
            speed=speed,
            attempted=frames,
            failed=mismatches,
            counts={
                "frames_digest": sha256_hex("".join(digests).encode()),
                "alpha_evals": sum(int(r.stats.alpha_evaluations) for r in results),
            },
            extra={"results": results, "raw_ms": raw_ms, "f32_ms": f32_ms},
        )

    # ------------------------------------------------------------------
    def verify(self, measurement: Measurement) -> list[Check]:
        """Vectorized engine against the reference loops on one quick frame
        per arm: every work counter integer-equal, image within ``atol=1e-9``."""
        checks = [
            Check(
                "paper_frames.repeats_bitwise",
                measurement.failed == 0,
                f"{measurement.failed} of {measurement.attempted} frames differed from the first pass",
            )
        ]
        preset = eval_preset("lego", quick=True)
        scene = make_scene(preset.name, scale=preset.scale)
        camera = seeded_camera(preset, self.input_keys[0][2], self.input_keys[0][3])
        for arm, spec in SPECS.items():
            fast = render_frame(scene, camera, spec)
            slow = render_frame(scene, camera, dataclasses.replace(spec, backend="reference"))
            counters_equal = stats_counters(fast.stats) == stats_counters(slow.stats)
            max_diff = float(np.max(np.abs(fast.image - slow.image)))
            checks += [
                Check(f"paper_frames.{arm}.counters_equal_reference", counters_equal),
                Check(f"paper_frames.{arm}.image_matches_reference", max_diff <= 1e-9, f"max abs diff {max_diff:.3g}"),
            ]
        return checks

    # ------------------------------------------------------------------
    def layer_metrics(self, untraced: Measurement, traced: Measurement, rec) -> dict[str, float]:
        values = self._tile_layer_metrics(untraced, traced, rec)
        values.update(self._gauss_layer_metrics(untraced))
        return values

    def _tile_layer_metrics(self, untraced, traced, rec) -> dict[str, float]:
        tile = self._of_arm("tile")
        stats = [untraced.extra["results"][i].stats for i in tile]
        # Stage times per traced frame (a stage may run more than once in it).
        stage_ms: dict[str, dict[str, float]] = {}
        tile_op = f"{self.name}:tile:"
        for span in rec.spans:
            if span["name"] in ("render.project", "render.pair_build", "render.blend") and span["op"].startswith(tile_op):
                per_frame = stage_ms.setdefault(span["name"], {})
                per_frame[span["op"]] = per_frame.get(span["op"], 0.0) + span["end_ms"] - span["start_ms"]
        stage_median = {name: median(per.values()) for name, per in stage_ms.items()}
        blend_total = sum(stage_ms["render.blend"].values())
        frames = [
            span for span in rec.spans
            if span["name"] == "render.render_frame" and span["op"].startswith(tile_op)
        ]
        frame_total = sum(span["end_ms"] - span["start_ms"] for span in frames)
        traced_evals = sum(span["counts"]["alpha_evals"] for span in frames)
        f64 = sum(median(traced.extra["raw_ms"][i]) for i in tile)
        f32 = sum(median(traced.extra["f32_ms"][i]) for i in tile)

        clear_cache()
        load_ms = []
        for name in self.scene_names:
            t0 = time.perf_counter()
            load_scene_and_camera(EvalSetup(name, quick=self.quick))
            load_ms.append((time.perf_counter() - t0) * 1000.0)
        clear_cache()

        tile_alpha_ns, seq_blend_ns = kernel_microbench()
        return {
            "gaussians.make_scene_ms": median(self.make_scene_ms),
            "eval.load_scene_ms": median(load_ms),
            "render.tile.frame_ms": median([median(untraced.extra["raw_ms"][i]) for i in tile]),
            "render.tile.project_ms": stage_median["render.project"],
            "render.tile.pair_build_ms": stage_median["render.pair_build"],
            "render.tile.blend_ms": stage_median["render.blend"],
            "render.tile.blend_share": blend_total / frame_total,
            "render.tile.blend_ns_per_alpha_eval": blend_total * 1e6 / traced_evals,
            "render.kernel.tile_alpha_ns_per_eval": tile_alpha_ns,
            "render.kernel.seq_blend_ns_per_eval": seq_blend_ns,
            "render.tile.alpha_evals_per_frame": sum(s.alpha_evaluations for s in stats) / len(stats),
            "render.tile.pairs_processed_share": sum(s.num_pairs_processed for s in stats) / sum(s.num_tile_pairs for s in stats),
            "render.tile.blend_useful_share": sum(s.pixels_blended for s in stats) / sum(s.alpha_evaluations for s in stats),
            "render.tile.rendered_fraction": sum(s.num_rendered for s in stats) / sum(s.num_preprocessed for s in stats),
            "render.tile.loads_per_gaussian": sum(s.num_pairs_processed for s in stats) / sum(s.num_distinct_processed for s in stats),
            "render.tile.f32_frame_ratio": f32 / f64,
        }

    def _gauss_layer_metrics(self, untraced) -> dict[str, float]:
        gauss = self._of_arm("gauss")
        results = [untraced.extra["results"][i] for i in gauss]
        stats = [r.stats for r in results]
        medians = [median(untraced.extra["raw_ms"][i]) for i in gauss]
        frame_ms_total = sum(medians)
        # Both accelerator models on the rendered statistics; the GSCore
        # baseline needs the same frames through the tile-wise dataflow.
        psnrs, speedups, energy_effs, sim_ms = [], [], [], []
        gcc_cycles, gscore_cycles, gcc_mb, gscore_mb = [], [], [], []
        for i, result in zip(gauss, results):
            scene, camera = self.inputs[i]
            tile = render_frame(scene, camera, SPECS["tile"])
            psnrs.append(capped_psnr(result.image, tile.image))
            t0 = time.perf_counter()
            gscore = GScoreAccelerator().simulate(scene, camera, render_result=tile)
            gcc = GccAccelerator().simulate(scene, camera, render_result=result)
            sim_ms.append((time.perf_counter() - t0) * 1000.0)
            speedups.append(gcc.fps_per_mm2 / gscore.fps_per_mm2)
            energy_effs.append(
                (gscore.energy_mj_per_frame * gscore.area_mm2) / (gcc.energy_mj_per_frame * gcc.area_mm2)
            )
            gcc_cycles.append(gcc.total_cycles)
            gscore_cycles.append(gscore.total_cycles)
            gcc_mb.append(gcc.dram_traffic.total / 1e6)
            gscore_mb.append(gscore.dram_traffic.total / 1e6)
        return {
            "render.gauss.frame_ms": median(medians),
            "render.gauss.us_per_projected": frame_ms_total * 1e3 / sum(s.num_projected for s in stats),
            "render.gauss.ns_per_alpha_eval": frame_ms_total * 1e6 / sum(s.alpha_evaluations for s in stats),
            "render.gauss.groups_skipped_share": sum(s.num_groups_skipped for s in stats) / sum(s.num_groups for s in stats),
            "render.gauss.preprocessing_savings": sum(s.num_skipped_by_termination + s.num_skipped_tmask for s in stats) / sum(s.num_stage1_passed for s in stats),
            "render.gauss.sh_evaluated_share": sum(s.num_sh_evaluated for s in stats) / sum(s.num_stage1_passed for s in stats),
            "render.gauss.blocks_evaluated_share": sum(s.blocks_evaluated for s in stats) / sum(s.blocks_visited for s in stats),
            "render.gauss.blend_useful_share": sum(s.pixels_blended for s in stats) / sum(s.alpha_evaluations for s in stats),
            "render.gauss.alpha_evals_per_frame": sum(s.alpha_evaluations for s in stats) / len(stats),
            "render.gauss.psnr_vs_tile_db_min": min(psnrs),
            "arch.gscore.cycles_per_frame": float(np.mean(gscore_cycles)),
            "arch.gcc.cycles_per_frame": float(np.mean(gcc_cycles)),
            "arch.gscore.dram_mb_per_frame": float(np.mean(gscore_mb)),
            "arch.gcc.dram_mb_per_frame": float(np.mean(gcc_mb)),
            "arch.speedup_geomean": geomean(speedups),
            "arch.energy_eff_geomean": geomean(energy_effs),
            "arch.sim_host_ms": median(sim_ms),
        }


def kernel_microbench(repeats: int = 30) -> tuple[float, float]:
    """ns per alpha evaluation of the two Stage-IV kernels on one fixed
    synthetic chunk: K=256 depth-ordered Gaussians over a 16x16 tile."""
    rng = np.random.default_rng(0)
    k, tile = 256, 16
    means2d = rng.uniform(0.0, tile, size=(k, 2))
    conics = np.stack(
        [rng.uniform(0.05, 0.5, k), rng.uniform(-0.02, 0.02, k), rng.uniform(0.05, 0.5, k)], axis=1
    )
    opacities = rng.uniform(0.05, 0.6, k)
    colors = rng.uniform(0.0, 1.0, size=(k, 3))
    config = RenderConfig()
    alpha_ns, blend_ns = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        alpha, _maha = kernels.batched_tile_alpha(
            means2d, conics, opacities, 0, 0, tile, tile, config.alpha_min, config.alpha_max
        )
        t1 = time.perf_counter()
        kernels.sequential_blend(
            np.zeros((tile * tile, 3)),
            np.ones(tile * tile),
            alpha.reshape(k, tile * tile),
            colors,
            config.transmittance_eps,
        )
        t2 = time.perf_counter()
        alpha_ns.append((t1 - t0) * 1e9 / (k * tile * tile))
        blend_ns.append((t2 - t1) * 1e9 / (k * tile * tile))
    return median(alpha_ns), median(blend_ns)
