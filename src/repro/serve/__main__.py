"""Command-line front end of the render-farm serving subsystem.

Run a named evaluation scene — or any scene file on disk — along a camera
trajectory, sharded across a worker pool, and print a
throughput/latency/work report::

    python -m repro.serve --scene train --trajectory orbit --frames 16 --workers 4
    python -m repro.serve --scene drjohnson --trajectory walkthrough \
        --dataflow gaussianwise --quick --json
    python -m repro.serve --scene-file model.npz --frames 8 --lod 1 --quant compact

``--scene-file`` autodetects the on-disk format (lossless ``.npz``,
quantized store container, or the text exchange format) and fails with a
clear error otherwise; ``--lod``/``--quant`` select the scene store's
quality tier for any scene, named or file-backed.

``--repeat N`` measures steady state on a persistent
:class:`~repro.exec.executor.RenderExecutor`: iteration 1 is cold (worker
start-up, scene encode, worker-side decode), the rest land on resident
worker scenes, and the report splits warm vs cold frames/s — the executor
win, visible from the CLI::

    python -m repro.serve --scene train --frames 8 --workers 4 --repeat 5

The same entry point is installed as the ``repro-serve`` console script.
Exit status is 0 on success; 3 when ``--alerts`` rules are firing against
the run's final metrics; bad arguments (including unreadable or
unrecognised scene files) exit with ``argparse``'s usual status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.eval.reporting import format_table
from repro.eval.scenes import EVAL_SCENES, EvalScenePreset, register_preset
from repro.gaussians.synthetic import register_scene_spec
from repro.obs.cli import (
    EXIT_ALERTS_FIRING,
    TelemetrySession,
    add_telemetry_arguments,
    alerts_line,
    evaluate_alerts,
)
from repro.render.common import BACKENDS, DTYPES
from repro.serve.farm import DATAFLOWS, JobResult, RenderFarm
from repro.serve.trajectories import TRAJECTORY_KINDS, RenderJob, make_trajectory
from repro.store.codec import QUANT_SPECS
from repro.store.store import default_store, derive_scene_spec, load_scene_auto


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_scene_arguments(parser) -> None:
    """What is rendered: the scene and its quality tier."""
    parser.add_argument(
        "--scene",
        default="train",
        choices=sorted(EVAL_SCENES),
        help="evaluation scene preset to render",
    )
    parser.add_argument(
        "--scene-file",
        default=None,
        metavar="PATH",
        help=(
            "render a scene loaded from disk instead of a named preset "
            "(.npz scene archive, quantized store container, or text "
            "format; autodetected)"
        ),
    )
    parser.add_argument(
        "--lod",
        type=_nonnegative_int,
        default=0,
        help="LOD pyramid level (0 = full scene; level k keeps 0.5**k by importance)",
    )
    parser.add_argument(
        "--quant",
        default="lossless",
        choices=sorted(QUANT_SPECS),
        help="scene quantization tier (lossless ships/renders bit-exactly)",
    )


def _add_run_arguments(parser) -> None:
    """How much is rendered, on how many workers, how many times."""
    parser.add_argument(
        "--trajectory",
        default="orbit",
        choices=TRAJECTORY_KINDS,
        help="camera path to expand over the scene",
    )
    parser.add_argument(
        "--frames",
        type=_positive_int,
        default=16,
        help="number of frames in the job",
    )
    parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes (0 or 1 = in-process sequential fallback)",
    )
    parser.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "run the job N times on one persistent executor and report "
            "warm-vs-cold throughput (iteration 1 is cold: pool start-up, "
            "scene encode, worker decode; the rest hit resident scenes)"
        ),
    )


def _add_engine_arguments(parser) -> None:
    """How each frame renders."""
    parser.add_argument(
        "--dataflow",
        default="tilewise",
        choices=DATAFLOWS,
        help="rendering dataflow (standard tile-wise or GCC Gaussian-wise)",
    )
    parser.add_argument(
        "--backend",
        default="vectorized",
        choices=BACKENDS,
        help="rasterisation engine",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "tile-range shards per frame (1 = whole-frame work units); "
            "sharded output is bitwise identical, only single-frame "
            "latency changes (tilewise dataflow only)"
        ),
    )
    parser.add_argument(
        "--dtype",
        default="float64",
        choices=DTYPES,
        help=(
            "floating-point engine mode (float32 is the tile-wise fast "
            "path, PSNR-floored against the float64 oracle)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick preset (smoke runs)",
    )


def _add_misc_arguments(parser) -> None:
    """Trajectory anchors, process start method and reporting."""
    parser.add_argument(
        "--view-index",
        type=int,
        default=0,
        help="anchor evaluation view for dolly/jitter trajectories",
    )
    parser.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="seed of the jitter trajectory",
    )
    parser.add_argument(
        "--mp-context",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream per-frame completion lines to stderr as frames finish "
            "(completion order on the worker pool)"
        ),
    )
    add_telemetry_arguments(
        parser,
        parser,
        trace_help=(
            "write a trace of the run to PATH: Chrome trace_event JSON "
            "(open in Perfetto / chrome://tracing; one lane per worker, "
            "spans nest request > job > frame > shard down to kernel "
            "stages) or raw span JSON-lines when PATH ends in .jsonl"
        ),
        alerts_help=(
            "evaluate the JSON alert rules at PATH against the run's final "
            "metrics; exit 3 if any rule is firing"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    # Helpers add to the parser itself, not to argparse groups, so the
    # usage line and --help keep one flat option list in this order.
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Render a scene trajectory on the render farm.",
    )
    _add_scene_arguments(parser)
    _add_run_arguments(parser)
    _add_engine_arguments(parser)
    _add_misc_arguments(parser)
    return parser


def _register_scene_file(path: str) -> str:
    """Load ``path``, register it as a store-backed preset; return its name.

    The scene enters the default store under a ``file:`` name, a derived
    :class:`SceneSpec` provides camera geometry, and a runtime evaluation
    preset ties the two together so the farm and trajectories treat the
    file exactly like a named preset.
    """
    scene = load_scene_auto(path)
    name = f"file:{Path(path).stem.lower()}"
    register_scene_spec(derive_scene_spec(scene, name), overwrite=True)
    default_store().add_scene(name, scene, overwrite=True)
    register_preset(
        EvalScenePreset(name=name, scale=1.0, image_scale=1.0, store=name),
        overwrite=True,
    )
    return name


def run_repeated(
    job: RenderJob, args: argparse.Namespace, on_frame, obs=None, executor=None
) -> tuple[list[JobResult], dict, dict]:
    """Run ``job`` ``args.repeat`` times on one persistent executor.

    Iteration 1 is the cold pass (worker start-up on the pool path, scene
    preparation, payload encode + worker decode); every later iteration
    lands on resident scenes.  Returns the per-iteration results, the
    executor's aggregate residency stats, and its final health report
    (read while the pool is still alive).  A caller-supplied ``executor``
    (the ``--listen`` path, which needs live metrics/health views on it)
    is used as-is and stays open; otherwise a private one is created and
    torn down here.
    """
    from repro.exec import RenderExecutor

    results = []
    ctx = (
        contextlib.nullcontext(executor)
        if executor is not None
        else RenderExecutor(num_workers=args.workers, mp_context=args.mp_context, obs=obs)
    )
    with ctx as executor:
        for _ in range(args.repeat):
            results.append(executor.submit(job, on_frame=on_frame).result())
        stats = executor.stats.as_dict()
        health = executor.health()
    return results, stats, health


def repeat_summary(results: list[JobResult], stats: dict) -> dict:
    """Warm-vs-cold accounting over one ``--repeat`` series."""
    cold = results[0]
    warm = results[1:]
    warm_fps = (
        sum(r.frames_per_second for r in warm) / len(warm) if warm else 0.0
    )
    return {
        "iterations": len(results),
        "cold_fps": cold.frames_per_second,
        "warm_fps": warm_fps,
        "warm_over_cold": (
            warm_fps / cold.frames_per_second if cold.frames_per_second else 0.0
        ),
        "per_iteration_fps": [r.frames_per_second for r in results],
        "per_iteration_ship_bytes": [r.ship_bytes for r in results],
        "all_warm_after_first": all(r.warm for r in warm),
        "executor": stats,
    }


def format_repeat_report(repeat: dict) -> str:
    """Render the warm-vs-cold section of a ``--repeat`` run."""
    lines = [
        "",
        f"Steady-state measurement over {repeat['iterations']} iterations "
        "(persistent executor):",
        f"  cold (iteration 1): {repeat['cold_fps']:.2f} frames/s   "
        f"warm (rest): {repeat['warm_fps']:.2f} frames/s   "
        f"warm/cold: {repeat['warm_over_cold']:.2f}x",
        f"  ship bytes per iteration: {repeat['per_iteration_ship_bytes']} "
        "(plateaus after the first touch — scenes ship at most once per worker)",
        f"  executor: {repeat['executor']['cache_hits']} scene-cache hits   "
        f"{repeat['executor']['cache_misses']} misses   "
        f"{repeat['executor']['published_bytes']} B published   "
        f"{repeat['executor']['loaded_bytes']} B worker-loaded",
    ]
    health = repeat.get("health")
    if health is not None:
        states = health["states"]
        lines.append(
            f"  health: {health['mode']} mode   {states['live']} live   "
            f"{states['slow']} slow   {states['stalled']} stalled   "
            f"{health['workers_replaced']} replaced"
        )
    return "\n".join(lines)


def format_report(result: JobResult) -> str:
    """Render a :class:`JobResult` as a human-readable text report."""
    job = result.job
    mode = (
        f"{result.num_workers} workers"
        if result.num_workers
        else "sequential (in-process)"
    )
    shipped = (
        f"   shipped scene: {result.ship_bytes} B ({job.quant})"
        if result.ship_bytes
        else ""
    )
    lines = [
        f"Render-farm job: scene={job.scene} trajectory={job.trajectory.kind} "
        f"dataflow={job.dataflow} backend={result.spec.backend} "
        f"quick={job.quick} lod={job.lod} quant={job.quant}"
        f" dtype={result.spec.dtype} shards={getattr(job, 'shards', 1)}",
        f"  frames: {result.num_frames}   scheduling: {mode}"
        f"   gaussians: {result.num_gaussians}{shipped}",
        f"  wall time: {result.wall_seconds:.3f} s   "
        f"throughput: {result.frames_per_second:.2f} frames/s",
        f"  per-frame latency: p50 {result.p50_ms:.1f} ms   "
        f"p95 {result.p95_ms:.1f} ms",
        "",
        format_table(
            ["counter", "total over job"],
            sorted(result.aggregate_counters().items()),
            title="Aggregated work counters",
        ),
    ]
    return "\n".join(lines)


def build_job(args: argparse.Namespace, parser) -> RenderJob:
    """The :class:`RenderJob` the parsed arguments describe."""
    scene_name = args.scene
    if args.scene_file is not None:
        try:
            scene_name = _register_scene_file(args.scene_file)
        except (FileNotFoundError, ValueError) as exc:
            parser.error(f"--scene-file: {exc}")
    trajectory = make_trajectory(
        args.trajectory,
        num_frames=args.frames,
        view_index=args.view_index,
        seed=args.seed,
    )
    if args.shards > 1 and args.dataflow != "tilewise":
        parser.error("--shards > 1 requires --dataflow tilewise")
    if args.dtype != "float64" and args.dataflow != "tilewise":
        parser.error("--dtype float32 requires --dataflow tilewise")
    return RenderJob(
        scene=scene_name,
        trajectory=trajectory,
        quick=args.quick,
        dataflow=args.dataflow,
        backend=args.backend,
        lod=args.lod,
        quant=args.quant,
        shards=args.shards,
        dtype=args.dtype,
    )


def _print_progress(record) -> None:
    print(
        f"  frame {record.index:>4} done in {record.render_ms:8.1f} ms",
        file=sys.stderr,
        flush=True,
    )


def run_job(
    job: RenderJob, args: argparse.Namespace, telemetry: TelemetrySession
) -> tuple[JobResult, dict | None]:
    """Render ``job`` as the arguments ask; return the last result and the
    ``--repeat`` summary (``None`` for a single run)."""
    obs = telemetry.obs
    on_frame = _print_progress if args.progress else None
    with contextlib.ExitStack() as stack:
        shared_executor = None
        if telemetry.listen_addr is not None:
            # Live telemetry needs views onto a *live* executor, so the
            # --listen path builds one shared executor up front (instead of
            # the farm's per-job transient) and serves scrapes off it.
            # Entered in this order so the scrape server stops before the
            # executor it reads from shuts down.
            from repro.exec import RenderExecutor

            shared_executor = stack.enter_context(
                RenderExecutor(num_workers=args.workers, mp_context=args.mp_context, obs=obs)
            )
            stack.enter_context(
                telemetry.live(shared_executor.collect_metrics, shared_executor.health)
            )
        if args.repeat > 1:
            results, stats, health = run_repeated(
                job, args, on_frame, obs=obs, executor=shared_executor
            )
            repeat = repeat_summary(results, stats)
            repeat["health"] = health
            return results[-1], repeat
        if shared_executor is not None:
            return shared_executor.submit(job, on_frame=on_frame).result(), None
        farm = RenderFarm(num_workers=args.workers, mp_context=args.mp_context, obs=obs)
        return farm.run(job, on_frame=on_frame), None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    job = build_job(args, parser)
    # The farm's alert rules read the obs metrics, so --alerts alone
    # already needs an obs context.
    telemetry = TelemetrySession(args, parser, obs_for_alerts=True)
    result, repeat = run_job(job, args, telemetry)
    telemetry.export()

    alerts = None
    if args.alerts:
        # One cumulative sample: the run's end state (executor shutdown
        # already folded the worker-side tallies into obs.metrics).
        alerts = evaluate_alerts(args.alerts, [(0.0, telemetry.obs.metrics.snapshot())])

    if args.json:
        summary = result.summary()
        if repeat is not None:
            summary["repeat"] = repeat
        if alerts is not None:
            summary["alerts"] = alerts
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        text = format_report(result)
        if repeat is not None:
            text += "\n" + format_repeat_report(repeat)
        if alerts is not None:
            text += "\n" + alerts_line(alerts)
        print(text)
    return EXIT_ALERTS_FIRING if alerts is not None and alerts["firing"] else 0


if __name__ == "__main__":
    sys.exit(main())
