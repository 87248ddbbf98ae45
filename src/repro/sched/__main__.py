"""Command-line front end of the request-scheduling subsystem.

Generate a seeded synthetic workload and serve it through the multi-tenant
scheduler, printing a goodput / SLO-attainment / tier-histogram report::

    python -m repro.sched --arrival poisson --rate 8 --duration 20 --slo-ms 250
    python -m repro.sched --arrival bursty --rate 12 --policy fixed \
        --lod 0 --quant lossless --json
    python -m repro.sched --rate 6 --duration 2 --clients 2 --quick \
        --execute --workers 0 --json
    python -m repro.sched --arrival bursty --rate 16 --executors 4 \
        --routing affinity --autoscale --fair --json

By default only the decision plane runs (the deterministic virtual clock —
fast, machine-independent, replayable); ``--execute`` additionally renders
every dispatched job for real through the render farm at the tier the
controller chose.  ``--policy adaptive`` (default) walks the quality ladder
under the SLO controller; ``--policy fixed`` pins serving to the single
``--lod``/``--quant`` tier.  ``--executors N`` serves over a fleet with
cache-aware routing (``--routing``), optional ``--autoscale``, per-tenant
``--fair`` dispatch with ``--tenant-quota``, and ``--fail-executor``
failure injection; fleet reports add placement and per-tenant usage
tables.

The same entry point is installed as the ``repro-sched`` console script.
Exit status 0 on success; 3 when ``--alerts`` rules are firing at the end
of the run (the SLO-violation exit the CI contract tests); bad arguments
exit with ``argparse``'s status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval.reporting import format_table
from repro.exec.frames import DATAFLOWS
from repro.gaussians.presets import EVAL_SCENES
from repro.gaussians.synthetic import BENCHMARK_SCENES
from repro.obs.cli import (
    EXIT_ALERTS_FIRING,
    TelemetrySession,
    add_telemetry_arguments,
    alerts_line,
    evaluate_alerts,
)
from repro.sched.qos import (
    DEFAULT_LADDER,
    FAST_LADDER,
    EventLog,
    QoSPolicy,
    SLOController,
)
from repro.sched.scheduler import (
    RequestScheduler,
    ScheduleReport,
    SchedulerPolicy,
    check_ladder,
    run_workload,
)
from repro.fleet import AutoscalePolicy, FleetPolicy, ROUTINGS
from repro.sched.workload import ARRIVAL_KINDS, WorkloadSpec
from repro.serve.__main__ import _nonnegative_int, _positive_int
from repro.store.codec import QUANT_SPECS


def _parse_failures(specs: list[str] | None, parser) -> tuple:
    """``T_MS:ID`` strings into the policy's ``(t_ms, executor_id)`` tuples."""
    failures = []
    for text in specs or ():
        try:
            t_ms, executor_id = text.split(":", 1)
            failures.append((float(t_ms), int(executor_id)))
        except ValueError:
            parser.error(f"--fail-executor expects T_MS:ID, got {text!r}")
    return tuple(failures)


def build_fleet_policy(args, parser) -> FleetPolicy | None:
    """The :class:`FleetPolicy` the parsed arguments describe (or ``None``)."""
    if args.executors is None:
        for flag, present in (
            ("--routing", args.routing != "affinity"),
            ("--autoscale", args.autoscale),
            ("--fair", args.fair),
            ("--tenant-quota", args.tenant_quota is not None),
            ("--fail-executor", bool(args.fail_executor)),
        ):
            if present:
                parser.error(f"{flag} requires --executors")
        return None
    if args.tenant_quota is not None and not args.fair:
        parser.error("--tenant-quota requires --fair")
    if args.tenant_quota is not None and args.tenant_quota > 1.0:
        parser.error("--tenant-quota must be in (0, 1]")
    autoscale = None
    if args.autoscale:
        if args.autoscale_max < args.executors:
            parser.error("--autoscale-max must be >= --executors")
        autoscale = AutoscalePolicy(
            min_executors=args.executors, max_executors=args.autoscale_max
        )
    try:
        return FleetPolicy(
            num_executors=args.executors,
            routing=args.routing,
            autoscale=autoscale,
            fair=args.fair,
            tenant_quota=args.tenant_quota,
            failures=_parse_failures(args.fail_executor, parser),
            seed=args.seed,
        )
    except ValueError as exc:
        # What argparse's types cannot see, e.g. --fail-executor nan:0.
        parser.error(str(exc))


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _frame_choices(text: str) -> tuple[int, ...]:
    try:
        frames = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc
    if not frames or any(n <= 0 for n in frames):
        raise argparse.ArgumentTypeError("frame counts must be positive")
    return frames


def _add_workload_arguments(workload) -> None:
    """The synthetic request stream."""
    workload.add_argument(
        "--arrival",
        default="poisson",
        choices=ARRIVAL_KINDS,
        help="arrival process (open-loop)",
    )
    workload.add_argument(
        "--rate",
        type=_positive_float,
        default=4.0,
        help="mean offered load, requests per second",
    )
    workload.add_argument(
        "--duration",
        type=_positive_float,
        default=20.0,
        help="arrival window in seconds",
    )
    workload.add_argument(
        "--clients",
        type=_positive_int,
        default=4,
        help="number of tenants issuing requests",
    )
    workload.add_argument(
        "--scenes",
        nargs="+",
        default=list(BENCHMARK_SCENES),
        choices=sorted(EVAL_SCENES),
        metavar="SCENE",
        help="scene catalogue in popularity-rank order (Zipf rank 1 first)",
    )
    workload.add_argument(
        "--zipf-s",
        type=_nonnegative_float,
        default=1.1,
        help="Zipf exponent of scene popularity (0 = uniform)",
    )
    workload.add_argument(
        "--frames-mix",
        type=_frame_choices,
        default=(2, 4, 8),
        metavar="N,N,...",
        help="frame counts a request may ask for (comma-separated)",
    )
    workload.add_argument(
        "--slo-ms",
        type=_positive_float,
        default=250.0,
        help="per-request end-to-end latency SLO (relative deadline)",
    )
    workload.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="workload seed (same seed = same stream and decision log)",
    )


def _add_serving_arguments(serving) -> None:
    """Tiering policy, capacity and engine of the serving side."""
    serving.add_argument(
        "--policy",
        default="adaptive",
        choices=("adaptive", "fixed"),
        help="adaptive quality ladder vs a fixed (--lod/--quant) tier",
    )
    serving.add_argument(
        "--lod",
        type=_nonnegative_int,
        default=0,
        help="fixed-policy LOD level (ignored with --policy adaptive)",
    )
    serving.add_argument(
        "--quant",
        default="lossless",
        choices=sorted(QUANT_SPECS),
        help="fixed-policy quantization tier (ignored with --policy adaptive)",
    )
    serving.add_argument(
        "--ladder",
        default="default",
        choices=("default", "fast"),
        help=(
            "adaptive quality ladder: 'default' is the float64 (lod, quant) "
            "ladder; 'fast' interleaves float32 fast-path rungs that trade "
            "bitwise reproducibility (PSNR-floored vs the float64 oracle) "
            "for throughput before giving up fidelity (ignored with "
            "--policy fixed; tilewise dataflow only)"
        ),
    )
    serving.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        help="farm worker lanes (0 or 1 = sequential farm)",
    )
    serving.add_argument(
        "--max-shards",
        type=_positive_int,
        default=1,
        help=(
            "most tile-range shards the dispatcher may split one frame "
            "into to rescue a latency-critical request (1 = never shard; "
            "sharded output merges bitwise-exactly, so this costs no "
            "quality; tilewise dataflow only)"
        ),
    )
    serving.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        help="admission bound on waiting requests",
    )
    serving.add_argument(
        "--window",
        type=_positive_int,
        default=16,
        help="SLO controller sliding window (completed requests)",
    )
    serving.add_argument(
        "--dataflow",
        default="tilewise",
        choices=DATAFLOWS,
        help="rendering dataflow of dispatched jobs",
    )
    serving.add_argument(
        "--quick",
        action="store_true",
        help="serve the reduced quick presets (smoke runs)",
    )
    serving.add_argument(
        "--execute",
        action="store_true",
        help="really render every dispatched job through the farm",
    )


def _add_fleet_arguments(fleet) -> None:
    """Fleet size, placement, scaling, fairness and failure injection."""
    fleet.add_argument(
        "--executors",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "serve over a fleet of N executors with cache-aware routing "
            "(default: one executor, reported without the fleet and tenant "
            "tables; with --execute each fleet member gets its own named "
            "render executor)"
        ),
    )
    fleet.add_argument(
        "--routing",
        default="affinity",
        choices=ROUTINGS,
        help=(
            "fleet placement policy: consistent-hash cache affinity with a "
            "cost-model tiebreak (default), seeded random, or least-loaded "
            "(requires --executors)"
        ),
    )
    fleet.add_argument(
        "--autoscale",
        action="store_true",
        help=(
            "grow/shrink the fleet against queue depth and SLO headroom on "
            "the virtual clock (cold starts cost time; requires --executors)"
        ),
    )
    fleet.add_argument(
        "--autoscale-max",
        type=_positive_int,
        default=8,
        metavar="N",
        help="most executors --autoscale may grow to",
    )
    fleet.add_argument(
        "--fair",
        action="store_true",
        help=(
            "weighted-fair per-tenant dispatch ordering instead of pure "
            "priority/EDF (requires --executors)"
        ),
    )
    fleet.add_argument(
        "--tenant-quota",
        type=_positive_float,
        default=None,
        metavar="SHARE",
        help=(
            "shed a tenant's requests beyond this share (0, 1] of consumed "
            "fleet worker-time (requires --fair)"
        ),
    )
    fleet.add_argument(
        "--fail-executor",
        action="append",
        default=None,
        metavar="T_MS:ID",
        help=(
            "inject an executor failure at virtual time T_MS: the in-flight "
            "request requeues onto survivors and the executor's warm state "
            "is lost (repeatable; requires --executors)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Serve a seeded synthetic workload through the multi-tenant "
            "SLO-aware request scheduler."
        ),
    )
    _add_workload_arguments(parser.add_argument_group("workload"))
    _add_serving_arguments(parser.add_argument_group("serving"))
    _add_fleet_arguments(parser.add_argument_group("fleet"))
    output = parser.add_argument_group("output")
    output.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    output.add_argument(
        "--events",
        action="store_true",
        help="include the full decision event log in the report (implies --json)",
    )
    add_telemetry_arguments(
        output,
        parser.add_argument_group("telemetry"),
        trace_help=(
            "write a trace of the run to PATH as Chrome trace_event JSON "
            "(open in Perfetto / chrome://tracing, analyse with repro-obs); "
            "decision-plane spans use the virtual clock, data-plane spans "
            "(with --execute) the wall clock"
        ),
        alerts_help=(
            "evaluate the JSON alert rules at PATH against this run's "
            "decision log (deterministic on the virtual clock); exit 3 "
            "if any rule is firing at the end of the run"
        ),
    )
    return parser


def build_controller(args: argparse.Namespace) -> SLOController:
    """The SLO controller the parsed arguments describe."""
    policy = QoSPolicy(
        adaptive=args.policy == "adaptive",
        window=args.window,
        min_samples=max(1, args.window // 2),
    )
    if args.policy == "adaptive":
        ladder = FAST_LADDER if args.ladder == "fast" else DEFAULT_LADDER
    else:
        ladder = ((args.lod, args.quant),)
    return SLOController(policy=policy, ladder=ladder, log=EventLog())


def format_report(report: ScheduleReport) -> str:
    """Render a :class:`ScheduleReport` as a human-readable text report."""
    summary = report.summary()
    requests = summary["requests"]
    latency = summary["latency_ms"]
    mode = "adaptive ladder" if report.qos_policy.adaptive else "fixed tier"
    lines = [
        f"Scheduler run: arrival={report.spec.arrival} "
        f"offered={summary['offered_rps']:.2f} rps over {report.spec.duration_s:.1f} s   "
        f"clients={report.spec.num_clients}   slo={report.spec.slo_ms:.0f} ms   "
        f"policy={mode} ({' > '.join(summary['policy']['ladder'])})",
        f"  requests: {requests['offered']} offered   "
        f"{requests['completed']} completed   {requests['shed']} shed   "
        f"{requests['rejected']} rejected",
        f"  slo attainment: {summary['slo_attainment']:.1%}   "
        f"goodput: {summary['goodput_rps']:.2f} rps   "
        f"shed rate: {summary['shed_rate']:.1%}",
        f"  e2e latency: p50 {latency['e2e_p50']:.1f} ms   "
        f"p95 {latency['e2e_p95']:.1f} ms   max {latency['e2e_max']:.1f} ms   "
        f"(queue wait p95 {latency['queue_wait_p95']:.1f} ms)",
        f"  decisions: " + (
            "   ".join(f"{k}={v}" for k, v in summary["decisions"].items()) or "none"
        ),
        f"  dispatch warmth: {summary['dispatch']['cold']} cold   "
        f"{summary['dispatch']['warm']} warm (first touch of a tier ships+decodes; "
        f"warm dispatches reuse resident scenes)",
    ]
    fleet = summary.get("fleet")
    if fleet is not None:
        lines.append(
            f"  fleet: routing={fleet['routing']}   "
            f"executors {fleet['executors_initial']} -> {fleet['executors_final']} "
            f"(peak {fleet['executors_peak']})   "
            f"scale +{fleet['scale_ups']}/-{fleet['scale_downs']}   "
            f"failures {fleet['failures']} ({fleet['requeues']} requeued)   "
            f"modeled ship {fleet['ship_bytes']} B"
        )
        if fleet["placements"]:
            lines.append(
                "  placements: "
                + "   ".join(
                    f"{name}={count}" for name, count in fleet["placements"].items()
                )
            )
    if summary["executed"]:
        measured = summary["measured"]
        lines.append(
            f"  data plane: {measured['frames']} frames rendered   "
            f"measured frame p50 {measured['frame_p50_ms']:.1f} ms   "
            f"p95 {measured['frame_p95_ms']:.1f} ms"
        )
        residency = measured.get("data_plane") or {}
        if residency:
            lines.append(
                f"  data-plane residency: {residency['cache_hits']} scene-cache hits   "
                f"{residency['cache_misses']} misses   "
                f"{residency['ship_bytes']} B published   "
                f"{residency['loaded_bytes']} B worker-loaded"
            )
    lines += [
        "",
        format_table(
            ["tier", "requests served"],
            sorted(summary["tier_histogram"].items()),
            title="Tier histogram",
        ),
    ]
    tenants = summary.get("tenant_usage")
    if tenants:
        lines += [
            "",
            format_table(
                ["tenant", "requests", "frames", "ship bytes", "worker-s"],
                [
                    (
                        f"client-{tenant}",
                        usage["requests"],
                        usage["frames"],
                        usage["ship_bytes"],
                        f"{usage['worker_seconds']:.3f}",
                    )
                    for tenant, usage in tenants.items()
                ],
                title="Tenant usage",
            ),
        ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = WorkloadSpec(
        arrival=args.arrival,
        rate_rps=args.rate,
        duration_s=args.duration,
        num_clients=args.clients,
        scenes=tuple(args.scenes),
        zipf_s=args.zipf_s,
        frame_choices=tuple(args.frames_mix),
        slo_ms=args.slo_ms,
        seed=args.seed,
    )
    telemetry = TelemetrySession(args, parser)
    qos = build_controller(args)
    fleet = build_fleet_policy(args, parser)
    try:
        policy = SchedulerPolicy(
            num_workers=args.workers,
            max_queue=args.max_queue,
            dataflow=args.dataflow,
            max_shards=args.max_shards,
        )
        check_ladder(policy.dataflow, qos.ladder)
    except ValueError as exc:
        parser.error(str(exc))
    with RequestScheduler(
        policy=policy,
        qos=qos,
        quick=args.quick,
        execute=args.execute,
        obs=telemetry.obs,
        fleet=fleet,
    ) as scheduler, telemetry.live(scheduler.live_metrics, scheduler.health):
        report = run_workload(spec, scheduler)
        # Health must be read while the pool is alive (close() empties it).
        health = scheduler.health()
    telemetry.export()

    alerts = None
    if args.alerts:
        from repro.obs.alerts import samples_from_schedule_log

        alerts = evaluate_alerts(args.alerts, samples_from_schedule_log(report.log.events))

    if args.json or args.events:
        summary = report.summary(include_events=args.events)
        if summary["measured"] is not None and health is not None:
            summary["measured"]["health"] = health
        if alerts is not None:
            summary["alerts"] = alerts
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_report(report))
        if health is not None:
            states = health["states"]
            print(
                f"  data-plane health: {health['mode']} mode   "
                f"{states['live']} live   {states['slow']} slow   "
                f"{states['stalled']} stalled   "
                f"{health['workers_replaced']} replaced"
            )
        if alerts is not None:
            print(alerts_line(alerts))
    return EXIT_ALERTS_FIRING if alerts is not None and alerts["firing"] else 0


if __name__ == "__main__":
    sys.exit(main())
