"""``repro-obs`` — analyze traces and metrics, evaluate SLO alert rules.

The read side of the observability plane as a CLI.  Feed it the
artifacts the other CLIs write (``--trace-out``/``--metrics-out``) and
it answers the diagnosis questions: where the latency went (critical
path, stage/lane breakdowns, occupancy/queue timelines), what regressed
between two runs (``--diff-trace``, or ``--baseline BENCH_<name>.json``
against a committed snapshot's embedded analysis), and whether the run
violated declarative SLO rules (``--alerts rules.json``).

Examples::

    repro-sched --rate 6 --duration 2 --execute --quick \\
        --trace-out trace.json --metrics-out metrics.prom
    repro-obs --trace trace.json --metrics metrics.prom \\
        --alerts rules.json --analyze-out analysis.json --html-out trace.html

Exit codes: 0 = OK (analysis ran, no alert firing), 3 = at least one
alert rule firing at the end of the evaluated timeline, 2 = usage error.
The non-zero alert exit is the CI contract: a smoke job can run a
tight burn-rate rule against a fresh trace and fail the build on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.alerts import samples_from_schedule_log
from repro.obs.analysis import analyze, diff_analyses, events_from_trace, load_trace
from repro.obs.cli import EXIT_ALERTS_FIRING, evaluate_alerts
from repro.obs.exporters import export_html, parse_prometheus_snapshot
from repro.obs.resources import diff_resources, resources_from_snapshot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Analyze repro traces/metrics and evaluate SLO alert rules.",
    )
    parser.add_argument("--trace", help="trace file (Chrome JSON or spans .jsonl)")
    parser.add_argument("--metrics", help="Prometheus text metrics file")
    parser.add_argument(
        "--diff-trace", help="baseline trace file to diff the fresh analysis against"
    )
    parser.add_argument(
        "--diff-metrics",
        help="baseline Prometheus metrics file to diff per-worker resources "
        "(CPU%%, RSS, ctx switches) against",
    )
    parser.add_argument(
        "--baseline",
        help="committed BENCH_<name>.json with an embedded 'analysis' to diff "
        "against — a file path, or a bare guard name like 'obs_overhead'",
    )
    parser.add_argument("--alerts", help="JSON file with a list of alert rules")
    parser.add_argument(
        "--analyze-out", help="write the full analysis report (JSON) here"
    )
    parser.add_argument(
        "--html-out", help="write a self-contained HTML timeline report here"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON instead of text"
    )
    return parser


def _resolve_baseline(spec: str) -> str:
    """A ``--baseline`` value as a path: verbatim if it exists, else the
    committed ``BENCH_<name>.json`` looked up in cwd and the repo root."""
    if Path(spec).exists():
        return spec
    name = f"BENCH_{spec}.json"
    for directory in (Path.cwd(), Path(__file__).resolve().parents[3]):
        candidate = directory / name
        if candidate.exists():
            return str(candidate)
    return spec  # let open() raise with the original spelling


def _alert_samples(records: list[dict], metrics_snapshot: list | None) -> list[tuple]:
    """The timeline the alert engine evaluates.

    A sched trace carries the decision log as virtual instants, so it
    replays into a full cumulative metric timeline (multi-window burn
    rates get history); the metrics snapshot, when given, is appended as
    the final cumulative sample — it is the run's end state, and it
    brings the data-plane series (render/decode histograms, cache
    counters) that the decision log alone cannot reconstruct.
    """
    samples: list[tuple] = []
    events = events_from_trace(records) if records else []
    if events:
        samples = samples_from_schedule_log(events)
    if metrics_snapshot is not None:
        t_last = samples[-1][0] if samples else 0.0
        samples.append((t_last, metrics_snapshot))
    return samples


def _format_analysis(analysis: dict) -> list[str]:
    cp = analysis["critical_path"]
    lines = [
        f"critical path  root={cp['root_name']} total={cp['total_ms']:.3f} ms "
        f"({len(cp['steps'])} steps, leaf={cp.get('leaf')})"
    ]
    for step in cp["steps"]:
        lines.append(
            f"  {step['name']:<12} {step['dur_ms']:>10.3f} ms  "
            f"self {step['self_ms']:>10.3f} ms  [{step['lane']}]"
            + (f"  ERROR: {step['error']}" if step.get("error") else "")
        )
    attribution = analysis["stages"]["frame_attribution"]
    lines.append(
        f"frame time     {attribution['frame_ms']:.3f} ms, "
        f"{100.0 * attribution['attributed_fraction']:.1f}% in kernel stages "
        + " ".join(f"{k}={v:.3f}" for k, v in attribution["per_stage"].items())
    )
    lanes = analysis["lanes"]
    lines.append(f"lanes          window {lanes['window_ms']:.3f} ms")
    for lane, info in lanes["lanes"].items():
        lines.append(
            f"  {lane:<12} busy {info['busy_ms']:>10.3f} ms  "
            f"util {100.0 * info['utilization']:>5.1f}%  ({info['spans']} spans)"
        )
    occupancy = analysis["worker_occupancy"]
    queue = analysis["queue_depth"]
    lines.append(
        f"occupancy      max {occupancy['max']} mean {occupancy['mean']:.3f}; "
        f"queue depth max {queue['max']} mean {queue['mean']:.3f}"
    )
    if analysis["lanes_closed"]:
        lines.append(f"lanes closed   {', '.join(analysis['lanes_closed'])}")
    return lines


def _format_diff(diff: dict) -> list[str]:
    cp = diff["critical_path_ms"]
    lines = [
        f"diff           critical path {cp['base']:.3f} -> {cp['current']:.3f} ms "
        f"({cp['delta']:+.3f} ms)"
    ]
    for name in diff["regressions"]:
        d = diff["stages"][name]
        lines.append(
            f"  regressed    {name:<12} {d['base_ms']:.3f} -> "
            f"{d['current_ms']:.3f} ms ({d['delta_ms']:+.3f} ms)"
        )
    if not diff["regressions"]:
        lines.append("  no stage regressed")
    if diff["attribution"]:
        lines.append(f"  attribution  {diff['attribution']}")
    return lines


def _format_resources(resources: dict) -> list[str]:
    lines = ["worker resources"]
    for worker, info in resources["workers"].items():
        cpu = "?" if info["cpu_percent"] is None else f"{info['cpu_percent']:.1f}%"
        rss = "?" if info["rss_bytes"] is None else f"{info['rss_bytes'] / (1 << 20):.1f} MiB"
        ctx = info.get("ctx_switches", {})
        lines.append(
            f"  worker {worker:<4} cpu {cpu:>7}  rss {rss:>10}  "
            f"ctx v={ctx.get('voluntary', 0):.0f} i={ctx.get('involuntary', 0):.0f}"
        )
    return lines


def _format_resources_diff(resources_diff: dict) -> list[str]:
    lines = ["worker resources diff"]
    for worker, entry in resources_diff["workers"].items():
        if entry.get("base") is None or entry.get("current") is None:
            side = "base" if entry.get("base") is not None else "current"
            lines.append(f"  worker {worker:<4} only in {side} run")
            continue
        rss_delta = entry.get("rss_delta_bytes")
        cpu_delta = entry.get("cpu_delta_percent")
        rss = "n/a" if rss_delta is None else f"{rss_delta / (1 << 20):+.1f} MiB"
        cpu = "n/a" if cpu_delta is None else f"{cpu_delta:+.1f}%"
        lines.append(f"  worker {worker:<4} rss {rss}  cpu {cpu}")
    return lines


def _format_alerts(alerts: dict) -> list[str]:
    if alerts["firing"]:
        lines = [f"alerts FIRING  {', '.join(alerts['firing'])}"]
    else:
        lines = ["alerts         none firing"]
    for entry in alerts["log"]:
        lines.append(f"  {entry['t_ms']:>10.1f} ms  {entry['event']:<15} {entry['rule']}")
    return lines


def _format_text(report: dict) -> str:
    lines = []
    if report.get("analysis"):
        lines += _format_analysis(report["analysis"])
    if report.get("diff"):
        lines += _format_diff(report["diff"])
    if report.get("resources"):
        lines += _format_resources(report["resources"])
    if report.get("resources_diff"):
        lines += _format_resources_diff(report["resources_diff"])
    if report.get("alerts") is not None:
        lines += _format_alerts(report["alerts"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.trace and not args.metrics:
        build_parser().error("need --trace and/or --metrics")

    report: dict = {}
    records: list[dict] = []
    if args.trace:
        records = load_trace(args.trace)
        report["analysis"] = analyze(records)

    metrics_snapshot = None
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            metrics_snapshot = parse_prometheus_snapshot(fh.read())
        resources = resources_from_snapshot(metrics_snapshot)
        if resources:
            report["resources"] = resources

    if args.diff_metrics:
        if not args.metrics:
            build_parser().error("--diff-metrics requires --metrics")
        with open(args.diff_metrics, "r", encoding="utf-8") as fh:
            base_resources = resources_from_snapshot(
                parse_prometheus_snapshot(fh.read())
            )
        report["resources_diff"] = diff_resources(
            base_resources, report.get("resources", {})
        )

    if args.diff_trace or args.baseline:
        if not args.trace:
            build_parser().error("--diff-trace/--baseline require --trace")
        if args.diff_trace:
            base_analysis = analyze(load_trace(args.diff_trace))
        else:
            with open(_resolve_baseline(args.baseline), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            base_analysis = doc.get("analysis")
            if base_analysis is None:
                build_parser().error(
                    f"{args.baseline} has no embedded 'analysis' "
                    "(re-snapshot with perf_trajectory.py)"
                )
        report["diff"] = diff_analyses(base_analysis, report["analysis"])

    exit_code = 0
    if args.alerts:
        report["alerts"] = evaluate_alerts(args.alerts, _alert_samples(records, metrics_snapshot))
        if report["alerts"]["firing"]:
            exit_code = EXIT_ALERTS_FIRING

    if args.analyze_out:
        with open(args.analyze_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.html_out:
        if not records:
            build_parser().error("--html-out requires --trace")
        export_html(args.html_out, records, title=f"repro trace · {args.trace}")

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_format_text(report))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
