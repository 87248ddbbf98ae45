"""``repro-obs`` — analyze traces and metrics, evaluate SLO alert rules.

The read side of the observability plane as a CLI.  Feed it the
artifacts the other CLIs write (``--trace-out``/``--metrics-out``) and
it answers the diagnosis questions: where the latency went (critical
path, stage/lane breakdowns, occupancy/queue timelines), what regressed
between two runs (``--diff-trace``), and whether the run violated
declarative SLO rules (``--alerts rules.json``).

Examples::

    repro-sched --rate 6 --duration 2 --execute --quick \\
        --trace-out trace.json --metrics-out metrics.prom
    repro-obs --trace trace.json --metrics metrics.prom \\
        --alerts rules.json --analyze-out analysis.json

Open ``trace.json`` itself in Perfetto for the timeline view.

Exit codes: 0 = OK (analysis ran, no alert firing), 3 = at least one
alert rule firing at the end of the evaluated timeline, 2 = usage error
— bad flags, or an input file that cannot be read or parsed.
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
from repro.obs.cli import EXIT_ALERTS_FIRING, alerts_report, read_alert_rules
from repro.obs.exporters import parse_prometheus_snapshot
from repro.obs.resources import resources_from_snapshot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Analyze repro traces/metrics and evaluate SLO alert rules.",
    )
    parser.add_argument("--trace", help="Chrome trace JSON file (what --trace-out writes)")
    parser.add_argument("--metrics", help="Prometheus text metrics file")
    parser.add_argument(
        "--diff-trace", help="baseline trace file to diff the fresh analysis against"
    )
    parser.add_argument("--alerts", help="JSON file with a list of alert rules")
    parser.add_argument(
        "--analyze-out", help="write the full analysis report (JSON) here"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON instead of text"
    )
    return parser


#: Each input flag's ``args`` attribute and the loader of its file.
_INPUTS = (
    ("trace", load_trace),
    ("metrics", lambda path: parse_prometheus_snapshot(Path(path).read_text(encoding="utf-8"))),
    ("diff_trace", load_trace),
    ("alerts", read_alert_rules),
)


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
    if report.get("alerts") is not None:
        lines += _format_alerts(report["alerts"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.trace and not args.metrics:
        parser.error("need --trace and/or --metrics")
    if args.diff_trace and not args.trace:
        parser.error("--diff-trace requires --trace")

    # A file that cannot be read or parsed is a usage error (exit 2).  Only
    # loading is guarded: a fault in the analysis below still raises.
    inputs = {}
    for dest, loader in _INPUTS:
        path = getattr(args, dest)
        if path:
            try:
                inputs[dest] = loader(path)
            except (OSError, ValueError) as exc:
                parser.error(f"--{dest.replace('_', '-')} {path}: {exc}")

    report: dict = {}
    records = inputs.get("trace", [])
    if args.trace:
        report["analysis"] = analyze(records)

    metrics_snapshot = inputs.get("metrics")
    if metrics_snapshot is not None:
        resources = resources_from_snapshot(metrics_snapshot)
        if resources:
            report["resources"] = resources

    if args.diff_trace:
        report["diff"] = diff_analyses(analyze(inputs["diff_trace"]), report["analysis"])

    exit_code = 0
    if args.alerts:
        report["alerts"] = alerts_report(
            inputs["alerts"], _alert_samples(records, metrics_snapshot)
        )
        if report["alerts"]["firing"]:
            exit_code = EXIT_ALERTS_FIRING

    if args.analyze_out:
        with open(args.analyze_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_format_text(report))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
