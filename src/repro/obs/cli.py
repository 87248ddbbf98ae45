"""The telemetry flags ``repro-serve`` and ``repro-sched`` share.

Both CLIs take ``--trace-out`` / ``--metrics-out`` / ``--analyze-out`` /
``--alerts`` / ``--listen`` / ``--profile-memory`` and do the same things
with them; this is that one implementation.  What stays with each CLI is
what really differs: the sentences of help text that describe *its* run,
which samples the alert rules replay over (the scheduler's decision log;
the farm's final metrics), and what the scrape server reads from.
"""

from __future__ import annotations

import contextlib
import json
import sys

from repro.obs import (
    AlertEngine,
    CompositeObserver,
    MemoryAttributor,
    ObsContext,
    SpanStackTracker,
    StackSampler,
    TelemetryServer,
    analyze,
    export_metrics,
    export_trace,
    firing_rules,
    load_rules,
    parse_listen,
)

#: Exit status of a run whose ``--alerts`` rules are firing at its end —
#: distinct from argparse's 2 so scripts can tell "SLO violated" from "bad
#: usage".
EXIT_ALERTS_FIRING = 3


def add_telemetry_arguments(output, telemetry, *, trace_help: str, alerts_help: str) -> None:
    """Declare the four export flags on ``output`` and the two live-plane
    flags on ``telemetry`` (parsers or argument groups; may be one object),
    with the CLI's own help for ``--trace-out`` and ``--alerts``.
    """
    output.add_argument("--trace-out", metavar="PATH", help=trace_help)
    output.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write run metrics to PATH in Prometheus text exposition format",
    )
    output.add_argument(
        "--analyze-out",
        metavar="PATH",
        help=(
            "write the trace analysis (critical path, stage/lane breakdowns, "
            "timelines) of this run to PATH as JSON"
        ),
    )
    output.add_argument("--alerts", metavar="PATH", help=alerts_help)
    telemetry.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help=(
            "serve live telemetry over HTTP while the run executes: "
            "/metrics (Prometheus), /health (JSON), /trace.jsonl "
            "(incremental span tail), /profile?seconds=N (collapsed-stack "
            "CPU capture), / (timeline HTML); port 0 binds an ephemeral "
            "port (printed to stderr); implies an obs context"
        ),
    )
    telemetry.add_argument(
        "--profile-memory",
        action="store_true",
        help=(
            "additionally attribute allocations per kernel stage / decode "
            "span via tracemalloc (adds tracing overhead; surfaces in "
            "/profile?format=json; requires --listen)"
        ),
    )


class TelemetrySession:
    """What the shared flags ask for, for one CLI run.

    Construction validates them (``parser.error``) and creates :attr:`obs`
    when a flag needs an observability context — ``None`` otherwise, so an
    unobserved run stays unobserved.  ``obs_for_alerts`` is for a CLI
    whose alert rules read the obs metrics themselves.
    """

    def __init__(self, args, parser, obs_for_alerts: bool = False) -> None:
        if args.profile_memory and not args.listen:
            parser.error("--profile-memory requires --listen")
        #: ``(host, port)`` of ``--listen``, or ``None``.
        self.listen_addr = None
        if args.listen:
            try:
                self.listen_addr = parse_listen(args.listen)
            except ValueError as exc:
                parser.error(str(exc))
        exports = args.trace_out or args.metrics_out or args.analyze_out
        needs_obs = exports or args.listen or (obs_for_alerts and args.alerts)
        self.obs = ObsContext.create() if needs_obs else None
        self._args = args

    @contextlib.contextmanager
    def live(self, metrics_fn, health_fn):
        """Serve live telemetry around the block (nothing without ``--listen``).

        ``metrics_fn`` / ``health_fn`` are what ``/metrics`` / ``/health``
        read.  The profiling plane rides the tracer's observer slot: the
        span tracker tags CPU samples with the innermost kernel-stage
        span, and (``--profile-memory``) the memory attributor brackets
        the same spans with tracemalloc readings.  All of it reads
        measured values only — the zero-perturbation suite pins that
        attaching it changes no rendered bit and no scheduler decision.
        """
        if self.listen_addr is None:
            yield
            return
        tracker = SpanStackTracker()
        sampler = StackSampler(tracker=tracker)
        memory = None
        if self._args.profile_memory:
            memory = MemoryAttributor()
            memory.start()
            self.obs.tracer.observer = CompositeObserver(tracker, memory)
        else:
            self.obs.tracer.observer = tracker
        sampler.start()
        server = None
        try:
            server = TelemetryServer(
                *self.listen_addr,
                tracer=self.obs.tracer,
                metrics_fn=metrics_fn,
                health_fn=health_fn,
                sampler=sampler,
                memory=memory,
            ).start()
            print(f"telemetry: listening on http://{server.address}/", file=sys.stderr, flush=True)
            yield
        finally:
            if server is not None:
                server.stop()
            sampler.stop()
            if memory is not None:
                memory.stop()

    def export(self) -> None:
        """Write ``--trace-out`` / ``--metrics-out`` / ``--analyze-out``."""
        args, obs = self._args, self.obs
        if args.trace_out:
            export_trace(args.trace_out, obs.tracer)
        if args.metrics_out:
            export_metrics(args.metrics_out, obs.metrics)
        if args.analyze_out:
            with open(args.analyze_out, "w", encoding="utf-8") as fh:
                json.dump(analyze(obs.tracer.spans), fh, indent=2, sort_keys=True)
                fh.write("\n")


def evaluate_alerts(path: str, samples) -> dict:
    """Replay the JSON alert rules at ``path`` over ``samples`` (``(t_ms,
    metrics snapshot)`` pairs); the ``alerts`` block of the JSON reports."""
    with open(path, "r", encoding="utf-8") as fh:
        rules = load_rules(json.load(fh))
    log = AlertEngine(rules).evaluate(samples)
    return {"rules": len(rules), "log": log, "firing": firing_rules(log)}


def alerts_line(alerts: dict) -> str:
    """The text reports' one-line form of an :func:`evaluate_alerts` block."""
    firing = alerts["firing"]
    return f"  alerts FIRING: {', '.join(firing)}" if firing else "  alerts: none firing"


__all__ = [
    "EXIT_ALERTS_FIRING",
    "TelemetrySession",
    "add_telemetry_arguments",
    "alerts_line",
    "evaluate_alerts",
]
