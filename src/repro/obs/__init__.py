"""Pipeline-wide observability: tracing, metrics, structured events.

A deliberate *leaf* package — stdlib only, imports nothing from the rest
of ``repro`` — so every layer (render kernels, executor, farm, scheduler)
can depend on it without cycles.

Design contract: observability is a pure side-channel.  Enabling tracing
or metrics must not change a single rendered bit or scheduler decision —
spans are recorded *from* measured or already-decided values, decision
events are teed through log sinks, and the zero-perturbation test suite
(``tests/test_obs_zero_perturbation.py``) enforces it.

Usage::

    from repro.obs import ObsContext

    obs = ObsContext.create()
    with RenderExecutor(num_workers=2, obs=obs) as executor:
        executor.submit(job).result()
    export_trace("trace.json", obs.tracer)      # Perfetto / chrome://tracing
    export_metrics("metrics.prom", obs.metrics) # Prometheus text
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.alerts import AlertEngine, AlertRule, firing_rules, load_rules
from repro.obs.analysis import analyze, critical_path, diff_analyses, load_trace
from repro.obs.events import StructuredEventLog
from repro.obs.exporters import (
    chrome_trace,
    export_metrics,
    export_trace,
    parse_prometheus_snapshot,
    parse_prometheus_text,
    prometheus_text,
    validate_chrome_trace,
)
from repro.obs.health import Watchdog
from repro.obs.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    monotonic_ms,
)
from repro.obs.profile import (
    KERNEL_STAGES,
    SpanStackTracker,
    StackSampler,
    attribute_stages,
    collapse_text,
)
from repro.obs.resources import ResourceSampler, resources_from_snapshot
from repro.obs.server import TelemetryServer, parse_listen
from repro.obs.trace import VIRTUAL, WALL, Tracer, TracerStageHook

__all__ = [
    "ObsContext",
    "Tracer",
    "TracerStageHook",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "StructuredEventLog",
    "WALL",
    "VIRTUAL",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_BYTE_BUCKETS",
    "chrome_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "parse_prometheus_snapshot",
    "validate_chrome_trace",
    "export_trace",
    "export_metrics",
    "AlertEngine",
    "AlertRule",
    "Watchdog",
    "analyze",
    "critical_path",
    "diff_analyses",
    "firing_rules",
    "load_rules",
    "load_trace",
    "monotonic_ms",
    "KERNEL_STAGES",
    "SpanStackTracker",
    "StackSampler",
    "attribute_stages",
    "collapse_text",
    "ResourceSampler",
    "resources_from_snapshot",
    "TelemetryServer",
    "parse_listen",
]


@dataclass
class ObsContext:
    """One tracer + one metrics registry, handed through the pipeline.

    The executor, farm, scheduler and CLIs all accept ``obs=None`` (off,
    zero overhead) or an ``ObsContext``; workers build their own private
    context per process and ship drained records back over the result
    pipe, so a single ``ObsContext`` in the parent ends up holding the
    whole pipeline's trace with per-worker lane attribution.
    """

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def create(cls, origin: str = "main", default_lane: str = "main") -> "ObsContext":
        return cls(tracer=Tracer(origin=origin, default_lane=default_lane))
