"""What a scheduler run returns: per-request outcomes and the aggregate report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import MetricsRegistry
from repro.sched.qos import EventLog, QoSPolicy, Tier, tier_name
from repro.sched.workload import Request, WorkloadSpec

if TYPE_CHECKING:
    from repro.sched.scheduler import SchedulerPolicy

#: Terminal status of a request in a schedule.
OUTCOME_STATUSES: tuple[str, ...] = ("completed", "shed", "rejected")


@dataclass
class RequestOutcome:
    """What happened to one request, on both planes."""

    request: Request
    status: str
    #: Tier the request was served at (``None`` when never dispatched).
    tier: Tier | None = None
    #: Tile-range shards each frame was split into (1 = whole frames).
    shards: int = 1
    queue_wait_ms: float | None = None
    service_ms: float | None = None
    e2e_ms: float | None = None
    slo_met: bool = False
    #: Real farm wall time when the data plane executed (else ``None``).
    measured_wall_ms: float | None = None
    measured_frames: int = 0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.array(values), q)) if values else 0.0


@dataclass
class ScheduleReport:
    """Aggregated result of one scheduler run over one workload."""

    spec: WorkloadSpec
    policy: SchedulerPolicy
    qos_policy: QoSPolicy
    ladder: tuple[Tier, ...]
    outcomes: list[RequestOutcome]
    log: EventLog
    executed: bool
    #: Real per-frame render latencies streamed off the executor (execute
    #: runs; completion order, frames of overlapping jobs interleaved).
    measured_frame_ms: list[float] = field(default_factory=list)
    #: Decision-plane dispatch warmth: how many dispatched jobs the service
    #: model costed cold (first touch of a ``(scene, lod, quant)`` tier)
    #: vs warm (tier already resident from an earlier dispatch).
    dispatch_counts: dict[str, int] = field(
        default_factory=lambda: {"cold": 0, "warm": 0}
    )
    #: Data-plane residency accounting aggregated off the executor
    #: (``None`` on virtual-only runs).
    data_plane: dict | None = None
    #: Per-run metrics registry (decision-plane counters/histograms:
    #: requests by status, dispatch warmth, per-tier served counts,
    #: queue-wait/service/e2e histograms).  ``None`` only for reports
    #: constructed by hand without a run.
    metrics: MetricsRegistry | None = None
    #: Fleet accounting (placements, scale/failure/requeue counts, modeled
    #: ship bytes).  ``None`` when the scheduler was built with
    #: ``fleet=None`` — the summary only grows fleet keys when a
    #: :class:`~repro.fleet.FleetPolicy` was asked for, so the historical
    #: payload shape is byte-identically preserved.
    fleet: dict | None = None
    #: Per-tenant usage metering (``None`` exactly when ``fleet`` is).
    tenant_usage: dict | None = None

    # ------------------------------------------------------------------
    @property
    def completed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.status == "completed"]

    @property
    def num_slo_met(self) -> int:
        return sum(1 for o in self.completed if o.slo_met)

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests that met their deadline."""
        done = self.completed
        return self.num_slo_met / len(done) if done else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests dropped rather than completed.

        Counts queue-full rejects, admission-time feasibility sheds *and*
        head-of-queue ``deadline_expired_in_queue`` sheds — every offered
        request that did not complete.
        """
        if not self.outcomes:
            return 0.0
        dropped = sum(1 for o in self.outcomes if o.status != "completed")
        return dropped / len(self.outcomes)

    @property
    def makespan_ms(self) -> float:
        """Virtual time from t=0 to the last completion (or last arrival)."""
        finish = [o.request.arrival_ms + (o.e2e_ms or 0.0) for o in self.outcomes]
        return max(finish) if finish else 0.0

    @property
    def goodput_rps(self) -> float:
        """SLO-met completions per second of virtual makespan."""
        span_s = self.makespan_ms / 1000.0
        return self.num_slo_met / span_s if span_s > 0 else 0.0

    def tier_histogram(self) -> dict[str, int]:
        """Dispatched requests per served tier (tier-name keyed, sorted).

        Served from the run's metrics registry (the per-tier counter the
        scheduler increments at each completion); reports built without a
        registry fall back to recounting the outcomes — both paths produce
        identical dicts.
        """
        if self.metrics is not None:
            return dict(
                sorted(
                    (labels["tier"], value)
                    for labels, value in self.metrics.labeled_values(
                        "repro_sched_tier_served_total"
                    )
                )
            )
        totals: dict[str, int] = {}
        for outcome in self.completed:
            key = tier_name(outcome.tier)
            totals[key] = totals.get(key, 0) + 1
        return dict(sorted(totals.items()))

    # ------------------------------------------------------------------
    def summary(self, include_events: bool = False) -> dict:
        """A JSON-serialisable report (the ``repro-sched`` CLI's payload)."""
        completed = self.completed
        e2e = [o.e2e_ms for o in completed]
        waits = [o.queue_wait_ms for o in completed]
        counts = {status: 0 for status in OUTCOME_STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        payload = {
            "workload": {
                "arrival": self.spec.arrival,
                "rate_rps": self.spec.rate_rps,
                "duration_s": self.spec.duration_s,
                "num_clients": self.spec.num_clients,
                "scenes": list(self.spec.scenes),
                "zipf_s": self.spec.zipf_s,
                "frame_choices": list(self.spec.frame_choices),
                "slo_ms": self.spec.slo_ms,
                "seed": self.spec.seed,
            },
            "policy": {
                "num_workers": self.policy.num_workers,
                "max_queue": self.policy.max_queue,
                "shed_slack": self.policy.shed_slack,
                "dataflow": self.policy.dataflow,
                "max_shards": self.policy.max_shards,
                "adaptive": self.qos_policy.adaptive,
                "window": self.qos_policy.window,
                "ladder": [tier_name(tier) for tier in self.ladder],
            },
            "requests": {
                "offered": len(self.outcomes),
                "completed": counts["completed"],
                "shed": counts["shed"],
                "rejected": counts["rejected"],
            },
            "offered_rps": len(self.outcomes) / self.spec.duration_s,
            "goodput_rps": self.goodput_rps,
            "slo_attainment": self.slo_attainment,
            "shed_rate": self.shed_rate,
            "latency_ms": {
                "queue_wait_p50": _percentile(waits, 50),
                "queue_wait_p95": _percentile(waits, 95),
                "e2e_p50": _percentile(e2e, 50),
                "e2e_p95": _percentile(e2e, 95),
                "e2e_max": max(e2e) if e2e else 0.0,
            },
            "tier_histogram": self.tier_histogram(),
            "dispatch": dict(self.dispatch_counts),
            "decisions": self.log.counts(),
            "num_events": len(self.log),
            "makespan_s": self.makespan_ms / 1000.0,
            "executed": self.executed,
            "measured": (
                {
                    "frames": len(self.measured_frame_ms),
                    "frame_p50_ms": _percentile(self.measured_frame_ms, 50),
                    "frame_p95_ms": _percentile(self.measured_frame_ms, 95),
                    "data_plane": self.data_plane,
                }
                if self.executed
                else None
            ),
        }
        if self.fleet is not None:
            # Fleet keys appear only when a fleet policy was passed:
            # ``fleet=None`` summaries (and their committed BENCH_*.json
            # baselines) keep the historical key set byte-for-byte.
            payload["fleet"] = dict(self.fleet)
            payload["tenant_usage"] = self.tenant_usage
        if include_events:
            payload["events"] = list(self.log.events)
        return payload


__all__ = ["OUTCOME_STATUSES", "RequestOutcome", "ScheduleReport"]
