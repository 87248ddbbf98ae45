"""Multi-tenant request scheduler: admission, queueing, dispatch, accounting.

:class:`RequestScheduler` consumes a :mod:`repro.sched.workload` request
stream and serves it over a fleet of executors under an SLO controller.
The design splits two planes:

* **Decision plane (virtual clock, deterministic).**  Arrivals, admission
  control, queueing, placement, dispatch order and the QoS controller all
  run on an event-driven simulation whose service durations come from a
  deterministic analytic :class:`~repro.sched.model.ServiceModel`
  (per-frame cost from the preset's Gaussian count at the request's LOD,
  pixel count, and the quant tier's shipping bytes).  Every decision is
  therefore a pure function of the workload seed and the configuration —
  identical seeds replay identical event logs, which is what makes SLO
  experiments comparable across machines and runs.
* **Data plane (optional, real).**  With ``execute=True`` every dispatched
  request is additionally *submitted* to the persistent
  :class:`~repro.exec.executor.RenderExecutor` mirroring the lane the
  decision plane placed it on, at exactly the ``(lod, quant)`` tier it
  chose — jobs overlap across the executor's worker slots, scenes stay
  resident in the long-lived workers, and per-frame completions stream
  back through ``on_frame``.  Measured wall/frame times are drained after
  the virtual loop and recorded alongside the modeled ones (they never
  feed back into decisions — that would trade replayability for
  machine-local noise).

The decision plane is :class:`~repro.sched.run.ScheduleRun` — one object
per run, one method per event kind — and it has **one dispatch path**: the
fleet dispatcher.  A scheduler built without a
:class:`~repro.fleet.FleetPolicy` runs it over a fleet of one executor
(with one lane every routing policy picks the same lane) and merely
reports in the pre-fleet shape; ``tests/test_sched_golden.py`` pins those
decision logs.  This module is what callers configure and call: the
policy, the scheduler, and its data-plane executors.

The service model mirrors the executor's residency: the *first* dispatch
of a ``(scene, lod, quant)`` tier onto an executor is costed cold
(``dispatch_cold_ms`` plus encoded-payload shipping), every later dispatch
of that tier there is warm (``dispatch_warm_ms``, nothing shipped).  Warmth
is a pure function of the decision sequence, so identical seeds still
replay identical logs.

Scheduling discipline: admitted requests wait in a priority/deadline queue
— strict priority classes (premium tenants first), earliest absolute
deadline within a class, or weighted-fair across tenants when the fleet
policy asks for it — and each executor serves one job at a time with its
``num_workers`` frame-parallel lanes, which is exactly the contention that
makes admission control and adaptive tiering necessary.

Admission control (:meth:`~repro.sched.run.ScheduleRun.arrive`) rejects
an arrival beyond ``max_queue`` waiting requests and sheds one whose
projected latency, even at the *cheapest* ladder tier behind the current
backlog, misses its deadline — the load-shedding half of the QoS story.
At dispatch the tier is chosen **per request**
(:meth:`~repro.sched.run.ScheduleRun.plan`): the controller's current
rung, sharded and then demoted only as far as the remaining deadline slack
requires; a request that no longer fits even the cheapest rung is shed at
the head of the queue (:meth:`~repro.sched.run.ScheduleRun.offer`).
Demotion and the late shed belong to the *adaptive* controller — the
fixed-tier baseline serves blindly at its pinned rung.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.executor import RenderExecutor
from repro.exec.frames import DATAFLOWS, FrameSpec, check_shards
from repro.fleet import FleetPolicy
from repro.obs import MetricsRegistry, ObsContext
from repro.sched.model import ServiceModel
from repro.sched.qos import EventLog, SLOController, Tier, tier_dtype, tier_lod, tier_quant
from repro.sched.report import OUTCOME_STATUSES, RequestOutcome, ScheduleReport
from repro.sched.run import ScheduleRun
from repro.sched.workload import Request, WorkloadSpec
from repro.serve.trajectories import RenderJob, make_trajectory


@dataclass(frozen=True)
class SchedulerPolicy:
    """Capacity and queueing knobs of the scheduler."""

    #: Frame-parallel lanes of each executor (0/1 = sequential; the
    #: virtual clock models ``max(1, num_workers)`` lanes either way).
    num_workers: int = 1
    #: Admission bound on waiting requests (beyond it arrivals are rejected).
    max_queue: int = 64
    #: Shed when the cheapest-tier projection exceeds ``shed_slack x SLO``.
    shed_slack: float = 1.0
    dataflow: str = "tilewise"
    #: Most tile-range shards the dispatcher may split one frame into to
    #: rescue a latency-critical request (1 = never shard, the historical
    #: behaviour).  Sharding costs no quality — shard outputs merge
    #: bitwise-exactly — so the dispatcher prefers it over rung demotion.
    max_shards: int = 1

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.shed_slack <= 0:
            raise ValueError("shed_slack must be positive")
        if self.dataflow not in DATAFLOWS:
            raise ValueError(f"dataflow must be one of {DATAFLOWS}")
        if self.max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        check_shards(self.dataflow, self.max_shards)

    @property
    def model_workers(self) -> int:
        """Lanes the virtual clock models (a sequential executor is one lane)."""
        return max(1, self.num_workers)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
def check_ladder(dataflow: str, ladder) -> None:
    """Raise ``ValueError`` unless every ladder tier is a frame ``dataflow`` renders."""
    for tier in ladder:
        FrameSpec(
            dataflow=dataflow,
            lod=tier_lod(tier),
            quant=tier_quant(tier),
            dtype=tier_dtype(tier),
        )


class RequestScheduler:
    """Admission-controlled multi-tenant scheduler over a fleet of executors.

    Parameters
    ----------
    policy:
        Capacity/queueing knobs (:class:`SchedulerPolicy`).
    qos:
        The :class:`~repro.sched.qos.SLOController` choosing tiers and
        shedding hopeless requests.  Defaults to an adaptive controller on
        the default ladder; pass a one-rung ladder (or
        ``QoSPolicy(adaptive=False)``) for a fixed-tier baseline.
    service_model:
        The deterministic :class:`ServiceModel` of the virtual clock.
    quick:
        Serve the reduced quick presets (tests, smoke runs).
    execute:
        Also render every dispatched job for real: one
        :class:`~repro.exec.executor.RenderExecutor` of
        ``policy.num_workers`` workers per fleet lane, built by the
        scheduler, kept across runs — that is the warm-pool point — and
        shut down in :meth:`close`.
    obs:
        Optional :class:`~repro.obs.ObsContext`: decision events are teed
        into its tracer as virtual-clock instants, completed requests
        become virtual request/queue_wait/service spans per client lane,
        and the data-plane executors inherit it for wall-clock tracing.  A
        pure side-channel — decisions and logs are unchanged by it.
    fleet:
        The :class:`~repro.fleet.FleetPolicy` shaping the control plane:
        cache-aware (or random / least-loaded) placement over per-executor
        warm state, optional autoscaling, weighted-fair tenant dispatch
        with quotas, and injected executor failures.  ``None`` (the
        default) means ``FleetPolicy()`` — one executor, same decisions —
        *reported in the pre-fleet shape*: no ``executor`` field on
        ``dispatch``/``complete`` events, no ``fleet``/``tenant_usage``
        summary keys, no ``repro_sched_fleet_*`` series, no per-executor
        virtual span, and an unnamed data-plane executor; every log,
        summary, metrics export and trace recorded before fleets existed
        therefore still replays byte for byte.
    """

    def __init__(
        self,
        policy: SchedulerPolicy | None = None,
        qos: SLOController | None = None,
        service_model: ServiceModel | None = None,
        quick: bool = False,
        execute: bool = False,
        obs: ObsContext | None = None,
        fleet: FleetPolicy | None = None,
    ) -> None:
        self.policy = policy or SchedulerPolicy()
        #: Fleet shape/placement policy of every run.
        self.fleet_policy = fleet if fleet is not None else FleetPolicy()
        #: The one thing ``fleet=None`` still selects: whether reports,
        #: events, series and lane names carry the fleet's vocabulary.
        self._fleet_shape = fleet is not None
        self._obs = obs
        self.qos = qos if qos is not None else SLOController()
        # Fail at construction, not at the first execute-mode dispatch.
        check_ladder(self.policy.dataflow, self.qos.ladder)
        self.model = service_model or ServiceModel()
        self.quick = quick
        self.execute = execute
        #: Data-plane executors by fleet lane id (``execute=True`` only),
        #: kept across runs.  The starting fleet's are built here (their
        #: worker pools start lazily); autoscaled lanes get theirs at
        #: their first dispatch.
        self._data_executors: dict[int, RenderExecutor] = {}
        #: Fleet lane ids whose real executor was failure-injected down.
        self._killed_executors: set[int] = set()
        if execute:
            for lane_id in range(self.fleet_policy.num_executors):
                self._data_executor(lane_id)
        #: The active run's per-run registry (set by :meth:`run`); read by
        #: :meth:`live_metrics` so a scraper sees decision-plane counters
        #: while the run is still executing.
        self._run_metrics: MetricsRegistry | None = None

    def close(self) -> None:
        """Shut down the data-plane executors."""
        for lane_id, data_executor in sorted(self._data_executors.items()):
            if lane_id not in self._killed_executors:
                data_executor.shutdown(wait=True)

    def health(self) -> dict | None:
        """Live health of the data plane (None on virtual-only runs).

        In the pre-fleet report shape this is the one executor's own
        :meth:`RenderExecutor.health` — worker states from the report-only
        watchdog plus queue depth.  Otherwise it aggregates *every*
        data-plane executor: summed pending tasks, worker states and
        replacements across the fleet, plus each member's full report
        under its ``executor-N`` name, so the telemetry server reports the
        whole fleet.  Call before :meth:`close` (the pools' slots empty at
        shutdown).
        """
        if not self._data_executors:
            return None
        if not self._fleet_shape:
            return self._data_executors[0].health()
        members = {
            f"executor-{lane_id}": data_executor.health()
            for lane_id, data_executor in sorted(self._data_executors.items())
        }
        states: dict[str, int] = {}
        for report in members.values():
            for state, count in report["states"].items():
                states[state] = states.get(state, 0) + count
        return {
            "mode": "fleet",
            "num_executors": len(members),
            "pending_tasks": sum(r["pending_tasks"] for r in members.values()),
            "states": states,
            "workers_replaced": sum(
                r["workers_replaced"] for r in members.values()
            ),
            "executors": members,
        }

    def live_metrics(self) -> MetricsRegistry:
        """One merged registry of everything this scheduler can see *now*.

        Combines the obs context's registry (every data-plane executor
        shares it, so it is merged once), each executor's latest
        per-worker snapshots (disjoint series — worker labels carry the
        executor name — so nothing double-counts), the cache hit ratio
        derived from them, and the active run's decision-plane counters.
        Built fresh per call into a throwaway registry — a pure read,
        safe to call from the telemetry server's scrape threads mid-run.
        """
        registry = MetricsRegistry()
        if self._obs is not None:
            registry.merge(self._obs.metrics.snapshot())
        for _, data_executor in sorted(self._data_executors.items()):
            for snapshot in data_executor.worker_metrics():
                registry.merge(snapshot)
        hits = registry.value("repro_scene_cache_hits_total") or 0
        misses = registry.value("repro_scene_cache_misses_total") or 0
        if hits + misses:
            registry.gauge("repro_cache_hit_ratio").set(hits / (hits + misses))
        run_metrics = self._run_metrics
        if run_metrics is not None:
            registry.merge(run_metrics.snapshot())
        return registry

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, requests: list[Request], spec: WorkloadSpec) -> ScheduleReport:
        """Serve ``requests`` (a stream generated from ``spec``) to completion.

        Runs the event-driven virtual-clock loop (:class:`ScheduleRun`):
        arrivals pass admission control into the priority/deadline queue,
        the fleet's executors (one job at a time each, ``num_workers``
        lanes) serve them in EDF-within-priority order, and every
        completion feeds the SLO controller.  Returns the full
        :class:`ScheduleReport`; the decision log is ``report.log`` and is
        identical across same-seed runs.
        """
        # Every run starts from a clean controller (rung 0, empty window),
        # a fresh decision log and a fresh router, so a reused scheduler
        # instance replays identical seeds into identical logs; read the
        # run's events via ``report.log``.
        self.qos.reset(EventLog())
        run = ScheduleRun(self, requests, spec)
        self._run_metrics = run.metrics
        run.loop()
        return run.report()

    def build_job(self, request: Request, tier: Tier, shards: int = 1) -> RenderJob:
        """The concrete render job serving ``request`` at ``tier``.

        The decision plane's whole plan crosses into the data plane here:
        the tier's scene ``(lod, quant)``, its engine ``dtype`` and the
        dispatcher's shard count all land on the
        :class:`~repro.serve.trajectories.RenderJob`, so an executed
        schedule renders exactly what the virtual clock costed.
        """
        trajectory = make_trajectory(
            request.trajectory_kind,
            num_frames=request.num_frames,
            view_index=request.view_index,
            seed=request.traj_seed,
        )
        return RenderJob(
            scene=request.scene,
            trajectory=trajectory,
            quick=self.quick,
            dataflow=self.policy.dataflow,
            lod=tier[0],
            quant=tier[1],
            shards=max(1, shards),
            dtype=tier_dtype(tier),
        )

    def _data_executor(self, lane_id: int) -> RenderExecutor:
        """The real executor mirroring fleet lane ``lane_id`` (lazy).

        One :class:`RenderExecutor` per decision-plane lane, kept across
        runs (the warm-pool point) and rebuilt fresh if a failure
        injection killed the previous incumbent — the data-plane analogue
        of the executor's own worker replacement.  Named after its lane
        (trace lanes ``executor-N/worker-K``, an ``executor`` label on
        per-worker series) unless the pre-fleet report shape is asked for.
        """
        data_executor = self._data_executors.get(lane_id)
        if data_executor is None or lane_id in self._killed_executors:
            data_executor = RenderExecutor(
                num_workers=self.policy.num_workers,
                name=f"executor-{lane_id}" if self._fleet_shape else None,
                obs=self._obs,
            )
            self._data_executors[lane_id] = data_executor
            self._killed_executors.discard(lane_id)
        return data_executor

    def _kill_data_executor(self, lane_id: int) -> None:
        """An injected failure of lane ``lane_id`` reaches the data plane."""
        dead = self._data_executors.get(lane_id)
        if dead is not None:
            # Abort, don't drain: unfinished handles fail and the run's
            # measured drain skips them.
            dead.shutdown(wait=False)
        self._killed_executors.add(lane_id)


def run_workload(
    spec: WorkloadSpec,
    scheduler: RequestScheduler | None = None,
) -> ScheduleReport:
    """Generate ``spec``'s request stream and serve it (convenience wrapper)."""
    from repro.sched.workload import generate_workload

    scheduler = scheduler or RequestScheduler()
    return scheduler.run(generate_workload(spec), spec)


__all__ = [
    "OUTCOME_STATUSES",
    "RequestOutcome",
    "RequestScheduler",
    "ScheduleReport",
    "SchedulerPolicy",
    "ServiceModel",
    "check_ladder",
    "run_workload",
]
