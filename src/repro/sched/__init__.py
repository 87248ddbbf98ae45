"""Multi-tenant request scheduling: synthetic traffic, SLOs, adaptive quality.

This package is the serving layer's *control plane*.  PR 2's render farm
executes one pre-built job; PR 3's scene store prices quality in
``(lod, quant)`` tiers; this subsystem adds the traffic, the contention and
the policy that connect them:

* :mod:`repro.sched.workload` — seeded open-loop traffic generation:
  Poisson / bursty (Markov-modulated) arrivals, Zipf scene popularity,
  per-client trajectory and frame-count mixes.  Deterministic per seed.
* :mod:`repro.sched.scheduler` — the admission-controlled
  :class:`~repro.sched.scheduler.RequestScheduler` and its optional real
  data plane (overlapping :class:`~repro.serve.trajectories.RenderJob`\\ s
  on persistent :class:`~repro.exec.executor.RenderExecutor`\\ s);
  :mod:`repro.sched.run` is its deterministic virtual-clock decision
  plane, one handler per event, :mod:`repro.sched.model` the
  :class:`~repro.sched.model.ServiceModel` pricing it (warm/cold
  dispatch split included), :mod:`repro.sched.report` what a run returns.
* :mod:`repro.sched.qos` — the
  :class:`~repro.sched.qos.SLOController`: windowed-p95 monitoring, the
  quality tier ladder, hysteresis, load shedding, and the structured
  :class:`~repro.sched.qos.EventLog` every decision is recorded in.
* ``python -m repro.sched`` (also installed as ``repro-sched``) — the
  command-line front end emitting text/JSON reports (goodput, SLO
  attainment, shed rate, tier histogram).

Quickstart::

    from repro.sched import RequestScheduler, WorkloadSpec, run_workload

    spec = WorkloadSpec(arrival="bursty", rate_rps=8.0, duration_s=30.0)
    report = run_workload(spec, RequestScheduler())
    print(report.slo_attainment, report.tier_histogram())
"""

from repro.sched.qos import (
    DEFAULT_LADDER,
    EventLog,
    QoSPolicy,
    SLOController,
    tier_name,
)
from repro.sched.scheduler import (
    RequestOutcome,
    RequestScheduler,
    ScheduleReport,
    SchedulerPolicy,
    ServiceModel,
    run_workload,
)
from repro.sched.workload import (
    ARRIVAL_KINDS,
    ClientProfile,
    Request,
    WorkloadSpec,
    client_profiles,
    generate_workload,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ClientProfile",
    "DEFAULT_LADDER",
    "EventLog",
    "QoSPolicy",
    "Request",
    "RequestOutcome",
    "RequestScheduler",
    "SLOController",
    "ScheduleReport",
    "SchedulerPolicy",
    "ServiceModel",
    "WorkloadSpec",
    "client_profiles",
    "generate_workload",
    "run_workload",
    "tier_name",
]
