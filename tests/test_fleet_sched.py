"""Fleet-mode scheduling: single-executor identity, routing, autoscale,
failure recovery, fairness/quota, and aggregate health."""

from __future__ import annotations

import json

from repro.fleet import AutoscalePolicy, FleetPolicy
from repro.sched.qos import SLOController
from repro.sched.scheduler import (
    OUTCOME_STATUSES,
    RequestScheduler,
    SchedulerPolicy,
    run_workload,
)
from repro.sched.workload import WorkloadSpec

#: A workload hot enough that placement quality matters: few scenes, a
#: bursty arrival process, and more offered work than one lane drains.
SPEC = WorkloadSpec(
    arrival="bursty",
    rate_rps=12.0,
    duration_s=8.0,
    num_clients=4,
    seed=0,
)


def fleet_report(spec=SPEC, fleet=None, **kwargs):
    kwargs.setdefault("policy", SchedulerPolicy(num_workers=4))
    kwargs.setdefault("qos", SLOController())
    return run_workload(spec, RequestScheduler(fleet=fleet, **kwargs))


def events_json(report, strip=()):
    events = [
        {key: value for key, value in event.items() if key not in strip}
        for event in report.log.events
    ]
    return json.dumps(events, sort_keys=True)


class TestSingleExecutorIdentity:
    """fleet=None is FleetPolicy() reported in the pre-fleet shape: the same
    decisions, minus the ``executor`` field and the two fleet summary keys."""

    def test_fleet_of_one_matches_legacy_decisions(self):
        legacy = fleet_report(fleet=None)
        fleet = fleet_report(fleet=FleetPolicy(num_executors=1))
        assert events_json(fleet, strip=("executor",)) == events_json(legacy)

    def test_fleet_of_one_matches_legacy_outcomes(self):
        legacy = fleet_report(fleet=None)
        fleet = fleet_report(fleet=FleetPolicy(num_executors=1))
        for a, b in zip(legacy.outcomes, fleet.outcomes):
            assert (a.request.request_id, a.status, a.e2e_ms, a.tier, a.slo_met) == (
                b.request.request_id,
                b.status,
                b.e2e_ms,
                b.tier,
                b.slo_met,
            )

    def test_default_summary_has_no_fleet_keys(self):
        legacy = fleet_report(fleet=None)
        summary = legacy.summary()
        assert "fleet" not in summary
        assert "tenant_usage" not in summary

    def test_fleet_summary_adds_exactly_two_keys(self):
        legacy = set(fleet_report(fleet=None).summary())
        fleet = set(fleet_report(fleet=FleetPolicy(num_executors=1)).summary())
        assert fleet - legacy == {"fleet", "tenant_usage"}


class TestFleetRoutingRuns:
    def test_events_carry_executor_lanes(self):
        report = fleet_report(fleet=FleetPolicy(num_executors=4))
        dispatches = [e for e in report.log.events if e["event"] == "dispatch"]
        assert dispatches
        executors = {e["executor"] for e in dispatches}
        assert executors <= {f"executor-{i}" for i in range(4)}
        assert len(executors) > 1  # work actually spreads over the fleet
        completes = [e for e in report.log.events if e["event"] == "complete"]
        assert all("executor" in e for e in completes)

    def test_replay_is_byte_identical(self):
        first = fleet_report(fleet=FleetPolicy(num_executors=4))
        second = fleet_report(fleet=FleetPolicy(num_executors=4))
        assert events_json(first) == events_json(second)
        assert first.summary() == second.summary()

    def test_affinity_ships_fewer_bytes_than_random_at_equal_size(self):
        affinity = fleet_report(fleet=FleetPolicy(num_executors=4, routing="affinity"))
        random = fleet_report(fleet=FleetPolicy(num_executors=4, routing="random"))
        assert affinity.fleet["ship_bytes"] < random.fleet["ship_bytes"]
        assert affinity.goodput_rps >= random.goodput_rps

    def test_least_loaded_runs_and_balances(self):
        report = fleet_report(fleet=FleetPolicy(num_executors=3, routing="least-loaded"))
        assert report.fleet["routing"] == "least-loaded"
        assert sum(report.fleet["placements"].values()) > 0

    def test_fleet_summary_schema(self):
        report = fleet_report(fleet=FleetPolicy(num_executors=2))
        assert set(report.fleet) == {
            "routing",
            "executors_initial",
            "executors_final",
            "executors_peak",
            "autoscale",
            "fair",
            "scale_ups",
            "scale_downs",
            "failures",
            "requeues",
            "ship_bytes",
            "placements",
        }
        assert report.fleet["executors_initial"] == 2
        assert report.fleet["executors_final"] == 2
        assert report.fleet["failures"] == 0


class TestAutoscaling:
    FLEET = FleetPolicy(
        num_executors=1,
        autoscale=AutoscalePolicy(min_executors=1, max_executors=4),
    )

    def test_scales_up_under_pressure_and_back_down(self):
        spec = WorkloadSpec(arrival="bursty", rate_rps=20.0, duration_s=8.0, seed=0)
        report = fleet_report(spec, fleet=self.FLEET)
        assert report.fleet["scale_ups"] > 0
        assert report.fleet["executors_peak"] > 1
        assert report.fleet["scale_downs"] > 0
        ups = [e for e in report.log.events if e["event"] == "scale_up"]
        assert all("reason" in e and "available_at_ms" in e for e in ups)

    def test_autoscale_replay_is_byte_identical(self):
        spec = WorkloadSpec(arrival="bursty", rate_rps=20.0, duration_s=8.0, seed=0)
        first = fleet_report(spec, fleet=self.FLEET)
        second = fleet_report(spec, fleet=self.FLEET)
        assert events_json(first) == events_json(second)

    def test_cold_started_lane_eventually_serves(self):
        spec = WorkloadSpec(arrival="bursty", rate_rps=20.0, duration_s=8.0, seed=0)
        report = fleet_report(spec, fleet=self.FLEET)
        served = {
            e["executor"]
            for e in report.log.events
            if e["event"] == "dispatch"
        }
        assert "executor-1" in served  # a scaled-up lane took work


class TestExecutorFailure:
    FLEET = FleetPolicy(num_executors=2, failures=((2000.0, 0),))

    def test_failure_requeues_in_flight_work(self):
        report = fleet_report(fleet=self.FLEET)
        fails = [e for e in report.log.events if e["event"] == "executor_fail"]
        assert len(fails) == 1
        assert fails[0]["executor"] == "executor-0"
        assert report.fleet["failures"] == 1
        if fails[0]["in_flight"]:
            requeues = [e for e in report.log.events if e["event"] == "requeue"]
            assert len(requeues) == report.fleet["requeues"] > 0

    def test_every_request_still_terminates(self):
        report = fleet_report(fleet=self.FLEET)
        assert all(o.status in OUTCOME_STATUSES for o in report.outcomes)
        from repro.sched.workload import generate_workload

        assert len(report.outcomes) == len(generate_workload(SPEC))

    def test_no_dispatch_to_dead_executor_after_failure(self):
        report = fleet_report(fleet=self.FLEET)
        fail_ms = next(
            e["t_ms"] for e in report.log.events if e["event"] == "executor_fail"
        )
        late = [
            e
            for e in report.log.events
            if e["event"] == "dispatch" and e["t_ms"] > fail_ms
        ]
        assert late  # the survivor keeps serving
        assert all(e["executor"] != "executor-0" for e in late)

    def test_failure_replay_is_byte_identical(self):
        first = fleet_report(fleet=self.FLEET)
        second = fleet_report(fleet=self.FLEET)
        assert events_json(first) == events_json(second)

    def test_unknown_executor_failure_is_a_logged_noop(self):
        report = fleet_report(fleet=FleetPolicy(num_executors=2, failures=((2000.0, 9),)))
        fails = [e for e in report.log.events if e["event"] == "executor_fail"]
        assert fails and fails[0]["known"] is False
        assert report.fleet["failures"] == 0

    def test_autoscaler_replaces_failed_executor(self):
        fleet = FleetPolicy(
            num_executors=2,
            failures=((2000.0, 0),),
            autoscale=AutoscalePolicy(min_executors=2, max_executors=4),
        )
        report = fleet_report(fleet=fleet)
        ups = [
            e
            for e in report.log.events
            if e["event"] == "scale_up" and e["reason"] == "below_min"
        ]
        assert ups
        assert report.fleet["executors_final"] >= 2


class TestFairnessAndQuota:
    def test_fair_dispatch_meters_every_tenant(self):
        report = fleet_report(fleet=FleetPolicy(num_executors=2, fair=True))
        usage = report.tenant_usage
        assert usage
        for tenant in usage.values():
            assert set(tenant) == {"requests", "frames", "ship_bytes", "worker_seconds"}
        dispatched = sum(t["requests"] for t in usage.values())
        dispatches = [e for e in report.log.events if e["event"] == "dispatch"]
        assert dispatched == len(dispatches)

    def test_weights_skew_service_toward_heavy_tenants(self):
        spec = WorkloadSpec(
            arrival="bursty", rate_rps=24.0, duration_s=8.0, num_clients=2, seed=0
        )

        def share(report):
            usage = report.tenant_usage
            total = sum(t["worker_seconds"] for t in usage.values())
            return usage["0"]["worker_seconds"] / total

        flat = fleet_report(spec, fleet=FleetPolicy(num_executors=1, fair=True))
        weighted = fleet_report(
            spec,
            fleet=FleetPolicy(
                num_executors=1, fair=True, tenant_weights={0: 8.0, 1: 0.25}
            ),
        )
        # Weighting tenant 0 up must grow its share of served worker-time
        # relative to the equal-weights run of the same workload.
        assert share(weighted) > share(flat)

    def test_quota_sheds_over_limit_tenants(self):
        spec = WorkloadSpec(
            arrival="bursty", rate_rps=24.0, duration_s=8.0, num_clients=2, seed=0
        )
        report = fleet_report(
            spec, fleet=FleetPolicy(num_executors=1, fair=True, tenant_quota=0.55)
        )
        quota_sheds = [
            e
            for e in report.log.events
            if e["event"] == "shed" and e.get("reason") == "quota_exceeded"
        ]
        assert quota_sheds
        # No tenant's consumed share may exceed the quota.
        total = sum(t["worker_seconds"] for t in report.tenant_usage.values())
        for tenant in report.tenant_usage.values():
            assert tenant["worker_seconds"] <= 0.55 * total + 1e-9

    def test_fair_replay_is_byte_identical(self):
        fleet = FleetPolicy(num_executors=2, fair=True, tenant_quota=0.8)
        first = fleet_report(fleet=fleet)
        second = fleet_report(fleet=fleet)
        assert events_json(first) == events_json(second)


class TestFleetDataPlane:
    """execute=True spins up one real RenderExecutor per lane."""

    SPEC = WorkloadSpec(rate_rps=6.0, duration_s=2.0, num_clients=2, seed=0)

    def scheduler(self, **kwargs):
        from repro.obs import ObsContext

        kwargs.setdefault("obs", ObsContext.create())
        return RequestScheduler(
            policy=SchedulerPolicy(num_workers=0),
            qos=SLOController(),
            execute=True,
            quick=True,
            fleet=FleetPolicy(num_executors=2),
            **kwargs,
        )

    def test_health_aggregates_across_executors(self):
        scheduler = self.scheduler()
        try:
            report = run_workload(self.SPEC, scheduler)
            assert len(report.measured_frame_ms) > 0
            health = scheduler.health()
            assert health["mode"] == "fleet"
            assert health["num_executors"] == 2
            assert set(health["executors"]) <= {"executor-0", "executor-1"}
            for name, sub in health["executors"].items():
                assert sub["executor"] == name
        finally:
            scheduler.close()

    def test_live_metrics_aggregate_without_double_counting(self):
        scheduler = self.scheduler()
        try:
            report = run_workload(self.SPEC, scheduler)
            metrics = scheduler.live_metrics()
            frames = metrics.value("repro_frames_rendered_total")
            assert frames == len(report.measured_frame_ms)
        finally:
            scheduler.close()
