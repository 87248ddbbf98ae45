"""Request scheduler: admission, EDF dispatch, accounting, determinism."""

from __future__ import annotations

import json

import pytest

from repro.eval.scenes import eval_preset
from repro.gaussians.synthetic import make_scene
from repro.sched.qos import QoSPolicy, SLOController
from repro.sched.scheduler import (
    RequestScheduler,
    SchedulerPolicy,
    ServiceModel,
    run_workload,
)
from repro.sched.workload import Request, WorkloadSpec
from repro.store.lod import select_lod


def request(
    request_id: int,
    arrival_ms: float = 0.0,
    priority: int = 1,
    slo_ms: float = 500.0,
    num_frames: int = 2,
) -> Request:
    return Request(
        request_id=request_id,
        client_id=request_id % 2,
        priority=priority,
        arrival_ms=arrival_ms,
        scene="train",
        trajectory_kind="orbit",
        num_frames=num_frames,
        view_index=0,
        traj_seed=0,
        slo_ms=slo_ms,
    )


SPEC = WorkloadSpec(duration_s=10.0)


def fresh_scheduler(**kwargs) -> RequestScheduler:
    kwargs.setdefault("qos", SLOController())
    return RequestScheduler(**kwargs)


class TestServiceModel:
    def test_gaussian_count_matches_built_scene(self):
        model = ServiceModel()
        preset = eval_preset("train", quick=True)
        scene = make_scene(preset.name, scale=preset.scale)
        assert model.num_gaussians("train", quick=True, lod=0) == scene.num_gaussians
        assert (
            model.num_gaussians("train", quick=True, lod=2)
            == select_lod(scene, 2).num_gaussians
        )

    def test_lod_cuts_frame_cost(self):
        model = ServiceModel()
        costs = [model.frame_ms("train", quick=False, lod=k) for k in range(4)]
        assert costs == sorted(costs, reverse=True)

    def test_cheaper_quant_cuts_job_cost(self):
        model = ServiceModel()
        req = request(0, num_frames=4)
        lossless = model.job_ms(req, (0, "lossless"), workers=1, quick=False)
        compact = model.job_ms(req, (0, "compact"), workers=1, quick=False)
        assert compact < lossless

    def test_workers_cut_job_cost_by_waves(self):
        model = ServiceModel()
        req = request(0, num_frames=8)
        one = model.job_ms(req, (0, "lossless"), workers=1, quick=False)
        four = model.job_ms(req, (0, "lossless"), workers=4, quick=False)
        frame = model.frame_ms("train", quick=False, lod=0)
        assert one - four == pytest.approx(6 * frame)


class TestDispatchWarmth:
    """The cold/warm split of the dispatch overhead (persistent executor)."""

    def test_warm_dispatch_skips_ship_cost(self):
        from repro.store.codec import quant_spec

        model = ServiceModel()
        req = request(0, num_frames=4)
        cold = model.job_ms(req, (0, "lossless"), workers=1, quick=False)
        warm = model.job_ms(req, (0, "lossless"), workers=1, quick=False, warm=True)
        frames = 4 * model.frame_ms("train", quick=False, lod=0)
        gaussians = model.num_gaussians("train", quick=False, lod=0)
        ship_mb = quant_spec("lossless").bytes_per_gaussian() * gaussians / 1e6
        assert warm == pytest.approx(model.dispatch_warm_ms + frames)
        assert cold == pytest.approx(
            model.dispatch_cold_ms + model.ship_ms_per_mb * ship_mb + frames
        )
        assert warm < cold

    def test_first_dispatch_cold_then_warm(self):
        requests = [request(i, arrival_ms=1000.0 * i) for i in range(3)]
        report = fresh_scheduler().run(requests, SPEC)
        dispatches = [e for e in report.log.events if e["event"] == "dispatch"]
        assert [e["warm"] for e in dispatches] == [False, True, True]
        assert report.dispatch_counts == {"cold": 1, "warm": 2}
        assert report.summary()["dispatch"] == {"cold": 1, "warm": 2}
        # The warm completions finished faster in virtual time.
        cold_outcome, *warm_outcomes = report.outcomes
        assert all(
            o.service_ms < cold_outcome.service_ms for o in warm_outcomes
        )

    def test_distinct_scenes_are_separately_cold(self):
        import dataclasses as dc

        requests = [
            request(0, arrival_ms=0.0),
            dc.replace(request(1, arrival_ms=1000.0), scene="truck"),
            request(2, arrival_ms=2000.0),
            dc.replace(request(3, arrival_ms=3000.0), scene="truck"),
        ]
        report = fresh_scheduler().run(requests, SPEC)
        assert report.dispatch_counts == {"cold": 2, "warm": 2}

    def test_warmth_resets_between_runs(self):
        scheduler = fresh_scheduler()
        first = scheduler.run([request(0)], SPEC)
        second = scheduler.run([request(0)], SPEC)
        assert first.dispatch_counts == {"cold": 1, "warm": 0}
        assert second.dispatch_counts == {"cold": 1, "warm": 0}


class TestVirtualScheduling:
    def test_underload_completes_everything_within_slo(self):
        # One request at a time, generous SLO: nothing queues, sheds or misses.
        requests = [request(i, arrival_ms=1000.0 * i) for i in range(5)]
        report = fresh_scheduler().run(requests, SPEC)
        assert [o.status for o in report.outcomes] == ["completed"] * 5
        assert report.slo_attainment == 1.0
        assert report.shed_rate == 0.0
        assert all(o.queue_wait_ms == 0.0 for o in report.outcomes)
        assert report.log.counts()["admit"] == 5

    def test_priority_class_preempts_queue_order(self):
        # r0 occupies the server; r1 (standard) then r2 (premium) wait.
        requests = [
            request(0, arrival_ms=0.0),
            request(1, arrival_ms=1.0, priority=1),
            request(2, arrival_ms=2.0, priority=0),
        ]
        report = fresh_scheduler().run(requests, SPEC)
        order = [e["request"] for e in report.log.events if e["event"] == "dispatch"]
        assert order == [0, 2, 1]

    def test_edf_within_priority_class(self):
        # Same class: the tighter absolute deadline dispatches first.
        requests = [
            request(0, arrival_ms=0.0),
            request(1, arrival_ms=1.0, slo_ms=5000.0),
            request(2, arrival_ms=2.0, slo_ms=800.0),
        ]
        report = fresh_scheduler().run(requests, SPEC)
        order = [e["request"] for e in report.log.events if e["event"] == "dispatch"]
        assert order == [0, 2, 1]

    def test_queue_bound_rejects_overflow(self):
        policy = SchedulerPolicy(max_queue=2)
        requests = [request(i, arrival_ms=float(i) * 0.01) for i in range(8)]
        report = fresh_scheduler(policy=policy).run(requests, SPEC)
        statuses = {o.status for o in report.outcomes}
        assert "rejected" in statuses
        rejected = [e for e in report.log.events if e["event"] == "reject"]
        assert all(e["reason"] == "queue_full" for e in rejected)

    def test_hopeless_deadline_is_shed(self):
        # Tight SLO, long job: even the cheapest tier cannot make it.
        requests = [
            request(0, arrival_ms=0.0, num_frames=8),
            request(1, arrival_ms=1.0, slo_ms=10.0, num_frames=8),
        ]
        report = fresh_scheduler().run(requests, SPEC)
        assert report.outcomes[1].status == "shed"
        shed = next(e for e in report.log.events if e["event"] == "shed")
        assert shed["reason"] == "deadline_infeasible"
        assert shed["projected_ms"] > 10.0

    def test_e2e_is_wait_plus_service(self):
        requests = [request(i, arrival_ms=float(i)) for i in range(4)]
        report = fresh_scheduler().run(requests, SPEC)
        for outcome in report.outcomes:
            assert outcome.e2e_ms == pytest.approx(
                outcome.queue_wait_ms + outcome.service_ms
            )

    def test_tight_deadline_demotes_per_request(self):
        # Idle server, but the SLO is too tight for the controller's
        # lossless rung: the dispatcher demotes this one request down the
        # ladder just far enough, records where it came from, and the
        # modeled service then fits the deadline.
        tight = [request(0, arrival_ms=0.0, slo_ms=60.0, num_frames=8)]
        report = fresh_scheduler().run(tight, SPEC)
        outcome = report.outcomes[0]
        assert outcome.status == "completed"
        assert outcome.tier != (0, "lossless")
        assert outcome.slo_met
        dispatch = next(e for e in report.log.events if e["event"] == "dispatch")
        assert dispatch["demoted_from"] == "lod0/lossless"
        assert dispatch["tier"] != "lod0/lossless"

    def test_generous_deadline_keeps_controller_rung(self):
        report = fresh_scheduler().run([request(0, slo_ms=5000.0)], SPEC)
        assert report.outcomes[0].tier == (0, "lossless")
        dispatch = next(e for e in report.log.events if e["event"] == "dispatch")
        assert "demoted_from" not in dispatch

    def test_premium_arrival_not_shed_behind_standard_queue(self):
        # A deep standard-tenant queue must not count against a premium
        # arrival's feasibility projection: the dispatcher will jump the
        # premium request over all of it, so admission may only charge the
        # running job plus queued work that actually outranks it.
        requests = [request(i, arrival_ms=float(i) * 0.1, num_frames=8) for i in range(10)]
        requests.append(
            request(10, arrival_ms=2.0, priority=0, slo_ms=250.0, num_frames=2)
        )
        report = fresh_scheduler().run(requests, SPEC)
        premium = report.outcomes[10]
        assert premium.status == "completed"
        assert premium.slo_met
        # It was dispatched immediately after the running job finished.
        order = [e["request"] for e in report.log.events if e["event"] == "dispatch"]
        assert order.index(10) == 1

    def test_fixed_policy_on_full_ladder_never_demotes(self):
        # adaptive=False is the documented fixed-tier baseline even on a
        # multi-rung ladder: no per-request demotion, and admission sheds
        # against the pinned rung, not the ladder's cheap end.
        qos = SLOController(policy=QoSPolicy(adaptive=False))
        spec = WorkloadSpec(arrival="bursty", rate_rps=14.0, duration_s=30.0, seed=0)
        report = run_workload(spec, fresh_scheduler(qos=qos))
        assert set(report.tier_histogram()) == {"lod0/lossless"}
        dispatches = [e for e in report.log.events if e["event"] == "dispatch"]
        assert all("demoted_from" not in e for e in dispatches)
        sheds = [e for e in report.log.events if e["event"] == "shed"]
        assert sheds, "overload should shed under the fixed tier"
        assert all(e["cheapest_tier"] == "lod0/lossless" for e in sheds)

    def test_overload_degrades_tiers_adaptively(self):
        # Bursty overload: burst episodes push windowed p95 into violation,
        # walking the global ladder down (and back up between bursts).
        spec = WorkloadSpec(
            arrival="bursty", rate_rps=12.0, duration_s=30.0, seed=0
        )
        qos = SLOController(
            policy=QoSPolicy(
                window=8, min_samples=4, cooldown=2, degrade_at=0.9, upgrade_at=0.45
            )
        )
        report = run_workload(spec, fresh_scheduler(qos=qos))
        assert any(e["event"] == "tier_down" for e in report.log.events)
        assert len(report.tier_histogram()) > 1


class TestDeterminism:
    def test_same_seed_reproduces_decision_log(self):
        spec = WorkloadSpec(arrival="bursty", rate_rps=12.0, duration_s=15.0, seed=9)

        def run_once():
            return run_workload(spec, fresh_scheduler())

        first, second = run_once(), run_once()
        assert first.log.events == second.log.events
        assert first.summary(include_events=True) == second.summary(
            include_events=True
        )

    def test_reused_scheduler_instance_replays_identically(self):
        # run() resets the controller (rung, window) and installs a fresh
        # log, so back-to-back runs on ONE scheduler are independent: the
        # second run must match the first, and the first run's log must not
        # grow while the second runs.
        spec = WorkloadSpec(arrival="bursty", rate_rps=12.0, duration_s=15.0, seed=9)
        scheduler = fresh_scheduler()
        first = run_workload(spec, scheduler)
        first_events = list(first.log.events)
        second = run_workload(spec, scheduler)
        assert first.log.events == first_events
        assert second.log.events == first_events
        assert first.summary() == second.summary()


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        spec = WorkloadSpec(rate_rps=10.0, duration_s=15.0, seed=4)
        return run_workload(spec, fresh_scheduler())

    def test_summary_is_json_serialisable(self, report):
        payload = report.summary(include_events=True)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["requests"]["offered"] == len(report.outcomes)

    def test_summary_schema(self, report):
        summary = report.summary()
        assert set(summary) == {
            "workload",
            "policy",
            "requests",
            "offered_rps",
            "goodput_rps",
            "slo_attainment",
            "shed_rate",
            "latency_ms",
            "tier_histogram",
            "dispatch",
            "decisions",
            "num_events",
            "makespan_s",
            "executed",
            "measured",
        }
        assert summary["measured"] is None  # virtual run has no data plane
        assert set(summary["dispatch"]) == {"cold", "warm"}

    def test_request_accounting_adds_up(self, report):
        counts = report.summary()["requests"]
        assert (
            counts["completed"] + counts["shed"] + counts["rejected"]
            == counts["offered"]
        )
        histogram_total = sum(report.tier_histogram().values())
        assert histogram_total == counts["completed"]

    def test_attainment_counts_deadline_met_completions(self, report):
        completed = report.completed
        met = sum(1 for o in completed if o.e2e_ms <= o.request.slo_ms)
        assert report.slo_attainment == pytest.approx(met / len(completed))


class TestExecutedDataPlane:
    def test_dispatched_jobs_really_render(self):
        spec = WorkloadSpec(
            rate_rps=4.0,
            duration_s=1.0,
            num_clients=2,
            scenes=("train",),
            frame_choices=(1, 2),
            seed=0,
        )
        scheduler = fresh_scheduler(
            policy=SchedulerPolicy(num_workers=0),
            quick=True,
            execute=True,
        )
        report = run_workload(spec, scheduler)
        completed = report.completed
        assert completed, "workload produced no requests"
        assert report.executed
        total_frames = sum(o.measured_frames for o in completed)
        assert total_frames == sum(o.request.num_frames for o in completed)
        assert len(report.measured_frame_ms) == total_frames
        assert all(o.measured_wall_ms > 0 for o in completed)
        measured = report.summary()["measured"]
        assert measured["frames"] == total_frames
        assert measured["frame_p95_ms"] >= measured["frame_p50_ms"] > 0


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_workers=-1),
            dict(max_queue=0),
            dict(shed_slack=0.0),
            dict(dataflow="vulkan"),
            dict(backend="cuda"),
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerPolicy(**kwargs)

    def test_sequential_farm_models_one_lane(self):
        assert SchedulerPolicy(num_workers=0).model_workers == 1
        assert SchedulerPolicy(num_workers=4).model_workers == 4
