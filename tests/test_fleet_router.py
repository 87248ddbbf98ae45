"""Fleet router, autoscaler, and tenant usage/fairness units."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.fleet import (
    Autoscaler,
    AutoscalePolicy,
    ExecutorLane,
    FairQueue,
    FleetPolicy,
    FleetRouter,
    ROUTINGS,
    UsageMeter,
)

KEY = ("train", (0, "lossless"))


def req(request_id: int = 0):
    return SimpleNamespace(request_id=request_id)


def flat_cost(lane):
    return 100.0


def warmth_cost(lane):
    """A cost model where lanes that touched KEY serve it 10x cheaper."""
    return 10.0 if KEY in lane.touched else 100.0


class TestFleetPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_executors": 0},
            {"routing": "round-robin"},
            {"tenant_quota": 0.5},  # quota without fair
            {"fair": True, "tenant_quota": 0.0},
            {"fair": True, "tenant_quota": 1.5},
            {"vnodes": 0},
            {"failures": ((100.0,),)},
            {"failures": ((float("nan"), 0),)},
            {"failures": ((float("inf"), 0),)},
            {"failures": ((-1.0, 0),)},
            {"failures": (("100", 0),)},
            {"failures": ((100.0, -1),)},
            {"failures": ((100.0, 0.5),)},
        ],
    )
    def test_rejects_bad_policies(self, kwargs):
        with pytest.raises(ValueError):
            FleetPolicy(**kwargs)

    def test_defaults_are_single_executor_affinity(self):
        policy = FleetPolicy()
        assert policy.num_executors == 1
        assert policy.routing == "affinity"
        assert policy.autoscale is None
        assert not policy.fair

    def test_routings_catalogue(self):
        assert ROUTINGS == ("affinity", "random", "least-loaded")


class TestAutoscalePolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_executors": 0},
            {"min_executors": 4, "max_executors": 2},
            {"interval_ms": 0},
            {"coldstart_ms": -1},
            {"idle_evals": 0},
        ],
    )
    def test_rejects_bad_policies(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalePolicy(**kwargs)


class TestExecutorLane:
    def test_free_at_tracks_busy_and_coldstart(self):
        lane = ExecutorLane(executor_id=0)
        assert lane.free_at() == 0.0
        lane.busy = True
        lane.busy_until = 500.0
        assert lane.free_at() == 500.0
        lane.busy = False
        lane.available_at = 800.0
        assert lane.free_at() == 800.0

    def test_name(self):
        assert ExecutorLane(executor_id=3).name == "executor-3"


class TestFleetRouter:
    def test_starts_with_policy_lanes_warm(self):
        router = FleetRouter(FleetPolicy(num_executors=3))
        assert sorted(router.lanes) == [0, 1, 2]
        assert router.ring.members == (0, 1, 2)
        assert router.peak_executors == 3
        assert all(lane.available_at == 0.0 for lane in router.active())

    def test_add_lane_ids_are_monotonic(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        router.remove_lane(0)
        lane = router.add_lane(1000.0, coldstart_ms=200.0)
        assert lane.executor_id == 2  # never reuses a retired id
        assert lane.available_at == 1200.0
        assert router.ring.members == (1, 2)

    def test_free_lanes_excludes_busy_and_cold(self):
        router = FleetRouter(FleetPolicy(num_executors=3))
        router.lanes[0].busy = True
        router.lanes[1].available_at = 500.0
        free = router.free_lanes(now=100.0)
        assert [lane.executor_id for lane in free] == [2]

    def test_earliest_free_ms(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        router.lanes[0].busy = True
        router.lanes[0].busy_until = 700.0
        router.lanes[1].busy = True
        router.lanes[1].busy_until = 300.0
        assert router.earliest_free_ms(now=100.0) == 300.0
        router.lanes[1].busy = False
        assert router.earliest_free_ms(now=100.0) == 100.0

    def test_place_returns_none_when_nothing_free(self):
        router = FleetRouter(FleetPolicy(num_executors=1))
        router.lanes[0].busy = True
        assert router.place(KEY, req(), 0.0, 1000.0, flat_cost) is None


class TestAffinityRouting:
    def test_free_preferred_wins_outright(self):
        router = FleetRouter(FleetPolicy(num_executors=4))
        preferred = router.ring.lookup(KEY)
        lane = router.place(KEY, req(), 0.0, 1000.0, flat_cost)
        assert lane.executor_id == preferred

    def test_same_key_same_executor(self):
        router = FleetRouter(FleetPolicy(num_executors=4))
        first = router.place(KEY, req(0), 0.0, 1000.0, flat_cost)
        second = router.place(KEY, req(1), 0.0, 1000.0, flat_cost)
        assert first.executor_id == second.executor_id

    def test_defers_for_warm_preferred_when_wait_pays(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        preferred = router.lanes[router.ring.lookup(KEY)]
        preferred.touched.add(KEY)
        preferred.busy = True
        preferred.busy_until = 50.0  # wait 50 + warm 10 < cold 100
        assert router.place(KEY, req(), 0.0, 1000.0, warmth_cost) is None

    def test_falls_back_when_wait_violates_slack(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        preferred = router.lanes[router.ring.lookup(KEY)]
        preferred.touched.add(KEY)
        preferred.busy = True
        preferred.busy_until = 50.0
        lane = router.place(KEY, req(), 0.0, 30.0, warmth_cost)
        assert lane is not None
        assert lane.executor_id != preferred.executor_id

    def test_falls_back_when_waiting_never_beats_cold(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        preferred = router.lanes[router.ring.lookup(KEY)]
        preferred.busy = True
        preferred.busy_until = 50.0  # not warm: wait 50 + 100 > cold 100
        lane = router.place(KEY, req(), 0.0, 1000.0, warmth_cost)
        assert lane is not None
        assert lane.executor_id != preferred.executor_id

    def test_fallback_prefers_warm_free_lane(self):
        router = FleetRouter(FleetPolicy(num_executors=3))
        preferred = router.lanes[router.ring.lookup(KEY)]
        preferred.busy = True
        preferred.busy_until = 1e6  # unreachable — must fall back
        others = [l for l in router.active() if l is not preferred]
        others[1].touched.add(KEY)
        lane = router.place(KEY, req(), 0.0, 0.0, warmth_cost)
        assert lane is others[1]


class TestBaselineRoutings:
    def test_random_is_seed_deterministic(self):
        a = FleetRouter(FleetPolicy(num_executors=4, routing="random", seed=7))
        b = FleetRouter(FleetPolicy(num_executors=4, routing="random", seed=7))
        picks_a = [a.place(KEY, req(i), 0.0, 0.0, flat_cost).executor_id for i in range(32)]
        picks_b = [b.place(KEY, req(i), 0.0, 0.0, flat_cost).executor_id for i in range(32)]
        assert picks_a == picks_b

    def test_random_spreads_a_hot_key(self):
        router = FleetRouter(FleetPolicy(num_executors=4, routing="random"))
        picks = {
            router.place(KEY, req(i), 0.0, 0.0, flat_cost).executor_id
            for i in range(64)
        }
        assert len(picks) > 1  # affinity would pin all 64 to one executor

    def test_least_loaded_picks_min_worker_ms(self):
        router = FleetRouter(FleetPolicy(num_executors=3, routing="least-loaded"))
        router.lanes[0].worker_ms = 500.0
        router.lanes[1].worker_ms = 100.0
        router.lanes[2].worker_ms = 300.0
        lane = router.place(KEY, req(), 0.0, 0.0, flat_cost)
        assert lane.executor_id == 1


class TestAutoscaler:
    def policy(self, **kwargs):
        kwargs.setdefault("min_executors", 1)
        kwargs.setdefault("max_executors", 4)
        kwargs.setdefault("idle_evals", 2)
        return AutoscalePolicy(**kwargs)

    def test_scale_up_on_queue_depth(self):
        router = FleetRouter(FleetPolicy(num_executors=1))
        scaler = Autoscaler(self.policy(queue_depth_per_executor=3.0))
        actions = scaler.evaluate(0.0, queue_depth=4, backlog_ms=0.0, slo_ms=500.0, router=router)
        assert actions == [("scale_up", 1, "queue_depth")]
        assert router.lanes[1].available_at == scaler.policy.coldstart_ms

    def test_scale_up_on_slo_headroom(self):
        router = FleetRouter(FleetPolicy(num_executors=1))
        scaler = Autoscaler(self.policy())
        actions = scaler.evaluate(0.0, queue_depth=1, backlog_ms=900.0, slo_ms=500.0, router=router)
        assert actions == [("scale_up", 1, "slo_headroom")]

    def test_at_most_one_scale_up_per_tick(self):
        router = FleetRouter(FleetPolicy(num_executors=1))
        scaler = Autoscaler(self.policy())
        actions = scaler.evaluate(0.0, queue_depth=50, backlog_ms=9999.0, slo_ms=500.0, router=router)
        assert len(actions) == 1

    def test_respects_max_executors(self):
        router = FleetRouter(FleetPolicy(num_executors=4))
        scaler = Autoscaler(self.policy())
        actions = scaler.evaluate(0.0, queue_depth=50, backlog_ms=0.0, slo_ms=500.0, router=router)
        assert actions == []

    def test_scale_down_needs_consecutive_idle_evals(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        scaler = Autoscaler(self.policy())
        assert scaler.evaluate(0.0, 0, 0.0, 500.0, router) == []
        actions = scaler.evaluate(250.0, 0, 0.0, 500.0, router)
        assert actions == [("scale_down", 1, "idle")]
        assert sorted(router.lanes) == [0]

    def test_busy_lane_resets_idle_streak(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        scaler = Autoscaler(self.policy())
        router.lanes[0].busy = True  # keep lane 0 out of the drain pool
        scaler.evaluate(0.0, 0, 0.0, 500.0, router)
        router.lanes[1].busy = True  # lane 1 works mid-streak: reset
        scaler.evaluate(250.0, 0, 0.0, 500.0, router)
        router.lanes[1].busy = False
        assert scaler.evaluate(500.0, 0, 0.0, 500.0, router) == []
        assert sorted(router.lanes) == [0, 1]
        # One more idle tick completes a fresh streak and retires lane 1.
        assert scaler.evaluate(750.0, 0, 0.0, 500.0, router) == [
            ("scale_down", 1, "idle")
        ]

    def test_never_drains_below_min(self):
        router = FleetRouter(FleetPolicy(num_executors=1))
        scaler = Autoscaler(self.policy())
        for tick in range(5):
            assert scaler.evaluate(tick * 250.0, 0, 0.0, 500.0, router) == []
        assert sorted(router.lanes) == [0]

    def test_restores_fleet_below_min_after_failure(self):
        router = FleetRouter(FleetPolicy(num_executors=2))
        scaler = Autoscaler(self.policy(min_executors=2))
        router.remove_lane(1)
        actions = scaler.evaluate(1000.0, 0, 0.0, 500.0, router)
        assert actions == [("scale_up", 2, "below_min")]
        assert router.lanes[2].available_at == 1000.0 + scaler.policy.coldstart_ms

    def test_retires_newest_idle_executor_first(self):
        router = FleetRouter(FleetPolicy(num_executors=3))
        scaler = Autoscaler(self.policy())
        scaler.evaluate(0.0, 0, 0.0, 500.0, router)
        actions = scaler.evaluate(250.0, 0, 0.0, 500.0, router)
        assert actions == [("scale_down", 2, "idle")]


class TestFairQueue:
    def test_charge_advances_by_weighted_service(self):
        fair = FairQueue({0: 2.0})
        fair.charge(0, 100.0)
        fair.charge(1, 100.0)
        assert fair.tag(0) == 50.0  # weight 2 pays half the virtual time
        assert fair.tag(1) == 100.0

    def test_activate_floors_stale_tags(self):
        fair = FairQueue()
        fair.charge(0, 10.0)
        fair.activate(0, floor=500.0)
        assert fair.tag(0) == 500.0
        fair.activate(0, floor=100.0)  # never lowers an up-to-date tag
        assert fair.tag(0) == 500.0

    def test_nonpositive_weight_falls_back_to_one(self):
        fair = FairQueue({0: 0.0})
        assert fair.weight(0) == 1.0


class TestUsageMeter:
    def test_dispatch_and_frames_accumulate(self):
        meter = UsageMeter()
        meter.record_dispatch(0, worker_ms=1000.0, ship_bytes=5000)
        meter.record_dispatch(0, worker_ms=500.0, ship_bytes=0)
        meter.record_frames(0, 12)
        summary = meter.summary()
        assert summary["0"] == {
            "requests": 2,
            "frames": 12,
            "ship_bytes": 5000,
            "worker_seconds": 1.5,
        }
        assert meter.total_ship_bytes == 5000

    def test_first_job_is_never_quota_shed(self):
        meter = UsageMeter()
        assert not meter.over_quota(0, worker_ms=1000.0, quota=0.1)

    def test_over_quota_on_projected_share(self):
        meter = UsageMeter()
        meter.record_dispatch(0, worker_ms=600.0, ship_bytes=0)
        meter.record_dispatch(1, worker_ms=400.0, ship_bytes=0)
        # Tenant 0 at 60%; another 200ms projects 800/1200 = 66.7%.
        assert meter.over_quota(0, worker_ms=200.0, quota=0.5)
        assert not meter.over_quota(1, worker_ms=200.0, quota=0.5)

    def test_summary_keys_are_sorted_strings(self):
        meter = UsageMeter()
        meter.record_dispatch(10, 1.0, 0)
        meter.record_dispatch(2, 1.0, 0)
        assert list(meter.summary()) == ["2", "10"]
