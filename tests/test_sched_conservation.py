"""Conservation laws of the scheduler, as properties over generated inputs.

Whatever the workload, the capacity policy and the fleet — routing,
fairness, autoscaling, injected failures — every offered request must end
in exactly one terminal status, the decision log must tell the same story
request by request and executor by executor, and the run must replay.
"""

from __future__ import annotations

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import ROUTINGS, AutoscalePolicy, FleetPolicy
from repro.sched.qos import EventLog, QoSPolicy, SLOController
from repro.sched.scheduler import OUTCOME_STATUSES, RequestScheduler, SchedulerPolicy
from repro.sched.workload import ARRIVAL_KINDS, WorkloadSpec, generate_workload

specs = st.builds(
    WorkloadSpec,
    arrival=st.sampled_from(ARRIVAL_KINDS),
    rate_rps=st.floats(min_value=2.0, max_value=40.0),
    duration_s=st.just(2.0),
    num_clients=st.integers(min_value=1, max_value=6),
    slo_ms=st.sampled_from([40.0, 100.0, 250.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
policies = st.builds(
    SchedulerPolicy,
    num_workers=st.integers(min_value=0, max_value=4),
    max_queue=st.sampled_from([1, 3, 8, 64]),
    max_shards=st.integers(min_value=1, max_value=4),
)
controllers = st.builds(
    QoSPolicy,
    adaptive=st.booleans(),
    window=st.just(8),
    min_samples=st.just(4),
    cooldown=st.just(2),
)


@st.composite
def fleets(draw):
    """``None`` or a fleet: 1-4 executors x routing x fair x autoscale x failures."""
    if draw(st.booleans()):
        return None
    executors = draw(st.integers(min_value=1, max_value=4))
    fair = draw(st.booleans())
    autoscale = draw(st.booleans())
    # Without an autoscaler a failure may not take the last executor (the
    # scheduler refuses to run on an empty fleet); with one, any id goes,
    # known or not, the same one twice included.
    fail_ids = st.integers(0, 5) if autoscale else st.integers(0, max(0, executors - 2))
    failures = draw(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=2500.0), fail_ids),
            max_size=2 if autoscale else min(2, executors - 1),
            unique_by=None if autoscale else (lambda event: event[1]),
        )
    )
    return FleetPolicy(
        num_executors=executors,
        routing=draw(st.sampled_from(ROUTINGS)),
        autoscale=(
            AutoscalePolicy(min_executors=executors, max_executors=executors + 2)
            if autoscale
            else None
        ),
        fair=fair,
        tenant_quota=draw(st.sampled_from([None, 0.5])) if fair else None,
        failures=tuple(failures),
        seed=draw(st.integers(0, 9)),
    )


def scheduler_for(policy, qos, fleet) -> RequestScheduler:
    return RequestScheduler(
        policy=policy, qos=SLOController(policy=qos, log=EventLog()), fleet=fleet
    )


def log_json(report, strip=()) -> str:
    return json.dumps(
        [{k: v for k, v in event.items() if k not in strip} for event in report.log.events],
        sort_keys=True,
    )


#: One request's life in the log: admitted, dispatched (and requeued by an
#: executor failure) any number of times, then completed once or shed from
#: the queue — or turned away on arrival.
LIFE = re.compile(r"admit (dispatch requeue )*(dispatch complete|shed)|shed|reject")
QUEUE_SHEDS = ("deadline_expired_in_queue", "quota_exceeded")


@settings(max_examples=200, deadline=None)
@given(specs, policies, controllers, fleets())
def test_every_request_settles_once_and_the_log_agrees(spec, policy, qos, fleet):
    requests = generate_workload(spec)
    scheduler = scheduler_for(policy, qos, fleet)
    report = scheduler.run(requests, spec)
    events = report.log.events

    assert [o.request.request_id for o in report.outcomes] == [r.request_id for r in requests]
    assert all(o.status in OUTCOME_STATUSES for o in report.outcomes)
    lives: dict[int, list[str]] = {r.request_id: [] for r in requests}
    for event in events:
        if "request" in event:
            lives[event["request"]].append(event["event"])
    for outcome in report.outcomes:
        life = " ".join(lives[outcome.request.request_id])
        assert LIFE.fullmatch(life), life
        ended = {"complete": "completed", "shed": "shed", "reject": "rejected"}[life.split()[-1]]
        assert outcome.status == ended

    counts = report.log.counts()
    queue_sheds = sum(e["event"] == "shed" and e["reason"] in QUEUE_SHEDS for e in events)
    assert counts.get("admit", 0) == counts.get("complete", 0) + queue_sheds
    assert counts.get("dispatch", 0) == counts.get("complete", 0) + counts.get("requeue", 0)

    # Virtual time never runs backwards, and an executor serves one request
    # at a time: a dispatch finds it idle, a complete/requeue frees it.
    assert all(a["t_ms"] <= b["t_ms"] for a, b in zip(events, events[1:]))
    serving: dict[str, int] = {}
    for event in events:
        executor = event.get("executor", "the-one-executor")
        if event["event"] == "dispatch":
            assert executor not in serving, event
            serving[executor] = event["request"]
        elif event["event"] in ("complete", "requeue"):
            assert serving.pop(executor) == event["request"], event
    assert not serving

    # The same scheduler instance replays the stream into the same log.
    assert log_json(scheduler.run(requests, spec)) == log_json(report)


@settings(max_examples=60, deadline=None)
@given(specs, policies, controllers)
def test_no_fleet_is_a_fleet_of_one_in_another_shape(spec, policy, qos):
    requests = generate_workload(spec)
    plain = scheduler_for(policy, qos, None).run(requests, spec)
    fleet = scheduler_for(policy, qos, FleetPolicy()).run(requests, spec)
    assert log_json(fleet, strip=("executor",)) == log_json(plain)
    summary = fleet.summary()
    assert set(summary) - set(plain.summary()) == {"fleet", "tenant_usage"}
    del summary["fleet"], summary["tenant_usage"]
    assert summary == plain.summary()
