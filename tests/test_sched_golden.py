"""Golden decision-log digests of the virtual-clock scheduler.

The values in :data:`GOLDEN` were recorded at commit bb1a118 — the last
one that still had the separate single-executor dispatch loop — *before*
that loop was deleted, so they are the only thing left in the tree that
says what it used to decide.  Each digest is
``sha256(json.dumps(events, sort_keys=True))`` over one run's decision
log, the same expression ``benchmarks/stack/stack_replay.py`` reports as
``log_digest.*``; the ``replay/...`` cases rebuild that benchmark's stream
and three configurations (smoke and full length, seeds 0 and 20260930),
the ``cell/...`` cases reach what the benchmark does not.  To re-record
after an *intended* decision change::

    PYTHONPATH=src:tests python - <<'EOF'
    from test_sched_golden import CASES, digest
    for name, case in CASES.items():
        report = case()
        print(f'    "{name}": ({len(report.log)}, "{digest(report)}"),')
    EOF
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fleet import AutoscalePolicy, FleetPolicy
from repro.sched.qos import DEFAULT_LADDER, FAST_LADDER, EventLog, QoSPolicy, SLOController
from repro.sched.scheduler import RequestScheduler, SchedulerPolicy
from repro.sched.workload import WorkloadSpec, generate_workload

#: ``stack_replay.py``'s controller, stream shape and configurations.
REPLAY_QOS = QoSPolicy(window=8, min_samples=4, cooldown=2, degrade_at=0.9, upgrade_at=0.45)
REPLAY_RATE_RPS = 24.0
REPLAY_FLEETS = {
    "legacy": None,
    "fleet4": FleetPolicy(num_executors=4, routing="affinity", fair=True),
    "fleet_auto_fail": FleetPolicy(
        num_executors=2,
        routing="affinity",
        autoscale=AutoscalePolicy(),
        failures=((3000.0, 0),),
    ),
}
REPLAY_LENGTHS = {"smoke": 300, "full": 4000}

#: The stream the ``cell/...`` cases share: a 60 ms SLO makes one lane of
#: one worker shed, demote and walk the ladder.
CELL_SPEC = WorkloadSpec(
    arrival="bursty", rate_rps=20.0, duration_s=10.0, num_clients=4, slo_ms=60.0, seed=3
)


def run(spec, count=None, policy=None, qos=REPLAY_QOS, ladder=DEFAULT_LADDER, fleet=None):
    """One fresh scheduler over ``spec``'s stream (first ``count`` arrivals)."""
    controller = SLOController(policy=qos, ladder=ladder, log=EventLog())
    scheduler = RequestScheduler(policy=policy or SchedulerPolicy(), qos=controller, fleet=fleet)
    return scheduler.run(generate_workload(spec)[:count], spec)


def replay_case(length: str, seed: int, config: str):
    count = REPLAY_LENGTHS[length]
    spec = WorkloadSpec(
        arrival="bursty",
        rate_rps=REPLAY_RATE_RPS,
        duration_s=1.33 * count / REPLAY_RATE_RPS,
        num_clients=4,
        slo_ms=250.0,
        seed=seed,
    )
    return lambda: run(
        spec, count, policy=SchedulerPolicy(num_workers=4), fleet=REPLAY_FLEETS[config]
    )


def cell(**kwargs):
    spec = kwargs.pop("spec", CELL_SPEC)
    return lambda: run(spec, **kwargs)


CASES = {
    **{
        f"replay/{length}/{seed}/{config}": replay_case(length, seed, config)
        for length in REPLAY_LENGTHS
        for seed in (0, 20260930)
        for config in REPLAY_FLEETS
    },
    "cell/default": cell(),
    "cell/max_shards4": cell(policy=SchedulerPolicy(num_workers=4, max_shards=4)),
    "cell/fixed_one_rung": cell(qos=QoSPolicy(adaptive=False), ladder=((0, "lossless"),)),
    "cell/fast_ladder": cell(ladder=FAST_LADDER),
    "cell/max_queue4": cell(policy=SchedulerPolicy(max_queue=4)),
    "cell/poisson": cell(
        spec=WorkloadSpec(arrival="poisson", rate_rps=20.0, duration_s=6.0, slo_ms=60.0, seed=5)
    ),
    "cell/fair_quota": cell(
        fleet=FleetPolicy(
            num_executors=2, fair=True, tenant_weights={0: 4.0, 3: 0.5}, tenant_quota=0.4
        )
    ),
    "cell/random4": cell(fleet=FleetPolicy(num_executors=4, routing="random", seed=7)),
    "cell/least_loaded3": cell(fleet=FleetPolicy(num_executors=3, routing="least-loaded")),
    "cell/fail_only_executor_autoscaled": cell(
        fleet=FleetPolicy(
            num_executors=1,
            autoscale=AutoscalePolicy(min_executors=1, max_executors=3),
            failures=((1500.0, 0), (1500.0, 0), (4000.0, 7)),
        )
    ),
}

#: What each ``cell/...`` log must contain, so a case cannot silently stop
#: reaching the behaviour it is named for: event kinds, or ``field=value``
#: pairs some event carries.
REACHES = {
    "cell/default": (
        "tier_down",
        "tier_up",
        "reason=deadline_expired_in_queue",
        "demoted_from=lod0/lossless",
    ),
    "cell/max_shards4": ("shards=2",),
    "cell/fixed_one_rung": ("reason=deadline_infeasible",),
    "cell/fast_ladder": ("tier=lod0/lossless/float32",),
    "cell/max_queue4": ("reject",),
    "cell/fair_quota": ("reason=quota_exceeded", "executor=executor-1"),
    "cell/random4": ("executor=executor-3",),
    "cell/least_loaded3": ("executor=executor-2",),
    "cell/fail_only_executor_autoscaled": ("requeue", "reason=below_min", "known=False"),
}

#: name -> (events in the log, sha256 of the log), recorded at bb1a118.
GOLDEN: dict[str, tuple[int, str]] = {
    "replay/smoke/0/legacy": (867, "e2621bcdf52a6fa9d225b59a525a6ae0e35ce88c03df7ca7487071753df482db"),
    "replay/smoke/0/fleet4": (867, "35112a6c55bc05ac37cbc5a05aecfd2c861b245c44e413816d6d3aec1a299a0e"),
    "replay/smoke/0/fleet_auto_fail": (874, "822004a7c8935ffa5429698191c7e2961245314d15c3cf54d20e07143db6a0e5"),
    "replay/smoke/20260930/legacy": (900, "74a627b692741d18c16044a915aed6eee7c92fb4424299bfb983cacc10e38e93"),
    "replay/smoke/20260930/fleet4": (900, "7b55552d851a9507dc599399c4f32e9d52d69b2fea792893c546a8420b2b7139"),
    "replay/smoke/20260930/fleet_auto_fail": (909, "394474f9c6e6a91cdf73acd881173d84b36f9a6db86eb931ed5e6993503945b8"),
    "replay/full/0/legacy": (12035, "6d58436472001c48971e1a51ca6f556df7e2dde722cdebbd58c0fa60fdd9ae08"),
    "replay/full/0/fleet4": (12000, "8dd011115cee48f5a45ff3e39e7b07d8aa0c1558fac243a39fb4515845615db7"),
    "replay/full/0/fleet_auto_fail": (12091, "66fcd2f4d911b2fca0bb1e6f79e5c337b996def1c40255122e79852c7adb3163"),
    "replay/full/20260930/legacy": (12022, "2c412a8090e6e7bc65f9f1b73c55a15141920c0958fcb85db0a233d9bdbbd394"),
    "replay/full/20260930/fleet4": (12000, "844fa77acc38a5bec13ef9eeefb480dc80cee71b4b81d916e4fe7718a02e505a"),
    "replay/full/20260930/fleet_auto_fail": (12075, "883eefc5096a8b71f88bb6fb363b250a480618f225269791068f9bff4bb825ac"),
    "cell/default": (857, "7f60f6015bd78a6179f2a9e63ef5c1dc26774d369b0d79d1d431adcc3fc34388"),
    "cell/max_shards4": (914, "0e1828b400c5b5a78dd99c914c03f173e227364056c6c03b8ae2bb5b227d66c6"),
    "cell/fixed_one_rung": (600, "67f71c67a42ca47b4b7a73bb4085941f73419c65211d8b49195d9a2c36be9533"),
    "cell/fast_ladder": (878, "ddd061b810da5a5a43a69773e5808e33da44bcaf6c63e9c97404b45a4baa3b49"),
    "cell/max_queue4": (857, "49650d20220dce74e15147ef76c6e544a629e7e5b1d42657ecf70cfe2362001b"),
    "cell/poisson": (351, "06a858c11405deafc8c6e9e624df2bb9cb83b9d5f45dbbb3e31649542f47dbc1"),
    "cell/fair_quota": (901, "b7e2104c798e3b659aeec3cb64eabe1ac567816b358b010b7e04626e954e48ac"),
    "cell/random4": (915, "a7541d8d6b030be113e92cb16ba180994e57486e70d298893bdea4598923ed0a"),
    "cell/least_loaded3": (913, "fb55dffd884bd7418d31f6e6350b2a60267396007da2a7b44f5cc78b504e59e4"),
    "cell/fail_only_executor_autoscaled": (844, "8a3240a9adf3c327dc6058d0b3a925995828a24ddba12bbb6f34942a079c0bed"),
}


def digest(report) -> str:
    log_json = json.dumps(list(report.log.events), sort_keys=True)
    return hashlib.sha256(log_json.encode()).hexdigest()


def reaches(report, needle: str) -> bool:
    key, _, value = needle.rpartition("=")
    return any(str(event.get(key or "event")) == value for event in report.log.events)


def test_every_case_has_a_recorded_digest():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_decision_log_matches_golden_digest(name):
    report = CASES[name]()
    assert (len(report.log), digest(report)) == GOLDEN[name]
    missing = [needle for needle in REACHES.get(name, ()) if not reaches(report, needle)]
    assert not missing, f"{name} no longer reaches {missing}"
