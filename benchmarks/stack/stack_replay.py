"""``sched_replay``: host time of the virtual-clock decision plane.

One seeded bursty request stream is replayed with ``execute=False`` through
``RequestScheduler.run`` under three configurations, pass after pass:

* ``legacy`` — the single-executor scheduler;
* ``fleet4`` — a 4-executor affinity-routed fleet with weighted-fair dispatch;
* ``fleet_auto_fail`` — a 2-executor fleet with autoscaling and one injected
  executor failure.

No frame is rendered; ``sched`` and ``fleet`` do all the work.  Everything
the runs decide is simulated and must repeat exactly; only their host time
is a measurement.
"""

from __future__ import annotations

import json
import time

from repro.fleet import FleetPolicy
from repro.fleet.autoscaler import AutoscalePolicy
from repro.fleet.ring import ConsistentHashRing
from repro.sched.qos import EventLog, QoSPolicy, SLOController
from repro.sched.scheduler import RequestScheduler, SchedulerPolicy
from repro.sched.workload import WorkloadSpec, generate_workload

from stack_harness import Check, Measurement, median, sha256_hex, speed_reading, timed_passes

RATE_RPS = 24.0
SLO_MS = 250.0
#: Requests in the stream (full scale / smoke).
STREAM_REQUESTS = 4_000
SMOKE_REQUESTS = 300
FAIL_AT_MS = 3000.0

_QOS = QoSPolicy(window=8, min_samples=4, cooldown=2, degrade_at=0.9, upgrade_at=0.45)

CONFIGS: dict[str, FleetPolicy | None] = {
    "legacy": None,
    "fleet4": FleetPolicy(num_executors=4, routing="affinity", fair=True),
    "fleet_auto_fail": FleetPolicy(
        num_executors=2,
        routing="affinity",
        autoscale=AutoscalePolicy(),
        failures=((FAIL_AT_MS, 0),),
    ),
}
_RANDOM = FleetPolicy(num_executors=4, routing="random", fair=True)


def replay(requests, spec, fleet, rec=None, op=None):
    """One fresh scheduler over the stream: (report, host seconds, log digest)."""
    scheduler = RequestScheduler(
        policy=SchedulerPolicy(num_workers=4),
        qos=SLOController(policy=_QOS, log=EventLog()),
        fleet=fleet,
    )
    t0 = time.perf_counter()
    if rec is None:
        report = scheduler.run(requests, spec)
    else:
        with rec.span("bench.replay", op=op):
            with rec.span("sched.run") as span:
                report = scheduler.run(requests, spec)
            span["counts"]["events"] = len(report.log)
    elapsed = time.perf_counter() - t0
    log_json = json.dumps(list(report.log.events), sort_keys=True)
    return report, elapsed, sha256_hex(log_json.encode()), len(log_json)


class SchedReplay:
    name = "sched_replay"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        count = SMOKE_REQUESTS if smoke else STREAM_REQUESTS
        self.count = count
        # The generator fixes a duration, not a count: ask for a third more
        # than needed and keep the first ``count`` arrivals, so every seed
        # replays a stream of the same length.
        self.spec = WorkloadSpec(
            arrival="bursty",
            rate_rps=RATE_RPS,
            duration_s=1.33 * count / RATE_RPS,
            num_clients=4,
            slo_ms=SLO_MS,
            seed=seed,
        )
        self.requests: list = []
        self.generate_us_per_req = 0.0

    def setup(self) -> None:
        t0 = time.perf_counter()
        generated = generate_workload(self.spec)
        self.generate_us_per_req = (time.perf_counter() - t0) * 1e6 / len(generated)
        self.requests = generated[: self.count]
        # Untimed warm-up: a slice of the stream through every configuration.
        head = self.requests[:200]
        for fleet in CONFIGS.values():
            replay(head, self.spec, fleet)

    def teardown(self) -> None:
        self.requests = []

    # ------------------------------------------------------------------
    def measure(self, seconds: float, rec=None, min_passes: int = 1) -> Measurement:
        runs: dict[str, list[dict]] = {name: [] for name in CONFIGS}
        speed: list[float] = []

        def run_pass(pass_index: int) -> None:
            # The three configurations take turns inside a pass, so a slow
            # stretch of the machine lands on all of them; each run is scaled
            # by the mean of the speed readings that bracket it.
            speed.append(speed_reading())
            for name, fleet in CONFIGS.items():
                report, elapsed, digest, log_bytes = replay(
                    self.requests, self.spec, fleet, rec, op=f"sched_replay:{name}:{pass_index}"
                )
                speed.append(speed_reading())
                runs[name].append(
                    {
                        # Only the first report is kept: later ones repeat it
                        # (checked by digest) and would grow memory with speed.
                        "report": report if pass_index == 0 else None,
                        "s": elapsed,
                        "ref_s": elapsed / ((speed[-2] + speed[-1]) / 2.0),
                        "events": len(report.log),
                        "digest": digest,
                        "log_bytes": log_bytes,
                    }
                )

        timed_passes(run_pass, seconds, min_passes)
        every = [run for config in runs.values() for run in config]
        per_pass = list(zip(*runs.values()))  # one run of each configuration
        unstable = sum(
            run["digest"] != config[0]["digest"] for config in runs.values() for run in config[1:]
        )
        return Measurement(
            # Pooled over the three configurations of a pass; the median pass.
            values={
                "decisions_per_s": median(
                    sum(run["events"] for run in group) / sum(run["ref_s"] for run in group)
                    for group in per_pass
                )
            },
            samples=len(per_pass),
            op_ms=median(run["ref_s"] * 1000.0 for run in every),
            speed=speed,
            attempted=len(every),
            failed=unstable,
            counts={f"log_digest.{name}": config[0]["digest"] for name, config in runs.items()},
            extra={"runs": runs},
        )

    # ------------------------------------------------------------------
    def verify(self, measurement: Measurement) -> list[Check]:
        checks = [
            Check(
                "sched_replay.logs_replay_byte_identical",
                measurement.failed == 0,
                f"{measurement.failed} of {measurement.attempted} runs logged a different decision sequence",
            )
        ]
        offered = len(self.requests)
        for name, config in measurement.extra["runs"].items():
            counts = config[0]["report"].summary()["requests"]
            settled = counts["completed"] + counts["shed"] + counts["rejected"]
            checks.append(
                Check(f"sched_replay.{name}.every_request_settled", settled == offered == counts["offered"], f"{settled} of {offered}")
            )
        return checks

    # ------------------------------------------------------------------
    def layer_metrics(self, untraced: Measurement, traced: Measurement, rec) -> dict[str, float]:
        runs = {
            name: untraced.extra["runs"][name] + traced.extra["runs"][name] for name in CONFIGS
        }
        us_per_event = {
            name: median([run["s"] * 1e6 / run["events"] for run in config]) for name, config in runs.items()
        }
        legacy = runs["legacy"][0]["report"].summary()
        fleet4 = runs["fleet4"][0]["report"]
        failed = runs["fleet_auto_fail"][0]["report"]
        random_report, *_ = replay(self.requests, self.spec, _RANDOM)

        ring = ConsistentHashRing(range(4))
        keys = [(request.scene, request.request_id % 3, "lossless") for request in self.requests[:2000]]
        t0 = time.perf_counter()
        for key in keys:
            ring.lookup(key)
        ring_us = (time.perf_counter() - t0) * 1e6 / len(keys)

        dispatch = fleet4.dispatch_counts
        return {
            "sched.generate_us_per_req": self.generate_us_per_req,
            "sched.run_us_per_event.legacy": us_per_event["legacy"],
            "sched.run_us_per_event.fleet4": us_per_event["fleet4"],
            "sched.run_us_per_event.fleet_auto_fail": us_per_event["fleet_auto_fail"],
            "fleet.ring_lookup_us": ring_us,
            "sched.log_bytes_per_req": runs["legacy"][0]["log_bytes"] / len(self.requests),
            "sched.model.slo_attainment": legacy["slo_attainment"],
            "sched.model.e2e_p95_ms": legacy["latency_ms"]["e2e_p95"],
            "sched.shed_share": legacy["shed_rate"],
            "fleet.ship_mb.affinity": fleet4.fleet["ship_bytes"] / 1e6,
            "fleet.ship_mb.random": random_report.fleet["ship_bytes"] / 1e6,
            "fleet.warm_dispatch_share": dispatch["warm"] / (dispatch["warm"] + dispatch["cold"]),
            "fleet.requeued": float(failed.fleet["requeues"]),
        }
