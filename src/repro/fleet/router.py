"""Cache-aware request placement over a fleet of virtual executors.

The :class:`FleetRouter` is decision-plane machinery: its *lanes* are
models of executors (busy-until horizon, per-executor first-touch warm
set, cumulative modeled work), not the real processes.  The scheduler
consults it at dispatch time; with ``execute=True`` the chosen lane id
selects the identically-named real
:class:`~repro.exec.executor.RenderExecutor` on the data plane.

Routing policies:

* ``affinity`` (default) — consistent-hash the job's ``(scene, lod,
  quant)`` residency key onto the ring.  A free preferred executor wins
  outright.  A busy one is *waited for* only when the cost model says
  waiting pays: projected queue delay plus its (warm) service still fits
  the request's deadline slack **and** beats the best immediately-free
  alternative, which would usually pay a cold first touch.  Otherwise
  the job falls back to the cheapest free executor (least-loaded on
  ties) — affinity never turns into a deadline violation.
* ``random`` — seed-deterministic uniform choice over free executors;
  the placement-quality baseline ``bench_fleet_routing.py`` beats.
* ``least-loaded`` — the free executor with the least cumulative
  modeled work; classic load balancing, blind to cache residency.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from repro.fleet.autoscaler import AutoscalePolicy
from repro.fleet.ring import ConsistentHashRing, stable_hash

#: Placement policies the router understands.
ROUTINGS: tuple[str, ...] = ("affinity", "random", "least-loaded")


@dataclass(frozen=True)
class FleetPolicy:
    """Fleet shape and placement knobs of a scheduler run."""

    #: Executors the fleet starts with (the autoscaler may change this).
    num_executors: int = 1
    #: Placement policy: one of :data:`ROUTINGS`.
    routing: str = "affinity"
    #: Autoscaling policy (``None`` = fixed fleet size).
    autoscale: AutoscalePolicy | None = None
    #: Weighted-fair per-tenant dispatch ordering (changes dispatch order,
    #: hence decision logs — strictly opt-in).
    fair: bool = False
    #: Per-tenant WFQ weights keyed by client id (missing tenants get 1.0).
    tenant_weights: dict | None = None
    #: Cap on any tenant's share of consumed fleet worker-time (0 < q <= 1);
    #: requests over quota are shed (``quota_exceeded``).  Requires ``fair``.
    tenant_quota: float | None = None
    #: Injected executor failures: ``(t_ms, executor_id)`` virtual-clock
    #: events.  The in-flight request is requeued and re-routed; the
    #: executor's warm state is lost.
    failures: tuple = ()
    #: Seed of the ``random`` routing baseline (decision-plane only).
    seed: int = 0
    #: Virtual nodes per executor on the consistent-hash ring.
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.num_executors < 1:
            raise ValueError("num_executors must be >= 1")
        if self.routing not in ROUTINGS:
            raise ValueError(f"routing must be one of {ROUTINGS}")
        if self.tenant_quota is not None:
            if not self.fair:
                raise ValueError("tenant_quota requires fair dispatch")
            if not 0.0 < self.tenant_quota <= 1.0:
                raise ValueError("tenant_quota must be in (0, 1]")
        if self.vnodes <= 0:
            raise ValueError("vnodes must be positive")
        for event in self.failures:
            # Failure specs arrive from the command line: a NaN or infinite
            # time would sit in the event heap with no defined order, and
            # a negative id names no executor.
            if len(event) != 2:
                raise ValueError("failures entries must be (t_ms, executor_id)")
            t_ms, executor_id = event
            if not (isinstance(t_ms, numbers.Real) and math.isfinite(t_ms) and t_ms >= 0):
                raise ValueError(f"failure time must be a finite number >= 0, got {t_ms!r}")
            if not (isinstance(executor_id, numbers.Integral) and executor_id >= 0):
                raise ValueError(
                    f"failure executor id must be an integer >= 0, got {executor_id!r}"
                )


@dataclass
class ExecutorLane:
    """Virtual-clock state of one executor in the fleet."""

    executor_id: int
    #: Virtual time the executor finishes cold-starting (autoscaled lanes).
    available_at: float = 0.0
    busy: bool = False
    busy_until: float = 0.0
    #: Per-executor first-touch warm set of ``(scene, (lod, quant))`` keys —
    #: the fleet generalisation of the scheduler's deployment-wide set.
    touched: set = field(default_factory=set)
    #: Cumulative modeled service time (the least-loaded signal).
    worker_ms: float = 0.0
    #: Request currently in flight (decision plane), for failure requeue.
    inflight: object | None = None
    #: Monotonic id of the in-flight dispatch (voids stale completions).
    dispatch_id: int | None = None

    @property
    def name(self) -> str:
        return f"executor-{self.executor_id}"

    def free_at(self) -> float:
        """Virtual time this lane can accept a job (busy/cold-start horizon)."""
        return max(self.busy_until if self.busy else 0.0, self.available_at)


class FleetRouter:
    """Places dispatched jobs onto executor lanes (see module docstring)."""

    def __init__(self, policy: FleetPolicy) -> None:
        self.policy = policy
        #: Lanes by executor id.  Ids are handed out monotonically and a
        #: dict keeps insertion order, so iteration is already id order.
        self.lanes: dict[int, ExecutorLane] = {}
        self.ring = ConsistentHashRing(vnodes=policy.vnodes)
        #: Ring owner per residency key since the last membership change
        #: (a lookup hashes the key with sha256; placements repeat keys).
        self._homes: dict = {}
        self._next_id = 0
        self.peak_executors = 0
        for _ in range(policy.num_executors):
            self.add_lane(0.0, coldstart_ms=0.0)

    # ------------------------------------------------------------------
    def add_lane(self, now: float, coldstart_ms: float = 0.0) -> ExecutorLane:
        """Grow the fleet by one executor (cold: empty warm set, start delay)."""
        lane = ExecutorLane(
            executor_id=self._next_id, available_at=now + coldstart_ms
        )
        self._next_id += 1
        self.lanes[lane.executor_id] = lane
        self.ring.add(lane.executor_id)
        self._homes.clear()
        self.peak_executors = max(self.peak_executors, len(self.lanes))
        return lane

    def remove_lane(self, executor_id: int) -> ExecutorLane | None:
        """Drop one executor (failure or drain); its warm state is lost."""
        lane = self.lanes.pop(executor_id, None)
        if lane is not None:
            self.ring.remove(executor_id)
            self._homes.clear()
        return lane

    def active(self) -> list[ExecutorLane]:
        """Current lanes in id order (deterministic iteration order)."""
        return list(self.lanes.values())

    def free_lanes(self, now: float) -> list[ExecutorLane]:
        """Lanes able to start a job *now* (idle and past cold start)."""
        return [
            lane
            for lane in self.lanes.values()
            if not lane.busy and lane.available_at <= now
        ]

    def earliest_free_ms(self, now: float) -> float:
        """Soonest virtual time any lane can accept a job (``now`` if one can)."""
        if not self.lanes:
            return now
        return min(max(lane.free_at(), now) for lane in self.lanes.values())

    # ------------------------------------------------------------------
    def place(
        self,
        key,
        request,
        now: float,
        slack_ms: float,
        cost,
        free: list[ExecutorLane] | None = None,
    ) -> ExecutorLane | None:
        """Choose a lane for ``request``, or ``None`` to leave it queued.

        ``key`` is the residency key the affinity ring hashes; ``cost``
        maps a lane to the request's modeled service time *on that lane*
        (warm on lanes that already touched the key, cold elsewhere);
        ``free`` is :meth:`free_lanes` at ``now`` when the caller already
        holds it.  ``None`` means defer: either no lane is free, or
        affinity decided waiting for the warm preferred executor beats a
        cold fallback and still fits ``slack_ms``.
        """
        if free is None:
            free = self.free_lanes(now)
        if not free:
            return None
        routing = self.policy.routing
        if routing == "random":
            index = stable_hash(
                f"route:{self.policy.seed}:{request.request_id}"
            ) % len(free)
            return free[index]
        if routing == "least-loaded":
            return min(free, key=lambda lane: (lane.worker_ms, lane.executor_id))
        # affinity
        home = self._homes.get(key)
        if home is None:
            home = self._homes[key] = self.ring.lookup(key)
        preferred = self.lanes[home]
        if not preferred.busy and preferred.available_at <= now:
            return preferred
        fallback = min(
            free, key=lambda lane: (cost(lane), lane.worker_ms, lane.executor_id)
        )
        wait_ms = preferred.free_at() - now
        affinity_ms = wait_ms + cost(preferred)
        # The cost-model tiebreak: hold out for the (usually warm)
        # preferred executor only when the wait both fits the deadline
        # slack and beats serving immediately somewhere colder.
        if affinity_ms <= slack_ms and affinity_ms < cost(fallback):
            return None
        return fallback


__all__ = ["ExecutorLane", "FleetPolicy", "FleetRouter", "ROUTINGS"]
