"""The scheduler's decision plane: one run of the virtual-clock event loop.

:class:`ScheduleRun` holds a run's whole mutable state as attributes and
has one method per event kind.  Read it top to bottom: construction seeds
the event heap, ``loop`` pops it, the handlers (``arrive`` / ``complete`` /
``autoscale`` / ``wake`` / ``fail``) each end in ``dispatch``, which sheds
or serves queue entries, and ``report`` closes the run.
"""

from __future__ import annotations

import functools
import heapq
from typing import TYPE_CHECKING

from repro.fleet import Autoscaler, FairQueue, FleetRouter, UsageMeter
from repro.obs import VIRTUAL, MetricsRegistry
from repro.sched.qos import Tier, tier_name
from repro.sched.report import OUTCOME_STATUSES, RequestOutcome, ScheduleReport
from repro.sched.workload import Request, WorkloadSpec

if TYPE_CHECKING:
    from repro.sched.scheduler import RequestScheduler


def _trace_event(tracer, entry: dict) -> None:
    tracer.instant(
        entry["event"],
        lane="scheduler",
        t_ms=entry["t_ms"],
        clock=VIRTUAL,
        attrs={k: v for k, v in entry.items() if k not in ("t_ms", "event")},
    )


class ScheduleRun:
    """The state of one :meth:`RequestScheduler.run` and its event handlers.

    Everything the virtual-clock loop mutates lives here as an attribute —
    the event heap, the waiting queue, the router and its lanes, fairness
    and metering state, the voided-dispatch set, the counters — and every
    event kind is one method of the same name (:meth:`arrive`,
    :meth:`complete`, :meth:`autoscale`, :meth:`wake`, :meth:`fail`), which
    end by calling :meth:`dispatch`.  A fresh instance per run is the reset
    discipline: nothing a run decided can leak into the next one.
    """

    def __init__(
        self, scheduler: RequestScheduler, requests: list[Request], spec: WorkloadSpec
    ) -> None:
        self.scheduler = scheduler
        self.requests = requests
        self.spec = spec
        self.policy = scheduler.policy
        self.model = scheduler.model
        self.quick = scheduler.quick
        self.workers = scheduler.policy.model_workers
        self.fleet = scheduler.fleet_policy
        self.fleet_shape = scheduler._fleet_shape
        self.qos = scheduler.qos
        self.log = scheduler.qos.log
        # Per-run metrics registry: the report path (dispatch warmth split,
        # per-tier histogram, latency histograms) reads these series rather
        # than hand-rolled dicts.  Recording is a pure function of the
        # decision sequence, so replayability is untouched.
        self.metrics = MetricsRegistry()
        #: Series of ``metrics`` by ``(name, *label values)`` (histograms by
        #: name): the registry's get-or-create sorts the labels and builds a
        #: key per call, several times what the increment itself costs, and
        #: a run records on the same dozen series once or more per event.
        #: Filled on first use — a series exists only once recorded on.
        self.handles: dict = {}
        self.tracer = scheduler._obs.tracer if scheduler._obs is not None else None
        if self.tracer is not None:
            # Tee every decision event into the trace as a virtual-clock
            # instant on the scheduler lane.  The sink sees the exact entry
            # the log appends — the log itself (and its replay) unchanged.
            # (A partial over the tracer alone: the log outlives the run
            # in its report and must not keep the whole run state alive.)
            self.log.add_sink(functools.partial(_trace_event, self.tracer))
        self.outcomes: dict[int, RequestOutcome] = {}
        self.measured_frame_ms: list[float] = []
        #: Data-plane job handles awaiting drain (submit order).
        self.pending_handles: list[tuple[RequestOutcome, object, int]] = []
        #: ``(scene, (lod, quant))`` tiers dispatched at least once this
        #: run on *any* executor — the optimistic union that admission and
        #: tier planning cost against, while each lane keeps its own
        #: first-touch set for placement and service costing.  Purely a
        #: function of the decision sequence, so replayability is preserved.
        self.touched: set = set()
        self.router = FleetRouter(self.fleet)
        self.autoscaler = (
            Autoscaler(self.fleet.autoscale) if self.fleet.autoscale is not None else None
        )
        self.fair = FairQueue(self.fleet.tenant_weights) if self.fleet.fair else None
        self.usage = UsageMeter()
        #: WFQ system virtual time: the served tenant's tag at the last
        #: fair dispatch; re-activating tenants are floored to it.
        self.fair_floor = 0.0
        #: Monotonic dispatch ids; an executor failure voids the id its
        #: in-flight request was dispatched under, which cancels the
        #: already-heaped completion event (heap entries can't be removed).
        self.dispatch_seq = 0
        self.voided: set[int] = set()
        self.placements: dict[str, int] = {}
        self.scale_ups = self.scale_downs = self.failures = self.requeues = 0
        # Event heap: (time, sequence, kind, payload).  Sequence breaks
        # ties deterministically: arrivals are pushed first, with the
        # lowest sequence numbers, so at an exact time tie an arrival is
        # handled *before* a completion — the conservative order (the
        # arrival sees the executor still busy and the queue still full).
        # Injected failures and the first autoscaler tick are pre-seeded
        # the same way — pure functions of the configuration.
        self.events: list[tuple[float, int, str, object]] = []
        self.seq = 0
        for request in requests:
            self.push(request.arrival_ms, "arrive", request)
        self.arrivals_remaining = len(requests)
        for fail_ms, fail_executor in self.fleet.failures:
            self.push(float(fail_ms), "fail", int(fail_executor))
        if self.autoscaler is not None:
            self.push(self.fleet.autoscale.interval_ms, "autoscale", None)
        # Waiting queue: (priority, absolute deadline, sequence, request) —
        # strict priority classes, EDF within a class.
        self.queue: list[tuple[int, float, int, Request]] = []

    def push(self, t_ms: float, kind: str, payload) -> None:
        """Schedule event ``kind`` at virtual time ``t_ms``."""
        heapq.heappush(self.events, (t_ms, self.seq, kind, payload))
        self.seq += 1

    def enqueue(self, request: Request) -> None:
        """Put an admitted (or requeued) request on the waiting queue."""
        heapq.heappush(
            self.queue, (request.priority, request.deadline_ms, self.seq, request)
        )
        self.seq += 1

    def loop(self) -> None:
        """Pop events in virtual-time order until none are left."""
        handlers = {
            "arrive": self.arrive,
            "complete": self.complete,
            "autoscale": self.autoscale,
            "wake": self.wake,
            "fail": self.fail,
        }
        events = self.events
        while events:
            now, _, kind, payload = heapq.heappop(events)
            handlers[kind](now, payload)

    def count(self, name: str, **labels) -> None:
        key = (name, *labels.values())
        series = self.handles.get(key)
        if series is None:
            series = self.handles[key] = self.metrics.counter(name, labels or None)
        series.inc()

    def observe(self, name: str, value: float) -> None:
        series = self.handles.get(name)
        if series is None:
            series = self.handles[name] = self.metrics.histogram(name)
        series.observe(value)

    # ------------------------------------------------------------------
    # Cost model and plans
    # ------------------------------------------------------------------
    def job_cost(
        self, request: Request, tier: Tier, shards: int = 1, warm: bool | None = None
    ) -> float:
        """Modeled service time of ``request`` at ``tier``, warmth-aware.

        A tier dispatched earlier in this run is *warm* — its payload is
        already encoded, shipped and decoded in the (modeled) executor — so
        the virtual clock charges only the warm dispatch constant.  (The
        model tracks first-touch per executor, not per worker slot — the
        conservative simplification of the executor's per-worker
        residency.)  Service is costed with ``warm`` passed explicitly,
        against the *routed executor's* first-touch set; the default is
        the union warmth that admission and tier planning use.  Residency
        keys on the *scene* tier ``(lod, quant)`` only — a float32 dispatch
        renders the same resident scene the float64 tier shipped, so it
        must not be costed cold again.
        """
        if warm is None:
            warm = (request.scene, tier[:2]) in self.touched
        return self.model.job_ms(
            request, tier, self.workers, self.quick, warm=warm, shards=shards
        )

    def best_shards(self, request: Request, tier: Tier) -> tuple[int, float]:
        """The shard count minimising ``request``'s modeled cost at ``tier``.

        Walks shard counts upward from 1 while the model keeps improving
        (sharding stops paying once the per-shard overhead outweighs the
        spread across idle lanes) and never exceeds ``policy.max_shards``.
        Returns ``(shards, cost)``; with ``max_shards=1`` this is always
        ``(1, unsharded cost)``.
        """
        best_shards, best_cost = 1, self.job_cost(request, tier)
        for shards in range(2, self.policy.max_shards + 1):
            cost = self.job_cost(request, tier, shards)
            if cost >= best_cost:
                break
            best_shards, best_cost = shards, cost
        return best_shards, best_cost

    def plan(self, request: Request, now: float) -> tuple[Tier, int, Tier | None, float]:
        """The (tier, shards) plan ``request`` is served with, and its cost.

        Serving starts from the controller's current rung and walks a
        two-dimensional plan only as far as the request's remaining
        deadline slack requires.  At each rung the dispatcher first tries
        *sharding* — splitting frames into tile-range shards spreads one
        request over idle lanes at **zero quality cost** (shard outputs
        merge bitwise-exactly) — and only when even the best shard count
        cannot make the deadline does it *demote* to the next (cheaper,
        lower-fidelity) rung, unsharded first.  A request whose wait ate
        most of its budget therefore renders sharded-but-full-quality when
        lanes can save it, and cheap only when they cannot.  With
        ``max_shards=1`` the walk degenerates to the historical
        rung-demotion loop.

        If even the cheapest rung at its best shard count cannot make the
        deadline this method still returns that plan — the caller,
        :meth:`offer`, decides the request's fate (an adaptive controller
        sheds it there; the fixed baseline serves blindly and records the
        miss).

        Returns ``(tier, shards, demoted_from, cost_ms)`` where
        ``demoted_from`` is the controller's rung when demotion happened,
        else ``None``, and ``cost_ms`` is :meth:`job_cost` of the plan at
        union warmth.

        Demotion and sharding are *adaptive* behaviours: a
        ``QoSPolicy(adaptive=False)`` controller serves every request
        whole-frame at its pinned rung no matter the slack (that is what
        makes it the fixed-tier baseline), exactly as a one-rung ladder
        would.
        """
        qos = self.qos
        if not qos.policy.adaptive:
            tier = qos.current_tier
            return tier, 1, None, self.job_cost(request, tier)
        ladder = qos.ladder
        slack_ms = request.deadline_ms - now
        start = ladder[qos.rung]
        for rung in range(qos.rung, len(ladder)):
            tier = ladder[rung]
            shards, cost = 1, self.job_cost(request, tier)
            if cost > slack_ms:
                shards, cost = self.best_shards(request, tier)
            if cost <= slack_ms:
                break
        # When nothing fit, the loop leaves the cheapest plan the ladder
        # has; the caller sheds (adaptive) or serves blindly (fixed).
        return tier, shards, (start if tier != start else None), cost

    def backlog_ms(self, request: Request) -> float:
        """Drain cost of the queued work that outranks ``request``.

        Two choices keep the admission projection honest.  First, only
        the queue entries that would actually be served *before* the
        arriving request count — higher priority class, or same class
        with an earlier-or-equal deadline; the whole-queue sum would
        shed a premium request behind a deep standard-tenant queue the
        dispatcher is about to jump it over.  Second, the backlog is
        costed at the tier jobs will actually be served at (the
        controller's *current* tier, not the cheapest one): early in an
        overload episode the controller is still on an expensive rung,
        and a cheapest-tier estimate would admit requests whose real
        wait already dooms them.
        """
        tier = self.qos.current_tier
        return sum(
            self.job_cost(r, tier)
            for priority, deadline, _, r in self.queue
            if priority < request.priority
            or (priority == request.priority and deadline <= request.deadline_ms)
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def arrive(self, now: float, request: Request) -> None:
        """Admission control: reject, shed or queue one arriving request."""
        self.arrivals_remaining -= 1
        outcome = RequestOutcome(request=request, status="rejected")
        self.outcomes[request.request_id] = outcome
        queue_depth = len(self.queue)
        if queue_depth >= self.policy.max_queue:
            self.log.emit(
                now,
                "reject",
                request=request.request_id,
                client=request.client_id,
                reason="queue_full",
                queue_depth=queue_depth,
            )
            self.count("repro_sched_requests_total", status="rejected")
            self.dispatch(now)
            return
        # Feasibility projects the cheapest rung at its best shard count
        # (with max_shards=1 exactly the unsharded cost), behind the
        # soonest any executor frees plus the out-ranking backlog spread
        # over the fleet.
        _, cheapest_ms = self.best_shards(request, self.qos.cheapest_tier)
        pending_ms = max(0.0, self.router.earliest_free_ms(now) - now)
        projected_ms = (
            pending_ms
            + self.backlog_ms(request) / max(1, len(self.router.lanes))
            + cheapest_ms
        )
        if self.qos.should_shed(projected_ms, request.slo_ms * self.policy.shed_slack):
            outcome.status = "shed"
            self.log.emit(
                now,
                "shed",
                request=request.request_id,
                client=request.client_id,
                reason="deadline_infeasible",
                projected_ms=round(projected_ms, 3),
                slo_ms=request.slo_ms,
                cheapest_tier=tier_name(self.qos.cheapest_tier),
            )
            self.count("repro_sched_requests_total", status="shed")
            self.dispatch(now)
            return
        outcome.status = "admitted"
        self.log.emit(
            now,
            "admit",
            request=request.request_id,
            client=request.client_id,
            priority=request.priority,
            queue_depth=queue_depth,
        )
        if self.fair is not None:
            # WFQ re-activation: floor the tenant's tag to the system
            # virtual time so idle tenants can't bank credit.
            self.fair.activate(request.client_id, self.fair_floor)
        self.enqueue(request)
        self.dispatch(now)

    def complete(self, now: float, payload) -> None:
        """A dispatch finished: settle the request, feed the controller."""
        request, dispatch_id, lane = payload
        if dispatch_id in self.voided:
            # The executor serving this dispatch failed mid-flight; the
            # request was requeued then.  Drop the stale event.
            self.voided.discard(dispatch_id)
            return
        lane.busy = False
        lane.inflight = None
        lane.dispatch_id = None
        outcome = self.outcomes[request.request_id]
        outcome.status = "completed"
        outcome.e2e_ms = now - request.arrival_ms
        outcome.slo_met = outcome.e2e_ms <= request.slo_ms
        served_tier = tier_name(outcome.tier)
        fields = {
            "request": request.request_id,
            "client": request.client_id,
            "tier": served_tier,
            "e2e_ms": round(outcome.e2e_ms, 3),
            "slo_met": outcome.slo_met,
        }
        if self.fleet_shape:
            fields["executor"] = lane.name
        self.log.emit(now, "complete", **fields)
        self.count("repro_sched_requests_total", status="completed")
        self.count("repro_sched_tier_served_total", tier=served_tier)
        self.observe("repro_sched_queue_wait_ms", outcome.queue_wait_ms)
        self.observe("repro_sched_service_ms", outcome.service_ms)
        self.observe("repro_sched_e2e_ms", outcome.e2e_ms)
        self.usage.record_frames(request.client_id, request.num_frames)
        if self.tracer is not None:
            self.trace_completion(now, request, outcome, lane)
        self.qos.observe(now, outcome.e2e_ms, request.slo_ms)
        self.dispatch(now)

    def trace_completion(self, now: float, request: Request, outcome, lane) -> None:
        """Virtual-clock span chain of one completed request.

        Recorded *from* already-decided quantities at completion time, on
        the client's lane; the fleet report shape mirrors the service
        window onto the executor's own virtual lane — the placement view
        of the trace (``repro-obs`` reconciles the routing headline off
        it).
        """
        tracer = self.tracer
        client_lane = f"client-{request.client_id}"
        attrs = {
            "request": request.request_id,
            "scene": request.scene,
            "tier": tier_name(outcome.tier),
        }
        span_id = tracer.record(
            "request",
            lane=client_lane,
            clock=VIRTUAL,
            t0_ms=request.arrival_ms,
            dur_ms=outcome.e2e_ms,
            attrs={**attrs, "slo_met": outcome.slo_met},
        )
        dispatched_ms = request.arrival_ms + outcome.queue_wait_ms
        for name, t0_ms, dur_ms in (
            ("queue_wait", request.arrival_ms, outcome.queue_wait_ms),
            ("service", dispatched_ms, outcome.service_ms),
        ):
            tracer.record(
                name, lane=client_lane, clock=VIRTUAL, t0_ms=t0_ms, dur_ms=dur_ms, parent=span_id
            )
        if self.fleet_shape:
            tracer.record(
                "service",
                lane=lane.name,
                clock=VIRTUAL,
                t0_ms=now - outcome.service_ms,
                dur_ms=outcome.service_ms,
                attrs=attrs,
            )

    def autoscale(self, now: float, _payload=None) -> None:
        """One autoscaler tick: apply and log its actions, schedule the next."""
        router = self.router
        work_left = (
            self.arrivals_remaining > 0
            or bool(self.queue)
            or any(lane.busy for lane in router.active())
        )
        if not work_left:
            return  # workload drained: let the event heap empty
        current_tier = self.qos.current_tier
        backlog_ms = sum(
            self.job_cost(r, current_tier) for _, _, _, r in self.queue
        ) / max(1, len(router.lanes))
        actions = self.autoscaler.evaluate(
            now, len(self.queue), backlog_ms, self.spec.slo_ms, router
        )
        for action, executor_id, reason in actions:
            if action == "scale_up":
                self.scale_ups += 1
                new_lane = router.lanes[executor_id]
                self.log.emit(
                    now,
                    "scale_up",
                    executor=new_lane.name,
                    reason=reason,
                    available_at_ms=round(new_lane.available_at, 3),
                    executors=len(router.lanes),
                    queue_depth=len(self.queue),
                )
                # Wake the dispatcher the instant the cold start
                # finishes — a completion may not coincide with it.
                self.push(new_lane.available_at, "wake", None)
            else:
                self.scale_downs += 1
                self.log.emit(
                    now,
                    "scale_down",
                    executor=f"executor-{executor_id}",
                    reason=reason,
                    executors=len(router.lanes),
                    queue_depth=len(self.queue),
                )
            self.count(
                "repro_sched_fleet_scale_total",
                direction="up" if action == "scale_up" else "down",
            )
        self.metrics.gauge("repro_sched_fleet_executors").set(len(router.lanes))
        self.dispatch(now)
        self.push(now + self.fleet.autoscale.interval_ms, "autoscale", None)

    def wake(self, now: float, _payload=None) -> None:
        """A scaled-up executor finished its cold start."""
        self.dispatch(now)

    def fail(self, now: float, executor_id: int) -> None:
        """An injected executor failure: drop the lane, requeue its work."""
        router = self.router
        lane = router.remove_lane(executor_id)
        if lane is None:
            # Already drained/failed (or never existed) — record the
            # no-op so the injected scenario stays visible in the log.
            self.log.emit(
                now, "executor_fail", executor=f"executor-{executor_id}", known=False
            )
            return
        self.failures += 1
        inflight = lane.inflight if lane.busy else None
        if inflight is not None:
            self.voided.add(lane.dispatch_id)
        self.log.emit(
            now,
            "executor_fail",
            executor=lane.name,
            in_flight=None if inflight is None else inflight.request_id,
            executors=len(router.lanes),
        )
        if inflight is not None:
            # Reuse the crash-recovery discipline: the in-flight request
            # goes back to the queue and is re-routed to a surviving
            # executor; the dead lane's warm set is lost.
            self.enqueue(inflight)
            self.log.emit(
                now,
                "requeue",
                request=inflight.request_id,
                client=inflight.client_id,
                executor=lane.name,
                reason="executor_failed",
            )
            self.requeues += 1
            self.count("repro_sched_fleet_requeue_total")
        self.count("repro_sched_fleet_failures_total")
        self.metrics.gauge("repro_sched_fleet_executors").set(len(router.lanes))
        if self.scheduler.execute:
            self.scheduler._kill_data_executor(executor_id)
        if not router.lanes and self.autoscaler is None:
            raise RuntimeError(
                "executor failure emptied the fleet and no autoscaler "
                "is configured to replace it"
            )
        self.dispatch(now)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, now: float) -> None:
        """Placement passes: match free executors against the queue.

        A pass offers the queue's entries (:meth:`offer`) in service order
        until one is shed or served; that action changed the queue and the
        lane set, so the next pass starts over.  Nearly every pass acts on
        its first entry, so the rest of the order is only worked out after
        a deferral; a pass in which every entry was deferred ends dispatch
        until the next event.
        """
        if not self.queue:
            return  # most completions leave nothing waiting
        free = self.router.free_lanes(now)
        while self.queue and free:
            first = self.first_in_order()
            if not self.offer(now, first, free) and not any(
                self.offer(now, pos, free) for pos in self.order_after(first)
            ):
                return
            # Within one ``now`` a lane only leaves the free list by
            # being dispatched onto.
            free = [lane for lane in free if not lane.busy]

    def order_key(self, pos: int) -> tuple:
        """Service-order key of the queue entry at ``pos`` (unique: it ends
        in the entry's sequence number).

        Without fairness that is the heap's own (priority, deadline,
        sequence) order; weighted-fair mode puts the tenant with the
        smallest WFQ virtual tag first, EDF within a tenant.
        """
        entry = self.queue[pos]
        if self.fair is None:
            return entry[:3]
        return (self.fair.tag(entry[3].client_id), *entry[:3])

    def first_in_order(self) -> int:
        """Queue position served first (the heap's index 0 without fairness)."""
        if self.fair is None:
            return 0
        return min(range(len(self.queue)), key=self.order_key)

    def order_after(self, first: int) -> list[int]:
        """The other queue positions in service order, ``first`` excluded."""
        return sorted((p for p in range(len(self.queue)) if p != first), key=self.order_key)

    def offer(self, now: float, pos: int, free: list) -> bool:
        """Shed or serve the queued request at ``pos``; ``False`` defers it.

        Late-sheds the hopeless, quota-sheds over-budget tenants, then
        asks the router for one of the ``free`` lanes.  No lane is a
        *deferral* — affinity judged waiting for the warm preferred
        executor cheaper than dispatching cold now — and the pass moves
        on, so a later request may still take the free lane.
        """
        request = self.queue[pos][3]
        tier, shards, demoted_from, plan_ms = self.plan(request, now)
        slack_ms = request.deadline_ms - now
        if self.qos.policy.adaptive and plan_ms > slack_ms:
            # Serving it would spend capacity on a guaranteed SLO miss
            # while everything behind it waits.  The fixed-tier baseline
            # serves blindly; its misses are the point of the comparison.
            self.shed(
                now,
                pos,
                "deadline_expired_in_queue",
                cheapest_service_ms=round(plan_ms, 3),
                slo_ms=request.slo_ms,
            )
            return True
        quota = self.fleet.tenant_quota
        if quota is not None and self.usage.over_quota(
            request.client_id, plan_ms * self.workers, quota
        ):
            self.shed(now, pos, "quota_exceeded", quota=quota, slo_ms=request.slo_ms)
            return True
        key = (request.scene, tier[:2])
        lane = self.router.place(
            key,
            request,
            now,
            slack_ms,
            cost=lambda lane: self.job_cost(
                request, tier, shards, warm=key in lane.touched
            ),
            free=free,
        )
        if lane is None:
            return False
        self.serve(now, pos, lane, tier, shards, demoted_from)
        return True

    def remove(self, pos: int) -> Request:
        """Take the queue entry at ``pos`` out, keeping the heap valid."""
        queue = self.queue
        request = queue[pos][3]
        if pos == 0:
            heapq.heappop(queue)
        else:
            queue[pos] = queue[-1]
            queue.pop()
            heapq.heapify(queue)
        return request

    def shed(self, now: float, pos: int, reason: str, **extra) -> None:
        """Shed the queued request at ``pos`` (hopeless or over quota)."""
        request = self.remove(pos)
        outcome = self.outcomes[request.request_id]
        outcome.status = "shed"
        outcome.queue_wait_ms = now - request.arrival_ms
        self.log.emit(
            now,
            "shed",
            request=request.request_id,
            client=request.client_id,
            reason=reason,
            queue_wait_ms=round(outcome.queue_wait_ms, 3),
            **extra,
        )
        self.count("repro_sched_requests_total", status="shed")

    def serve(self, now: float, pos: int, lane, tier: Tier, shards: int, demoted_from) -> None:
        """Dispatch the queued request at ``pos`` onto ``lane``.

        Service is costed against *this* executor's first-touch set, not
        the fleet union the plan was costed at.
        """
        request = self.remove(pos)
        key = (request.scene, tier[:2])
        warm = key in lane.touched
        service_ms = self.job_cost(request, tier, shards, warm=warm)
        wait_ms = now - request.arrival_ms
        entry = {
            "request": request.request_id,
            "client": request.client_id,
            "scene": request.scene,
            "tier": tier_name(tier),
            "warm": warm,
            "queue_wait_ms": round(wait_ms, 3),
            "service_ms": round(service_ms, 3),
        }
        if shards > 1:
            # Whole-frame dispatches keep their historical event shape —
            # the field appears only when the dispatcher actually sharded,
            # so pre-sharding decision logs replay byte-identically.
            entry["shards"] = shards
        if demoted_from is not None:
            entry["demoted_from"] = tier_name(demoted_from)
        if self.fleet_shape:
            entry["executor"] = lane.name
        self.log.emit(now, "dispatch", **entry)
        self.count("repro_sched_dispatch_total", warmth="warm" if warm else "cold")
        if self.fleet_shape:
            self.count("repro_sched_fleet_dispatch_total", executor=lane.name)
        self.touched.add(key)
        lane.touched.add(key)
        outcome = self.outcomes[request.request_id]
        outcome.tier = tier
        outcome.shards = shards
        outcome.queue_wait_ms = wait_ms
        outcome.service_ms = service_ms
        ship_bytes = (
            0 if warm else int(round(self.model.ship_bytes(request.scene, self.quick, tier)))
        )
        self.usage.record_dispatch(request.client_id, service_ms * self.workers, ship_bytes)
        if self.fair is not None:
            self.fair_floor = self.fair.tag(request.client_id)
            self.fair.charge(request.client_id, service_ms)
        self.placements[lane.name] = self.placements.get(lane.name, 0) + 1
        lane.busy = True
        lane.busy_until = now + service_ms
        lane.worker_ms += service_ms
        lane.inflight = request
        lane.dispatch_id = self.dispatch_seq
        self.push(lane.busy_until, "complete", (request, self.dispatch_seq, lane))
        self.dispatch_seq += 1
        if self.scheduler.execute:
            self.execute(request, tier, shards, outcome, lane.executor_id)

    def execute(
        self, request: Request, tier: Tier, shards: int, outcome: RequestOutcome, lane_id: int
    ) -> None:
        """Data plane: submit the dispatched job to its lane's executor.

        The handle is queued, not awaited — the executor overlaps frames
        of every in-flight job across its worker slots (a sequential
        executor simply completes the handle synchronously), and
        :meth:`report` drains all handles after the last virtual-clock
        event.  Per-frame latencies stream back through ``on_frame`` as
        frames really complete.
        """
        scheduler = self.scheduler
        frame_ms = self.measured_frame_ms
        handle = scheduler._data_executor(lane_id).submit(
            scheduler.build_job(request, tier, shards),
            on_frame=lambda record: frame_ms.append(record.render_ms),
            trace={
                "request": request.request_id,
                "client": request.client_id,
                "tier": tier_name(tier),
            },
        )
        self.pending_handles.append((outcome, handle, lane_id))

    # ------------------------------------------------------------------
    # After the loop
    # ------------------------------------------------------------------
    def drain(self) -> dict | None:
        """Wait for the data plane; residency totals (``None`` if virtual).

        The virtual loop submitted jobs without waiting (they overlap
        across the executors' worker slots); their measured results land
        on the outcomes only now, after every decision has been made, so
        timing noise cannot leak into replays.
        """
        if not self.scheduler.execute:
            return None
        residency = {"cache_hits": 0, "cache_misses": 0, "ship_bytes": 0, "loaded_bytes": 0}
        killed = self.scheduler._killed_executors
        for outcome, handle, lane_id in self.pending_handles:
            try:
                result = handle.result()
            except Exception:
                # The failure injection aborted this executor; its
                # unfinished handles fail by design.  Finished ones still
                # count (the work really rendered).
                if lane_id not in killed:
                    raise
                continue
            outcome.measured_wall_ms = result.wall_seconds * 1000.0
            outcome.measured_frames = result.num_frames
            for key in residency:
                residency[key] += getattr(result, key)
        return residency

    def report(self) -> ScheduleReport:
        """Drain the data plane and assemble the run's report."""
        scheduler = self.scheduler
        data_plane = self.drain()
        ordered = [self.outcomes[r.request_id] for r in self.requests]
        assert all(o.status in OUTCOME_STATUSES for o in ordered)
        # The report's warmth split materialises from the registry (same
        # {"cold": .., "warm": ..} shape as the historical hand-rolled
        # dict, so summaries and their JSON stay byte-identical).
        dispatch_counts = {
            warmth: self.metrics.value("repro_sched_dispatch_total", {"warmth": warmth}) or 0
            for warmth in ("cold", "warm")
        }
        if scheduler._obs is not None:
            scheduler._obs.metrics.merge(self.metrics.snapshot())
        fleet_summary = tenant_usage = None
        if self.fleet_shape:
            fleet_summary = {
                "routing": self.fleet.routing,
                "executors_initial": self.fleet.num_executors,
                "executors_final": len(self.router.lanes),
                "executors_peak": self.router.peak_executors,
                "autoscale": self.fleet.autoscale is not None,
                "fair": self.fleet.fair,
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
                "failures": self.failures,
                "requeues": self.requeues,
                #: Modeled cold-dispatch payload bytes across the fleet —
                #: the quantity cache-aware routing minimises.
                "ship_bytes": self.usage.total_ship_bytes,
                "placements": dict(sorted(self.placements.items())),
            }
            tenant_usage = self.usage.summary()
        return ScheduleReport(
            spec=self.spec,
            policy=self.policy,
            qos_policy=self.qos.policy,
            ladder=self.qos.ladder,
            outcomes=ordered,
            log=self.log,
            executed=scheduler.execute,
            measured_frame_ms=self.measured_frame_ms,
            dispatch_counts=dispatch_counts,
            data_plane=data_plane,
            metrics=self.metrics,
            fleet=fleet_summary,
            tenant_usage=tenant_usage,
        )


__all__ = ["ScheduleRun"]
