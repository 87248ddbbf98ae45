"""Declarative SLO alerting: burn-rate, threshold and absence rules.

The rule engine evaluates metric snapshots — the exact dict shape
:meth:`MetricsRegistry.snapshot` produces and ``parse_prometheus_snapshot``
reconstructs — against a declarative rule set and emits a transition log
(``alert_firing`` / ``alert_resolved`` entries).  Evaluation is a pure
function of the ``(timestamp, snapshot)`` samples: no wall clocks, fixed
rounding, stable rule order.  Over virtual-clock metrics (the
scheduler's decision plane) the alert log is therefore *replayable* —
two runs of the same seeded workload produce byte-identical alert logs,
exactly like the decision logs they sit beside.

Rule kinds:

* ``burn_rate`` — multi-window SLO burn on a latency histogram.  The
  burn rate is ``(observed bad fraction) / (allowed bad fraction)`` over
  a trailing window; the rule fires only when **both** the long and the
  short window burn above the threshold (the standard fast-burn guard:
  the long window gives confidence, the short window proves the burn is
  still happening).  "Bad" means above ``objective_ms``, resolved
  against histogram bucket bounds — the objective should sit on a bucket
  boundary; anything else is floored to the next bound below.
* ``threshold`` — compare a counter/gauge value against a constant.
* ``absence`` — fire when a metric series is missing from the snapshot,
  or (with ``window_ms``) when a counter has stopped increasing for a
  full window — the "is anything alive" rule.

:func:`samples_from_schedule_log` rebuilds a virtual-clock metrics
timeline from a scheduler decision log (or the equivalent trace
instants via ``analysis.events_from_trace``), sampling the cumulative
registry on a fixed grid so multi-window burn rates have history to
look at even though the scheduler only exports its final snapshot.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "AlertEngine",
    "AlertRule",
    "firing_rules",
    "load_rules",
    "samples_from_schedule_log",
]

_KINDS = ("burn_rate", "threshold", "absence")
_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}

#: JSON keys every rule must carry (the fields without a default).
_REQUIRED_FIELDS = ("name", "kind", "metric")

#: JSON keys accepted by :func:`load_rules`, i.e. the rule file format.
_RULE_FIELDS = {
    *_REQUIRED_FIELDS,
    "labels",
    "objective_ms",
    "target",
    "long_window_ms",
    "short_window_ms",
    "burn_threshold",
    "op",
    "value",
    "window_ms",
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule; see the module docstring for semantics."""

    name: str
    kind: str
    metric: str
    labels: tuple = ()
    # burn_rate
    objective_ms: float = 250.0
    target: float = 0.95
    long_window_ms: float = 3_600_000.0
    short_window_ms: float = 300_000.0
    burn_threshold: float = 1.0
    # threshold
    op: str = ">"
    value: float = 0.0
    # absence (None = plain series-missing check)
    window_ms: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r} (expected one of {_KINDS})")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")
        if self.kind == "burn_rate":
            if not 0.0 < self.target < 1.0:
                raise ValueError("burn_rate target must be in (0, 1)")
            if self.short_window_ms > self.long_window_ms:
                raise ValueError("short window must not exceed the long window")


def load_rules(raw_rules: list) -> tuple[AlertRule, ...]:
    """Build rules from parsed JSON (a list of flat rule dicts)."""
    rules = []
    for i, raw in enumerate(raw_rules):
        if not isinstance(raw, dict):
            raise ValueError(f"rule #{i} is not an object")
        unknown = set(raw) - _RULE_FIELDS
        if unknown:
            raise ValueError(f"rule #{i} has unknown fields: {sorted(unknown)}")
        missing = [k for k in _REQUIRED_FIELDS if k not in raw]
        if missing:
            raise ValueError(f"rule #{i} is missing required fields: {missing}")
        kwargs = {k: v for k, v in raw.items() if k != "labels"}
        kwargs["labels"] = _label_key(raw.get("labels") or {})
        rules.append(AlertRule(**kwargs))
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise ValueError("duplicate rule names")
    return tuple(rules)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _index_snapshot(snapshot: list[dict]) -> dict:
    return {
        (entry["name"], _label_key(entry.get("labels") or {})): entry
        for entry in snapshot
    }


class AlertEngine:
    """Evaluates a rule set over a timeline of metric snapshots.

    ``samples`` is ``[(t_ms, snapshot), ...]`` in ascending time, each
    snapshot *cumulative* since the start of the run (which is what both
    the registry and the Prometheus exposition give you).  A single
    final snapshot is a valid timeline: with no earlier sample inside
    any window, every window's baseline is the zero state, so the whole
    run is evaluated as one window.
    """

    def __init__(self, rules):
        self.rules = tuple(rules)

    def evaluate(self, samples: list[tuple]) -> list[dict]:
        """Return the transition log (firing/resolved entries only)."""
        timeline = [(float(t), _index_snapshot(snap)) for t, snap in samples]
        if any(b[0] < a[0] for a, b in zip(timeline, timeline[1:])):
            raise ValueError("samples must be in ascending time order")
        state = {rule.name: False for rule in self.rules}
        log: list[dict] = []
        for i, (t, indexed) in enumerate(timeline):
            for rule in self.rules:
                firing, fields = self._eval_rule(rule, timeline, i, t, indexed)
                if firing != state[rule.name]:
                    state[rule.name] = firing
                    log.append(
                        {
                            "t_ms": round(t, 6),
                            "event": "alert_firing" if firing else "alert_resolved",
                            "rule": rule.name,
                            "kind": rule.kind,
                            "metric": rule.metric,
                            **fields,
                        }
                    )
        return log

    # -- per-rule evaluation ------------------------------------------
    def _eval_rule(self, rule, timeline, i, t, indexed):
        entry = indexed.get((rule.metric, rule.labels))
        if rule.kind == "burn_rate":
            long_burn = self._burn(rule, timeline, i, t, entry, rule.long_window_ms)
            short_burn = self._burn(rule, timeline, i, t, entry, rule.short_window_ms)
            firing = (
                long_burn > rule.burn_threshold and short_burn > rule.burn_threshold
            )
            return firing, {
                "burn_long": round(long_burn, 6),
                "burn_short": round(short_burn, 6),
                "objective_ms": rule.objective_ms,
                "target": rule.target,
            }
        if rule.kind == "threshold":
            value = 0.0 if entry is None else float(entry.get("value", 0.0))
            return _OPS[rule.op](value, rule.value), {"value": round(value, 6)}
        # absence
        if entry is None:
            return True, {"reason": "missing"}
        if rule.window_ms is not None and entry["kind"] == "counter":
            baseline = self._baseline(timeline, i, t, rule.window_ms)
            if baseline is not None:
                prev = baseline.get((rule.metric, rule.labels))
                prev_value = 0.0 if prev is None else float(prev.get("value", 0.0))
                if float(entry.get("value", 0.0)) <= prev_value:
                    return True, {"reason": "stale"}
        return False, {}

    def _baseline(self, timeline, i, t, window_ms):
        """Latest sample at or before ``t - window_ms`` (None if none)."""
        cutoff = t - window_ms
        best = None
        for j in range(i):
            if timeline[j][0] <= cutoff:
                best = timeline[j][1]
            else:
                break
        return best

    def _burn(self, rule, timeline, i, t, entry, window_ms):
        if entry is None or entry.get("kind") != "histogram":
            return 0.0
        buckets = list(entry["buckets"])
        counts = list(entry["counts"])
        baseline = self._baseline(timeline, i, t, window_ms)
        if baseline is not None:
            prev = baseline.get((rule.metric, rule.labels))
            if prev is not None and list(prev["buckets"]) == buckets:
                counts = [c - p for c, p in zip(counts, prev["counts"])]
        counts = [max(c, 0) for c in counts]
        # Buckets are upper bounds (inclusive); everything in a bucket
        # whose bound is <= the objective is "good".
        k = bisect_right(buckets, rule.objective_ms)
        good = sum(counts[:k])
        total = sum(counts)
        if total == 0:
            return 0.0
        bad_fraction = (total - good) / total
        allowed = 1.0 - rule.target
        return bad_fraction / allowed if allowed > 0 else 0.0


def firing_rules(log: list[dict]) -> list[str]:
    """Replay a transition log to the set of rules firing at its end."""
    state: dict[str, bool] = {}
    for entry in log:
        state[entry["rule"]] = entry["event"] == "alert_firing"
    return sorted(name for name, firing in state.items() if firing)


# ----------------------------------------------------------------------
# Virtual-clock metric timelines from decision logs
# ----------------------------------------------------------------------
def samples_from_schedule_log(
    events: list[dict], interval_ms: float = 500.0
) -> list[tuple]:
    """Rebuild the scheduler's metric timeline from its decision log.

    Replays the same per-run metric recording ``RequestScheduler.run``
    performs (request counters by status, tier/warmth counters, the
    queue-wait/service/e2e histograms), sampling the cumulative registry
    every ``interval_ms`` of virtual time plus once at the final event.
    Purely a function of the decision log — deterministic, replayable —
    which is what lets alert evaluation on a seeded run be byte-stable.

    Values replayed from the log carry its 3-decimal rounding, so counts
    can differ from the live registry only for observations landing
    within 0.5 µs of a bucket bound.
    """
    from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry

    ordered = sorted(
        (e for e in events if "t_ms" in e), key=lambda e: float(e["t_ms"])
    )
    if not ordered:
        return []
    registry = MetricsRegistry()

    def hist(name):
        return registry.histogram(name, buckets=DEFAULT_LATENCY_BUCKETS_MS)

    def apply(event):
        kind = event.get("event")
        if kind == "complete":
            registry.counter(
                "repro_sched_requests_total", {"status": "completed"}
            ).inc()
            if "tier" in event:
                registry.counter(
                    "repro_sched_tier_served_total", {"tier": str(event["tier"])}
                ).inc()
            if "e2e_ms" in event:
                hist("repro_sched_e2e_ms").observe(float(event["e2e_ms"]))
        elif kind == "dispatch":
            if "warmth" in event:
                registry.counter(
                    "repro_sched_dispatch_total", {"warmth": str(event["warmth"])}
                ).inc()
            if "queue_wait_ms" in event:
                hist("repro_sched_queue_wait_ms").observe(
                    float(event["queue_wait_ms"])
                )
            if "service_ms" in event:
                hist("repro_sched_service_ms").observe(float(event["service_ms"]))
        elif kind == "shed":
            registry.counter("repro_sched_requests_total", {"status": "shed"}).inc()
        elif kind == "reject":
            registry.counter(
                "repro_sched_requests_total", {"status": "rejected"}
            ).inc()

    t_end = float(ordered[-1]["t_ms"])
    samples: list[tuple] = []
    k = 0
    t = 0.0
    while t < t_end:
        while k < len(ordered) and float(ordered[k]["t_ms"]) <= t:
            apply(ordered[k])
            k += 1
        samples.append((t, registry.snapshot()))
        t += interval_ms
    while k < len(ordered):
        apply(ordered[k])
        k += 1
    samples.append((t_end, registry.snapshot()))
    return samples
