"""Trace analytics: critical paths, breakdowns, timelines, run diffs.

PR 7 made every layer *emit* spans and metrics; this module is the read
side.  Everything here is a pure function of the input span records —
no clocks, no randomness, stable sort orders, all reported numbers
rounded to a fixed precision — so analyzing the same trace twice yields
byte-identical JSON, and committed analyses are replayable artifacts
exactly like decision logs.

The analyses:

* :func:`critical_path` — the longest *blocking* chain through the span
  tree (request → job → frame → shard → kernel stage): starting from the
  longest ``request`` root, each step descends into the child whose end
  time gates the parent's completion, attributing every step's duration
  exactly to self time (the node minus its children) and child time.
* :func:`stage_breakdown` — per-span-name latency aggregates plus the
  *frame attribution*: what fraction of total frame time the named
  kernel stages (:data:`KERNEL_STAGES`) account for — the paper's
  per-stage cost story, read off a real trace.
* :func:`lane_breakdown` — busy time and utilization per lane (worker
  slots, main, clients), from the union of that lane's span intervals.
* :func:`occupancy_timeline` / :func:`queue_depth_timeline` — step
  functions derived purely from span boundaries: how many workers were
  busy, and how deep the scheduler's queue ran (from virtual
  ``queue_wait`` spans).
* :func:`diff_analyses` — the regression attributor: given two analyses
  (two runs, or a fresh run vs a committed ``BENCH_<name>.json``
  baseline's embedded analysis), ranks the per-stage and per-lane deltas
  so "which stage regressed" has a first-class answer.

Input records are the tracer's plain span dicts; :func:`load_trace`
reads them back from an exported Chrome ``trace_event`` file, and
:func:`records_from_chrome_trace` reverses the export — span ids and
parent links ride in the event ``args``, so the tree survives the round
trip.

Partial traces are first-class inputs: a killed worker leaves an
error-annotated ``request`` span with no children and a ``lane_closed``
instant, and every analysis here treats childless or error spans as
ordinary leaves instead of raising.
"""

from __future__ import annotations

import json

from repro.obs.trace import KERNEL_STAGES, VIRTUAL, WALL

__all__ = [
    "KERNEL_STAGES",
    "analyze",
    "critical_path",
    "diff_analyses",
    "events_from_trace",
    "lane_breakdown",
    "load_trace",
    "occupancy_timeline",
    "queue_depth_timeline",
    "records_from_chrome_trace",
    "stage_breakdown",
]

#: Fixed rounding of every reported number: coarse enough to serialize
#: identically, fine enough (nanoseconds) to lose nothing measurable.
_NDIGITS = 6


def _r(value: float) -> float:
    return round(float(value), _NDIGITS)


# ----------------------------------------------------------------------
# Loading traces back from exported artifacts
# ----------------------------------------------------------------------
def records_from_chrome_trace(payload: dict) -> list[dict]:
    """Reconstruct span records from an exported Chrome-trace payload.

    The exporter stamps ``span_id``/``parent`` into every event's
    ``args`` and lane names into thread metadata, so the span tree is
    recoverable exactly; wall timestamps come back rebased to the trace
    start (the exporter subtracted the earliest ``t0_ms``), which is
    irrelevant to every analysis here — only relative times matter.
    """
    events = payload.get("traceEvents") or []
    lanes: dict[tuple, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            lanes[(event["pid"], event["tid"])] = event["args"]["name"]
    records: list[dict] = []
    open_async: dict[tuple, dict] = {}

    def base_record(event, dur_ms):
        args = dict(event.get("args") or {})
        span_id = args.pop("span_id", None)
        parent = args.pop("parent", None)
        return {
            "id": span_id if span_id is not None else f"evt:{len(records) + 1}",
            "parent": parent,
            "name": event["name"],
            "lane": lanes.get((event.get("pid"), event.get("tid")), "main"),
            "clock": WALL if event.get("pid") == 1 else VIRTUAL,
            "t0_ms": event["ts"] / 1e3,
            "dur_ms": dur_ms,
            "attrs": args,
        }

    for event in events:
        ph = event.get("ph")
        if ph == "X":
            records.append(base_record(event, event["dur"] / 1e3))
        elif ph == "i":
            records.append(base_record(event, None))
        elif ph == "b":
            open_async[(event.get("cat"), event.get("id"))] = event
    for event in events:
        if event.get("ph") != "e":
            continue
        begin = open_async.pop((event.get("cat"), event.get("id")), None)
        if begin is not None:
            records.append(base_record(begin, (event["ts"] - begin["ts"]) / 1e3))
    return records


def load_trace(path: str) -> list[dict]:
    """Load span records from a Chrome ``trace_event`` JSON file — the
    format ``--trace-out`` writes — via :func:`records_from_chrome_trace`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "traceEvents" in payload:
        return records_from_chrome_trace(payload)
    raise ValueError(f"unrecognised trace payload in {path!r} (want Chrome trace JSON)")


def events_from_trace(records: list[dict]) -> list[dict]:
    """Recover decision-log entries from a trace's virtual instants.

    The scheduler tees every decision event into the trace as a
    virtual-clock instant on the ``scheduler`` lane (name = event kind,
    attrs = the entry's fields), so a sched trace carries its decision
    log and the alert engine can replay it without the separate events
    file.  Returns entries in virtual-time order.
    """
    events = [
        {"t_ms": r["t0_ms"], "event": r["name"], **(r.get("attrs") or {})}
        for r in records
        if r.get("clock") == VIRTUAL
        and r.get("dur_ms") is None
        and r.get("lane") == "scheduler"
    ]
    events.sort(key=lambda e: e["t_ms"])
    return events


# ----------------------------------------------------------------------
# Span-tree plumbing
# ----------------------------------------------------------------------
def _wall_spans(records: list[dict]) -> list[dict]:
    return [
        r
        for r in records
        if r.get("clock", WALL) == WALL and r.get("dur_ms") is not None
    ]


def _index(spans: list[dict]) -> tuple[dict, dict, list[dict]]:
    """``(by_id, children, roots)`` over a span list.

    A span whose parent id is unknown (dropped by a crash, or genuinely
    root) counts as a root — partial traces stay analyzable.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent")
        if parent and parent in by_id and parent != span["id"]:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s["t0_ms"], s["id"]))
    roots.sort(key=lambda s: (s["t0_ms"], s["id"]))
    return by_id, children, roots


def _end(span: dict) -> float:
    return span["t0_ms"] + span["dur_ms"]


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def critical_path(records: list[dict]) -> dict:
    """The longest blocking chain through the wall-clock span tree.

    The root is the longest ``request`` span (the dispatch envelope on
    both the sequential and pool paths); at every node the walk descends
    into the child whose *end time* gates the parent — the blocking
    child — until it reaches a leaf.  Each step carries exact self/child
    attribution: ``self_ms`` is the node's duration minus the sum of its
    children's durations (clipped at zero against sub-µs clock-source
    skew), ``child_ms`` the children's sum.  An error-annotated request
    span with no children (a killed worker's flushed partial) is a
    one-step path, not an error.
    """
    spans = _wall_spans(records)
    if not spans:
        return {"root": None, "root_name": None, "total_ms": 0.0, "steps": []}
    _, children, roots = _index(spans)
    candidates = [s for s in roots if s["name"] == "request"] or roots
    root = max(candidates, key=lambda s: (s["dur_ms"], s["id"]))
    t_base = min(s["t0_ms"] for s in spans)
    steps = []
    node = root
    while node is not None:
        kids = children.get(node["id"], [])
        child_ms = sum(k["dur_ms"] for k in kids)
        steps.append(
            {
                "name": node["name"],
                "id": node["id"],
                "lane": node["lane"],
                "t0_ms": _r(node["t0_ms"] - t_base),
                "dur_ms": _r(node["dur_ms"]),
                "self_ms": _r(max(node["dur_ms"] - child_ms, 0.0)),
                "child_ms": _r(child_ms),
                "error": str(node["attrs"]["error"]) if node.get("attrs", {}).get("error") else None,
            }
        )
        node = max(kids, key=lambda s: (_end(s), s["id"])) if kids else None
    return {
        "root": root["id"],
        "root_name": root["name"],
        "total_ms": _r(root["dur_ms"]),
        "steps": steps,
        "leaf": steps[-1]["name"],
    }


# ----------------------------------------------------------------------
# Per-stage and per-lane breakdowns
# ----------------------------------------------------------------------
def _median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def stage_breakdown(records: list[dict]) -> dict:
    """Latency aggregates per span name, plus kernel-stage frame attribution.

    ``stages`` maps every wall span name to count/total/self/p50/max
    milliseconds (self = duration minus own children, summed over all
    spans of that name).  ``frame_attribution`` answers the acceptance
    question directly: of all ``frame`` span time, how much do the named
    kernel stages (:data:`KERNEL_STAGES`) account for.
    """
    spans = _wall_spans(records)
    _, children, _ = _index(spans)
    groups: dict[str, list[dict]] = {}
    for span in spans:
        groups.setdefault(span["name"], []).append(span)
    stages = {}
    for name in sorted(groups):
        group = groups[name]
        durs = sorted(s["dur_ms"] for s in group)
        self_ms = sum(
            max(s["dur_ms"] - sum(k["dur_ms"] for k in children.get(s["id"], [])), 0.0)
            for s in group
        )
        stages[name] = {
            "count": len(group),
            "total_ms": _r(sum(durs)),
            "self_ms": _r(self_ms),
            "p50_ms": _r(_median(durs)),
            "max_ms": _r(durs[-1]),
        }
    frame_ms = stages.get("frame", {}).get("total_ms", 0.0)
    per_stage = {
        name: stages.get(name, {}).get("total_ms", 0.0) for name in KERNEL_STAGES
    }
    stage_ms = sum(per_stage.values())
    return {
        "stages": stages,
        "frame_attribution": {
            "frame_ms": _r(frame_ms),
            "kernel_stage_ms": _r(stage_ms),
            "per_stage": {k: _r(v) for k, v in per_stage.items()},
            "attributed_fraction": _r(stage_ms / frame_ms) if frame_ms else 0.0,
        },
    }


def _merged_busy_ms(spans: list[dict]) -> float:
    """Total covered time of a span set (union of intervals)."""
    intervals = sorted((s["t0_ms"], _end(s)) for s in spans)
    busy = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                busy += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        busy += cur_hi - cur_lo
    return busy


def lane_breakdown(records: list[dict]) -> dict:
    """Busy time and utilization per lane over the trace's wall window."""
    spans = _wall_spans(records)
    if not spans:
        return {"window_ms": 0.0, "lanes": {}}
    t_min = min(s["t0_ms"] for s in spans)
    t_max = max(_end(s) for s in spans)
    window = t_max - t_min
    by_lane: dict[str, list[dict]] = {}
    for span in spans:
        by_lane.setdefault(span["lane"], []).append(span)
    lanes = {}
    for lane in sorted(by_lane):
        busy = _merged_busy_ms(by_lane[lane])
        lanes[lane] = {
            "spans": len(by_lane[lane]),
            "busy_ms": _r(busy),
            "utilization": _r(busy / window) if window else 0.0,
        }
    return {"window_ms": _r(window), "lanes": lanes}


# ----------------------------------------------------------------------
# Timelines from span boundaries
# ----------------------------------------------------------------------
def _step_timeline(intervals: list[tuple[float, float]], t_base: float) -> dict:
    """A step function (+1 at each start, -1 at each end) over intervals."""
    if not intervals:
        return {"max": 0, "mean": 0.0, "samples": []}
    deltas: dict[float, int] = {}
    for lo, hi in intervals:
        deltas[lo] = deltas.get(lo, 0) + 1
        deltas[hi] = deltas.get(hi, 0) - 1
    samples = []
    depth = 0
    peak = 0
    area = 0.0
    prev_t = None
    for t in sorted(deltas):
        if prev_t is not None:
            area += depth * (t - prev_t)
        depth += deltas[t]
        peak = max(peak, depth)
        samples.append([_r(t - t_base), depth])
        prev_t = t
    span = sorted(deltas)[-1] - sorted(deltas)[0]
    return {
        "max": peak,
        "mean": _r(area / span) if span else 0.0,
        "samples": samples,
    }


def occupancy_timeline(records: list[dict], lane_prefix: str = "worker-") -> dict:
    """Concurrent busy workers over time, from dispatch-envelope spans.

    Counts the parent-side ``request`` spans on worker lanes (one per
    in-flight work unit); a sequential trace has no worker lanes, so the
    timeline falls back to the root spans of the ``main`` lane — the
    in-process analogue of a one-worker pool.
    """
    spans = _wall_spans(records)
    units = [
        s
        for s in spans
        if s["name"] == "request" and s["lane"].startswith(lane_prefix)
    ]
    if not units:
        _, _, roots = _index(spans)
        units = [s for s in roots if s["name"] == "request"]
    if not units:
        return {"max": 0, "mean": 0.0, "samples": []}
    t_base = min(s["t0_ms"] for s in spans)
    return _step_timeline([(s["t0_ms"], _end(s)) for s in units], t_base)


def queue_depth_timeline(records: list[dict]) -> dict:
    """Scheduler queue depth over virtual time, from ``queue_wait`` spans.

    Each virtual ``queue_wait`` span covers exactly one request's stay in
    the admission queue (arrival → dispatch), so the interval overlap
    count *is* the queue depth — derived purely from span boundaries,
    no counters consulted.  Empty for traces without a decision plane.
    """
    waits = [
        r
        for r in records
        if r.get("clock") == VIRTUAL
        and r.get("dur_ms") is not None
        and r["name"] == "queue_wait"
    ]
    return _step_timeline([(s["t0_ms"], _end(s)) for s in waits], 0.0)


# ----------------------------------------------------------------------
# The full report and the diff engine
# ----------------------------------------------------------------------
def analyze(records: list[dict]) -> dict:
    """The full analysis report over one trace's span records.

    A pure function with deterministic ordering and fixed rounding:
    ``json.dumps(analyze(records), sort_keys=True)`` is byte-identical
    across repeated runs on the same input.
    """
    wall = _wall_spans(records)
    closed = sorted(
        str((r.get("attrs") or {}).get("worker"))
        for r in records
        if r["name"] == "lane_closed" and r.get("dur_ms") is None
    )
    return {
        "spans": len(records),
        "wall_spans": len(wall),
        "lanes_closed": closed,
        "critical_path": critical_path(records),
        "stages": stage_breakdown(records),
        "lanes": lane_breakdown(records),
        "worker_occupancy": occupancy_timeline(records),
        "queue_depth": queue_depth_timeline(records),
    }


def diff_analyses(base: dict, current: dict) -> dict:
    """Attribute a regression between two analyses to stages and lanes.

    ``base``/``current`` are :func:`analyze` outputs — from two trace
    files, or a committed ``BENCH_<name>.json`` baseline's embedded
    ``analysis`` vs a fresh run.  Stages are ranked by their total-time
    delta (positive = current slower); ``attribution`` names the stage
    that accounts for the largest share of the regression, which is the
    "which stage regressed" answer the diff exists to give.
    """

    def stage_totals(analysis: dict) -> dict[str, dict]:
        return (analysis.get("stages") or {}).get("stages") or {}

    def lane_utils(analysis: dict) -> dict[str, dict]:
        return (analysis.get("lanes") or {}).get("lanes") or {}

    base_stages, cur_stages = stage_totals(base), stage_totals(current)
    stages = {}
    for name in sorted(set(base_stages) | set(cur_stages)):
        b = base_stages.get(name, {})
        c = cur_stages.get(name, {})
        stages[name] = {
            "base_ms": _r(b.get("total_ms", 0.0)),
            "current_ms": _r(c.get("total_ms", 0.0)),
            "delta_ms": _r(c.get("total_ms", 0.0) - b.get("total_ms", 0.0)),
            "base_count": b.get("count", 0),
            "current_count": c.get("count", 0),
        }
    regressions = sorted(
        (name for name, d in stages.items() if d["delta_ms"] > 0),
        key=lambda name: (-stages[name]["delta_ms"], name),
    )
    base_lanes, cur_lanes = lane_utils(base), lane_utils(current)
    lanes = {}
    for lane in sorted(set(base_lanes) | set(cur_lanes)):
        b = base_lanes.get(lane, {})
        c = cur_lanes.get(lane, {})
        lanes[lane] = {
            "base_utilization": _r(b.get("utilization", 0.0)),
            "current_utilization": _r(c.get("utilization", 0.0)),
            "delta": _r(c.get("utilization", 0.0) - b.get("utilization", 0.0)),
        }
    base_total = (base.get("critical_path") or {}).get("total_ms", 0.0)
    cur_total = (current.get("critical_path") or {}).get("total_ms", 0.0)
    return {
        "critical_path_ms": {
            "base": _r(base_total),
            "current": _r(cur_total),
            "delta": _r(cur_total - base_total),
        },
        "stages": stages,
        "lanes": lanes,
        "regressions": regressions,
        "attribution": regressions[0] if regressions else None,
    }
