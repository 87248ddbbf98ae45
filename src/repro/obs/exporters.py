"""Exporters: Chrome ``trace_event`` JSON and Prometheus text.

Chrome trace layout (open in Perfetto or chrome://tracing):

* pid 1, "wall clock" — one thread (lane) per worker slot plus ``main``;
  wall spans become ``"X"`` complete events whose microsecond timestamps
  are rebased to the earliest span, so nesting (request → job → frame →
  shard → stages) renders as stacked slices per lane.
* pid 2, "virtual clock" — the scheduler's deterministic timeline;
  decision-log instants become ``"i"`` events and virtual request spans
  become ``"b"``/``"e"`` async pairs (requests of one client overlap, so
  they cannot be complete events on a single thread track).

It is the one trace file format: :func:`export_trace` writes it whatever
the path's suffix, and :func:`repro.obs.analysis.load_trace` reads it
back.  The live ``/trace.jsonl`` tail of :mod:`repro.obs.server` is a
cursor protocol over the same records, not a file format.

``validate_chrome_trace`` is the schema check CI's obs-smoke job runs:
events well-formed, wall spans strictly nested per lane, expected worker
lanes present, and every shard/render/decode span reachable from a
``request`` root through the documented chain.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import WALL, Tracer

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "parse_prometheus_labels",
    "parse_prometheus_snapshot",
    "validate_chrome_trace",
    "export_trace",
    "export_metrics",
]

_WALL_PID = 1
_VIRTUAL_PID = 2

# Tolerance (µs) for nesting checks: ``t0_ms``/``dur_ms`` are float
# milliseconds of an epoch-sized number, so boundaries that were equal in
# integer nanoseconds can disagree by a rounding step (~0.25 µs).
_NEST_EPS_US = 5.0


def _lane_sort_key(lane: str) -> tuple:
    if lane == "main":
        return (0, 0, lane)
    if lane.startswith("worker-"):
        suffix = lane.split("-", 1)[1]
        if suffix.isdigit():
            return (1, int(suffix), lane)
    return (2, 0, lane)


def _lane_tids(lanes: Iterable[str]) -> dict[str, int]:
    return {lane: i + 1 for i, lane in enumerate(sorted(set(lanes), key=_lane_sort_key))}


def chrome_trace(records: list[dict]) -> dict:
    """Render span records as a Chrome ``trace_event`` JSON object."""
    wall = [r for r in records if r.get("clock", WALL) == WALL]
    virtual = [r for r in records if r.get("clock", WALL) != WALL]
    events: list[dict] = []

    def metadata(pid: int, process: str, tids: dict[str, int]) -> None:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": process},
        })
        for lane, tid in tids.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": lane},
            })

    def args_of(record: dict) -> dict:
        args = {"span_id": record["id"]}
        if record.get("parent"):
            args["parent"] = record["parent"]
        args.update(record.get("attrs") or {})
        return args

    if wall:
        tids = _lane_tids(r["lane"] for r in wall)
        metadata(_WALL_PID, "wall clock", tids)
        t0 = min(r["t0_ms"] for r in wall)
        for r in wall:
            base = {
                "name": r["name"], "pid": _WALL_PID, "tid": tids[r["lane"]],
                "ts": (r["t0_ms"] - t0) * 1e3, "args": args_of(r),
            }
            if r["dur_ms"] is None:
                events.append({**base, "ph": "i", "s": "t"})
            else:
                events.append({**base, "ph": "X", "dur": r["dur_ms"] * 1e3})

    if virtual:
        tids = _lane_tids(r["lane"] for r in virtual)
        metadata(_VIRTUAL_PID, "virtual clock", tids)
        for r in virtual:
            base = {
                "name": r["name"], "pid": _VIRTUAL_PID, "tid": tids[r["lane"]],
                "ts": r["t0_ms"] * 1e3, "args": args_of(r),
            }
            if r["dur_ms"] is None:
                events.append({**base, "ph": "i", "s": "t"})
            else:
                # Async begin/end pair: one client's requests overlap.
                events.append({**base, "ph": "b", "cat": r["name"], "id": r["id"]})
                events.append({
                    "ph": "e", "cat": r["name"], "id": r["id"], "name": r["name"],
                    "pid": _VIRTUAL_PID, "tid": tids[r["lane"]],
                    "ts": (r["t0_ms"] + r["dur_ms"]) * 1e3,
                })

    order = {"M": 0}
    events.sort(key=lambda e: (order.get(e["ph"], 1), e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_trace(path: str, tracer: Tracer) -> None:
    """Write a tracer's spans to ``path`` as Chrome trace JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer.spans), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _fmt_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _escape_label_value(value) -> str:
    # Exposition format escapes exactly backslash, double-quote and
    # newline inside label values (backslash first, or it re-escapes the
    # escapes it just produced).
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, _escape_label_value(v)) for k, v in merged.items()
    )
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Gauges carry their monotonic ``sample_ms`` stamp as the exposition
    format's optional sample timestamp, so a scraper can tell a fresh
    sample from a stale one even when the value is unchanged between
    scrapes.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for name, labels, series in registry.series():
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {series.kind}")
        if series.kind == "histogram":
            cumulative = series.cumulative()
            for bound, count in zip(series.buckets, cumulative):
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, {'le': _fmt_value(bound)})} {count}"
                )
            lines.append(f"{name}_bucket{_fmt_labels(labels, {'le': '+Inf'})} {cumulative[-1]}")
            lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(series.sum)}")
            lines.append(f"{name}_count{_fmt_labels(labels)} {series.count}")
        else:
            stamp = ""
            if series.kind == "gauge" and series.sample_ms is not None:
                stamp = f" {series.sample_ms}"
            lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(series.value)}{stamp}")
    return "\n".join(lines) + "\n" if lines else ""


def _split_sample_line(line: str) -> tuple[str, float, int | None]:
    """One exposition sample line as ``(series_key, value, timestamp)``.

    Label values may contain spaces, so the series key runs through the
    *last* ``}`` when labels are present; the remainder is the value plus
    the optional integer sample timestamp.  Raises ``ValueError`` on
    anything else.
    """
    if "}" in line:
        end = line.rindex("}") + 1
        series, rest = line[:end], line[end:].split()
    else:
        parts = line.split()
        series, rest = parts[0], parts[1:]
    if len(rest) == 1:
        return series, float(rest[0]), None
    if len(rest) == 2:
        return series, float(rest[0]), int(rest[1])
    raise ValueError(f"expected 'series value [timestamp]', got {line!r}")


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{"name{labels}": value}``.

    A deliberately small parser — enough for tests and the CI smoke job
    to assert the exposition is well-formed and specific series landed.
    Raises ``ValueError`` on any malformed line.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            if line.startswith("# TYPE"):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                    raise ValueError(f"line {lineno}: bad TYPE line {line!r}")
            continue
        try:
            series, value, _ = _split_sample_line(line)
            out[series] = value
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: bad sample line {line!r}") from exc
        if "{" in series and not series.endswith("}"):
            raise ValueError(f"line {lineno}: unbalanced labels in {line!r}")
    return out


_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}


def parse_prometheus_labels(series: str) -> tuple[str, dict[str, str]]:
    """Split a series key (``name{k="v",...}``) into name + labels.

    The inverse of ``_fmt_labels``: label values are unescaped
    (``\\\\`` → backslash, ``\\"`` → quote, ``\\n`` → newline), so a
    hostile label value survives the exposition round trip exactly.
    Raises ``ValueError`` on malformed label bodies.
    """
    if "{" not in series:
        return series, {}
    name, _, body = series.partition("{")
    if not body.endswith("}"):
        raise ValueError(f"unbalanced labels in {series!r}")
    body = body[:-1]
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    try:
        while i < n:
            j = body.index("=", i)
            key = body[i:j]
            if body[j + 1] != '"':
                raise ValueError
            i = j + 2
            out: list[str] = []
            while True:
                ch = body[i]
                if ch == "\\":
                    out.append(_UNESCAPE.get(body[i + 1], "\\" + body[i + 1]))
                    i += 2
                elif ch == '"':
                    i += 1
                    break
                else:
                    out.append(ch)
                    i += 1
            labels[key] = "".join(out)
            if i < n:
                if body[i] != ",":
                    raise ValueError
                i += 1
    except (ValueError, IndexError):
        raise ValueError(f"malformed label body in {series!r}") from None
    return name, labels


def parse_prometheus_snapshot(text: str) -> list[dict]:
    """Parse exposition text into registry-snapshot-shaped entries.

    The inverse of ``prometheus_text`` ∘ ``MetricsRegistry.snapshot``:
    counters/gauges come back as ``{"kind", "name", "labels", "value"}``
    and the ``_bucket``/``_sum``/``_count`` sample families of each
    histogram are reassembled into per-bucket (non-cumulative) counts —
    the shape ``merge()`` and the alert engine consume.  Series kinds
    come from the ``# TYPE`` lines.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float, int | None]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            if line.startswith("# TYPE"):
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: bad TYPE line {line!r}")
                types[parts[2]] = parts[3]
            continue
        try:
            series, value, stamp = _split_sample_line(line)
            name, labels = parse_prometheus_labels(series)
            samples.append((name, labels, value, stamp))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: bad sample line {line!r}") from exc

    def hist_base(name: str) -> str | None:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                if types.get(base) == "histogram":
                    return base
        return None

    entries: dict[tuple, dict] = {}
    hist_buckets: dict[tuple, list[tuple[float, int]]] = {}
    for name, labels, value, stamp in samples:
        base = hist_base(name)
        if base is not None:
            key_labels = {k: v for k, v in labels.items() if k != "le"}
            key = (base, tuple(sorted(key_labels.items())))
            entry = entries.setdefault(
                key,
                {
                    "kind": "histogram",
                    "name": base,
                    "labels": key_labels,
                    "buckets": [],
                    "counts": [],
                    "sum": 0.0,
                    "count": 0,
                },
            )
            if name.endswith("_bucket"):
                hist_buckets.setdefault(key, []).append(
                    (float(labels["le"]), int(value))
                )
            elif name.endswith("_sum"):
                entry["sum"] = value
            else:
                entry["count"] = int(value)
        else:
            kind = types.get(name, "gauge")
            key = (name, tuple(sorted(labels.items())))
            entries[key] = {
                "kind": kind,
                "name": name,
                "labels": labels,
                "value": value,
            }
            if kind == "gauge" and stamp is not None:
                entries[key]["sample_ms"] = stamp
    for key, bounds in hist_buckets.items():
        bounds.sort(key=lambda b: b[0])
        cumulative = [count for _, count in bounds]
        finite = [bound for bound, _ in bounds if bound != float("inf")]
        counts = [
            c - (cumulative[i - 1] if i else 0) for i, c in enumerate(cumulative)
        ]
        entries[key]["buckets"] = finite
        entries[key]["counts"] = counts
    return [entries[key] for key in sorted(entries)]


def export_metrics(path: str, registry: MetricsRegistry) -> None:
    """Write the registry to ``path`` in Prometheus text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))


# ---------------------------------------------------------------------------
# Chrome-trace validation (used by tests and the CI obs-smoke job)
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = {
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "pid", "tid", "ts"),
    "b": ("name", "pid", "tid", "ts", "id", "cat"),
    "e": ("name", "pid", "tid", "ts", "id", "cat"),
    "M": ("name", "pid", "args"),
}

# The documented span chain: what must appear among the ancestors of a
# leaf-ish span for the trace to count as properly nested.
_CHAIN_ANCESTORS = {
    "shard": {"frame", "job", "request"},
    "render": {"frame", "job", "request"},
    "frame": {"job", "request"},
    "decode": {"job", "request"},
}


def validate_chrome_trace(payload: dict, expect_lanes: Iterable[str] = ()) -> dict:
    """Check a Chrome-trace payload's schema; raise ``ValueError`` if bad.

    Verifies: well-formed events (required keys per phase), wall-clock
    spans properly nested per lane (no partial overlaps), every lane in
    ``expect_lanes`` present, every ``b`` has a matching ``e``, and every
    wall shard/render/decode/frame span sits under its documented
    request→job→frame ancestry.  Returns a small summary dict.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents missing or empty")

    lanes: dict[tuple[int, int], str] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"event {i} malformed: {event!r}")
        required = _REQUIRED_KEYS.get(event["ph"])
        if required is None:
            raise ValueError(f"event {i}: unknown phase {event['ph']!r}")
        missing = [k for k in required if k not in event]
        if missing:
            raise ValueError(f"event {i} ({event['ph']!r}) missing {missing}")
        if event["ph"] == "M" and event["name"] == "thread_name":
            lanes[(event["pid"], event["tid"])] = event["args"]["name"]

    lane_names = set(lanes.values())
    for lane in expect_lanes:
        if lane not in lane_names:
            raise ValueError(f"expected lane {lane!r} absent (have {sorted(lane_names)})")

    # Async begin/end pairing on the virtual track.
    open_async: dict[tuple, int] = {}
    for event in events:
        if event["ph"] == "b":
            key = (event["cat"], event["id"])
            open_async[key] = open_async.get(key, 0) + 1
        elif event["ph"] == "e":
            key = (event["cat"], event["id"])
            if open_async.get(key, 0) <= 0:
                raise ValueError(f"async end without begin: {key}")
            open_async[key] -= 1
    dangling = {k: v for k, v in open_async.items() if v}
    if dangling:
        raise ValueError(f"async begins without ends: {sorted(dangling)}")

    # Per-lane strict nesting of wall complete events + ancestry chains.
    span_names: dict[str, int] = {}
    by_lane: dict[tuple[int, int], list[dict]] = {}
    for event in events:
        if event["ph"] == "X":
            by_lane.setdefault((event["pid"], event["tid"]), []).append(event)
    for key, lane_events in by_lane.items():
        lane = lanes.get(key, str(key))
        lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[str, float]] = []  # (name, end_ts)
        for event in lane_events:
            end = event["ts"] + event["dur"]
            while stack and event["ts"] >= stack[-1][1] - _NEST_EPS_US:
                stack.pop()
            if stack and end > stack[-1][1] + _NEST_EPS_US:
                raise ValueError(
                    f"lane {lane!r}: span {event['name']!r} at ts={event['ts']:.1f} "
                    f"overlaps {stack[-1][0]!r} without nesting"
                )
            name = event["name"]
            span_names[name] = span_names.get(name, 0) + 1
            needed = _CHAIN_ANCESTORS.get(name)
            if needed is not None:
                ancestors = {n for n, _ in stack}
                if not needed <= ancestors:
                    raise ValueError(
                        f"lane {lane!r}: {name!r} span missing ancestors "
                        f"{sorted(needed - ancestors)} (stack: {[n for n, _ in stack]})"
                    )
            stack.append((name, end))

    return {
        "events": len(events),
        "lanes": sorted(lane_names, key=_lane_sort_key),
        "spans": dict(sorted(span_names.items())),
    }
