"""Core observability primitives: tracer, metrics registry, exporters.

These are the layer-independent contracts everything above builds on: span
identity and nesting through the thread-local stack, cross-process metric
merge (commutative + associative, so collection order never changes
totals), exporter round-trips, and the structured event log's byte-level
compatibility with the scheduler's historic ``EventLog`` entries.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import time

import pytest

from repro.obs import (
    VIRTUAL,
    WALL,
    MetricsRegistry,
    ObsContext,
    StructuredEventLog,
    Tracer,
    TracerStageHook,
    chrome_trace,
    parse_prometheus_snapshot,
    parse_prometheus_text,
    prometheus_text,
    validate_chrome_trace,
)

#: Label values exercising every escape the exposition format defines
#: (backslash, double quote, newline) plus innocent-looking separators.
HOSTILE_LABELS = (
    'back\\slash',
    'quo"te',
    'new\nline',
    'all\\three"at\nonce',
    'comma,equals=brace}',
)


class TestTracer:
    def test_span_ids_are_origin_scoped_and_sequential(self):
        tracer = Tracer(origin="t")
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s["id"] for s in tracer.spans] == ["t:1", "t:2"]

    def test_nested_spans_link_parent_and_inherit_lane(self):
        tracer = Tracer(default_lane="main")
        with tracer.span("outer", lane="worker-3") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = {s["name"]: s for s in tracer.spans}
        assert spans["inner"]["parent"] == outer.span_id
        assert spans["inner"]["lane"] == "worker-3"  # inherited, not default
        assert spans["outer"]["parent"] is None
        assert inner.span_id != outer.span_id

    def test_span_times_nest_and_clock_is_wall(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sorted(tracer.spans, key=lambda s: s["name"])
        assert outer["clock"] == WALL
        assert outer["t0_ms"] <= inner["t0_ms"]
        # Epoch milliseconds in a float resolve ~0.25 us; allow one step.
        assert inner["t0_ms"] + inner["dur_ms"] <= outer["t0_ms"] + outer["dur_ms"] + 1e-3

    def test_spans_nest_under_a_backwards_stepping_wall_clock(self, monkeypatch):
        # Span starts and durations come from one monotonic counter anchored
        # to the epoch once per process, so a wall clock that is slewed or
        # stepped back between two reads (seen on VMs) cannot make a child
        # start before, or end after, its parent.
        steps = itertools.count()
        real_time_ns = time.time_ns
        monkeypatch.setattr(time, "time_ns", lambda: real_time_ns() - next(steps) * 50_000_000)
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        first, second, outer = tracer.spans
        assert outer["t0_ms"] <= first["t0_ms"] <= second["t0_ms"]
        assert first["t0_ms"] + first["dur_ms"] <= second["t0_ms"] + 1e-3
        assert second["t0_ms"] + second["dur_ms"] <= outer["t0_ms"] + outer["dur_ms"] + 1e-3
        validate_chrome_trace(chrome_trace(tracer.spans))

    def test_exception_annotates_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span["attrs"]["error"] == "ValueError"

    def test_instant_records_zero_duration_event(self):
        tracer = Tracer()
        tracer.instant("tick", t_ms=12.5, clock=VIRTUAL, attrs={"k": 1})
        (record,) = tracer.spans
        assert record["dur_ms"] is None
        assert record["clock"] == VIRTUAL
        assert record["t0_ms"] == 12.5

    def test_drain_empties_and_preserves_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [s["name"] for s in drained] == ["a"]
        assert len(tracer) == 0

    def test_ingest_reparents_roots_and_overrides_lane(self):
        worker = Tracer(origin="w0", default_lane="worker-0")
        with worker.span("job"):
            with worker.span("frame"):
                pass
        parent = Tracer()
        unit = parent.record("request", lane="worker-0", t0_ms=0.0, dur_ms=5.0)
        parent.ingest(worker.drain(), parent=unit)
        spans = {s["name"]: s for s in parent.spans}
        assert spans["job"]["parent"] == unit  # root re-parented
        assert spans["frame"]["parent"] == spans["job"]["id"]  # child untouched
        assert spans["job"]["lane"] == "worker-0"

    def test_stage_hook_lands_on_enclosing_lane(self):
        tracer = Tracer(default_lane="main")
        hook = TracerStageHook(tracer)
        with tracer.span("frame", lane="worker-1"):
            with hook.stage("blend", tiles=7):
                pass
        spans = {s["name"]: s for s in tracer.spans}
        assert spans["blend"]["lane"] == "worker-1"
        assert spans["blend"]["parent"] == spans["frame"]["id"]
        assert spans["blend"]["attrs"] == {"tiles": 7}


def _count_in_subprocess(conn, amounts):
    registry = MetricsRegistry()
    for amount in amounts:
        registry.counter("work_total", {"kind": "sub"}).inc(amount)
        registry.histogram("latency_ms").observe(amount)
    conn.send(registry.snapshot())
    conn.close()


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        assert registry.value("c") == 3
        assert registry.value("g") == 1.5
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3 and hist.sum == 55.5
        assert hist.cumulative() == [1, 2, 3]

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("req", {"status": "ok"}).inc()
        registry.counter("req", {"status": "shed"}).inc(4)
        assert registry.value("req", {"status": "ok"}) == 1
        assert registry.labeled_values("req") == [
            ({"status": "ok"}, 1),
            ({"status": "shed"}, 4),
        ]

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b.snapshot())
        assert a.value("c") == 5
        assert a.histogram("h", buckets=(1.0,)).counts == [1, 1]

    def test_merge_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_merge_associative_across_process_snapshots(self):
        """Snapshots from real child processes merge to the same totals in
        any grouping/order — the property that makes worker collection
        order (and mid-run vs shutdown flushes) immaterial."""
        snapshots = []
        for amounts in ([1.0, 2.0], [10.0], [100.0, 0.5, 3.0]):
            recv, send = mp.Pipe(duplex=False)
            proc = mp.Process(target=_count_in_subprocess, args=(send, amounts))
            proc.start()
            send.close()  # our copy, so a dead child raises EOFError below
            assert recv.poll(30), "subprocess never produced a snapshot"
            snapshots.append(recv.recv())
            proc.join(timeout=30)
            assert proc.exitcode == 0

        def merged(order):
            registry = MetricsRegistry()
            for snap in order:
                registry.merge(snap)
            return registry.snapshot()

        s0, s1, s2 = snapshots
        left = merged([s0, s1, s2])
        right = merged([s2, s0, s1])
        assert left == right
        # (a + b) + c == a + (b + c): pre-merge b+c into one registry first.
        bc = MetricsRegistry()
        bc.merge(s1)
        bc.merge(s2)
        assert merged([s0, bc.snapshot()]) == left


class TestExporters:
    def _tracer(self):
        tracer = Tracer(default_lane="main")
        with tracer.span("request", attrs={"request": "r1"}):
            with tracer.span("job"):
                pass
        tracer.instant("dispatch", lane="scheduler", t_ms=3.0, clock=VIRTUAL)
        return tracer

    def test_chrome_trace_shape_and_validation(self):
        payload = chrome_trace(self._tracer().spans)
        assert payload["displayTimeUnit"] == "ms"
        info = validate_chrome_trace(payload, expect_lanes=["main"])
        assert info["spans"] == {"request": 1, "job": 1}
        assert "scheduler" in info["lanes"]

    def test_validation_rejects_missing_lane(self):
        payload = chrome_trace(self._tracer().spans)
        with pytest.raises(ValueError, match="worker-9"):
            validate_chrome_trace(payload, expect_lanes=["worker-9"])

    def test_spans_are_recorded_in_exit_order(self):
        tracer = self._tracer()
        # Records append on span *exit*, so the inner job precedes request.
        assert [record["name"] for record in tracer.spans] == [
            "job",
            "request",
            "dispatch",
        ]

    def test_prometheus_text_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("repro_reqs_total", {"status": "ok"}).inc(7)
        registry.gauge("repro_ratio").set(0.25)
        registry.histogram("repro_lat_ms", buckets=(1.0, 10.0)).observe(5.0)
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert parsed['repro_reqs_total{status="ok"}'] == 7
        assert parsed["repro_ratio"] == 0.25
        assert parsed['repro_lat_ms_bucket{le="+Inf"}'] == 1
        assert parsed["repro_lat_ms_sum"] == 5.0

    def test_prometheus_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not exposition format\n")

    def test_hostile_label_values_round_trip(self):
        # Backslashes, quotes and newlines in label values must survive
        # exposition escaping and come back verbatim through the parser.
        registry = MetricsRegistry()
        for i, value in enumerate(HOSTILE_LABELS):
            registry.counter("repro_hostile_total", {"scene": value}).inc(i + 1)
        text = prometheus_text(registry)
        assert "\n\n" not in text.strip()  # newlines escaped, not emitted
        parsed = parse_prometheus_snapshot(text)
        assert [e["labels"]["scene"] for e in parsed] == sorted(HOSTILE_LABELS)
        assert {e["labels"]["scene"]: e["value"] for e in parsed} == {
            value: i + 1 for i, value in enumerate(HOSTILE_LABELS)
        }

    def test_snapshot_round_trips_through_exposition(self):
        # parse_prometheus_snapshot is the exact inverse of
        # prometheus_text on a full registry: counters, gauges and
        # histograms, hostile labels included.
        registry = MetricsRegistry()
        registry.counter("repro_reqs_total", {"status": 'o"k\\\n'}).inc(7)
        registry.gauge("repro_ratio").set(0.25)
        hist = registry.histogram("repro_lat_ms", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        assert parse_prometheus_snapshot(prometheus_text(registry)) == snapshot

    def test_obs_context_bundles_fresh_collectors(self):
        a, b = ObsContext.create(), ObsContext.create()
        a.metrics.counter("c").inc()
        assert b.metrics.value("c") is None
        assert a.tracer is not b.tracer


class TestStructuredEventLog:
    def test_entry_construction_matches_legacy_bytes(self):
        """The migrated scheduler EventLog must build entries exactly as the
        hand-rolled one did — key order, rounding, field pass-through — so
        committed decision-log replays stay byte-identical."""
        log = StructuredEventLog()
        log.emit(12.3456789, "dispatch", request="r1", tier="lod0/lossless")
        log.emit(20, "shed", reason="queue_full")
        expected = [
            {"t_ms": 12.345679, "event": "dispatch", "request": "r1", "tier": "lod0/lossless"},
            {"t_ms": 20.0, "event": "shed", "reason": "queue_full"},
        ]
        assert log.events == expected
        assert json.dumps(log.events) == json.dumps(expected)

    def test_counts_and_len(self):
        log = StructuredEventLog()
        log.emit(1.0, "a")
        log.emit(2.0, "a")
        log.emit(3.0, "b")
        assert log.counts() == {"a": 2, "b": 1}
        assert len(log) == 3

    def test_sinks_tee_without_changing_entries(self):
        seen = []
        log = StructuredEventLog(sinks=(seen.append,))
        entry = log.emit(5.0, "tier_down", from_tier="x")
        assert seen == [entry]
        late = []
        log.add_sink(late.append)
        log.emit(6.0, "tier_up")
        assert len(seen) == 2 and len(late) == 1
        assert log.events[0] == {"t_ms": 5.0, "event": "tier_down", "from_tier": "x"}
