"""Trace analytics: critical paths, breakdowns, diffs — and determinism.

The analysis module is the read side of PR 7's tracing: every function
is a pure map from span records to a report, so these tests pin three
things: the *numbers* (exact self/child attribution on hand-built span
trees), the *robustness* (partial traces from killed workers analyze
without raising), and the *determinism* (repeated analysis of the same
trace — including one read back from its Chrome trace file — is
byte-identical JSON).
"""

from __future__ import annotations

import json

import pytest

from repro.exec import RenderExecutor
from repro.exec.frames import FrameRenderError
from repro.exec.worker import CRASH_ENV
from repro.obs import ObsContext, chrome_trace
from repro.obs.analysis import (
    KERNEL_STAGES,
    analyze,
    critical_path,
    diff_analyses,
    events_from_trace,
    lane_breakdown,
    load_trace,
    occupancy_timeline,
    queue_depth_timeline,
    records_from_chrome_trace,
    stage_breakdown,
)
from repro.obs.trace import VIRTUAL, WALL
from repro.serve.trajectories import RenderJob, make_trajectory

def span(sid, parent, name, lane, t0, dur, clock=WALL, **attrs):
    return {
        "id": sid,
        "parent": parent,
        "name": name,
        "lane": lane,
        "clock": clock,
        "t0_ms": float(t0),
        "dur_ms": None if dur is None else float(dur),
        "attrs": attrs,
    }


def tree():
    """request > job > two frames; the later frame carries kernel stages.

    frame s4 ends at 195 vs s3's 152, so it is the job's blocking child;
    inside it blend dominates.  Numbers chosen for exact attribution:
    request self = 100 - 98 = 2, job self = 98 - (50 + 40) = 8,
    frame s4 self = 40 - (2 + 1 + 35) = 2.
    """
    return [
        span("s1", None, "request", "main", 100.0, 100.0),
        span("s2", "s1", "job", "main", 101.0, 98.0),
        span("s3", "s2", "frame", "main", 102.0, 50.0),
        span("s4", "s2", "frame", "main", 155.0, 40.0),
        span("s5", "s4", "blend", "main", 156.0, 35.0),
        span("s6", "s4", "project", "main", 155.2, 2.0),
        span("s7", "s4", "pair_build", "main", 155.5, 1.0),
    ]


def quick_job(num_frames=2, **kwargs) -> RenderJob:
    return RenderJob(
        "train", make_trajectory("orbit", num_frames=num_frames), quick=True, **kwargs
    )


class TestCriticalPath:
    def test_blocking_chain_and_exact_attribution(self):
        path = critical_path(tree())
        assert path["root"] == "s1" and path["root_name"] == "request"
        assert [s["name"] for s in path["steps"]] == [
            "request", "job", "frame", "blend",
        ]
        assert path["leaf"] == "blend"
        assert path["total_ms"] == 100.0
        self_ms = {s["name"]: s["self_ms"] for s in path["steps"]}
        assert self_ms == {"request": 2.0, "job": 8.0, "frame": 2.0, "blend": 35.0}
        # t0 is rebased to the trace start; errors are absent here.
        assert path["steps"][0]["t0_ms"] == 0.0
        assert all(s["error"] is None for s in path["steps"])

    def test_descends_into_blocking_child_not_longest(self):
        # s3 (dur 50) is longer than s4 (dur 40) but s4 ends later — the
        # walk must follow end times, not durations.
        steps = critical_path(tree())["steps"]
        frame_step = steps[2]
        assert frame_step["dur_ms"] == 40.0

    def test_longest_request_root_wins(self):
        records = tree() + [span("s8", None, "request", "main", 0.0, 10.0)]
        assert critical_path(records)["root"] == "s1"

    def test_no_wall_spans_yields_null_root(self):
        virtual_only = [span("v1", None, "request", "scheduler", 0, 5, clock=VIRTUAL)]
        for records in ([], virtual_only):
            path = critical_path(records)
            assert path["root"] is None and path["steps"] == []

    def test_error_annotated_childless_request_is_one_step_path(self):
        records = [
            span("s1", None, "request", "worker-1", 0.0, 30.0,
                 error="worker process died", frame=1),
        ]
        path = critical_path(records)
        assert [s["name"] for s in path["steps"]] == ["request"]
        assert path["steps"][0]["error"] == "worker process died"
        assert path["leaf"] == "request"


class TestStageBreakdown:
    def test_aggregates_and_frame_attribution(self):
        report = stage_breakdown(tree())
        frame = report["stages"]["frame"]
        assert frame["count"] == 2
        assert frame["total_ms"] == 90.0
        assert frame["p50_ms"] == 45.0  # median of (40, 50)
        assert frame["max_ms"] == 50.0
        # self: s3 has no children (50), s4 loses its stages (40-38=2).
        assert frame["self_ms"] == 52.0
        attribution = report["frame_attribution"]
        assert attribution["frame_ms"] == 90.0
        assert attribution["kernel_stage_ms"] == 38.0
        assert attribution["per_stage"] == {
            "project": 2.0, "pair_build": 1.0, "boundary": 0.0, "sh": 0.0, "blend": 35.0,
        }
        assert attribution["attributed_fraction"] == round(38.0 / 90.0, 6)

    def test_empty_trace_attributes_nothing(self):
        report = stage_breakdown([])
        assert report["stages"] == {}
        assert report["frame_attribution"]["attributed_fraction"] == 0.0


class TestLaneBreakdown:
    def test_overlapping_spans_union_not_sum(self):
        records = [
            span("a", None, "request", "worker-0", 0.0, 10.0),
            span("b", None, "request", "worker-0", 5.0, 10.0),  # overlaps a
            span("c", None, "request", "worker-1", 0.0, 5.0),
        ]
        report = lane_breakdown(records)
        assert report["window_ms"] == 15.0
        assert report["lanes"]["worker-0"]["busy_ms"] == 15.0  # union of [0,15]
        assert report["lanes"]["worker-0"]["utilization"] == 1.0
        assert report["lanes"]["worker-1"]["busy_ms"] == 5.0
        assert report["lanes"]["worker-1"]["utilization"] == round(5 / 15, 6)

    def test_empty(self):
        assert lane_breakdown([]) == {"window_ms": 0.0, "lanes": {}}


class TestTimelines:
    def test_worker_occupancy_counts_concurrent_units(self):
        records = [
            span("a", None, "request", "worker-0", 0.0, 10.0),
            span("b", None, "request", "worker-1", 5.0, 10.0),
        ]
        timeline = occupancy_timeline(records)
        assert timeline["max"] == 2
        # 5 ms at depth 1, 5 ms at depth 2, 5 ms at depth 1 over 15 ms.
        assert timeline["mean"] == round((5 * 1 + 5 * 2 + 5 * 1) / 15.0, 6)
        assert timeline["samples"][0] == [0.0, 1]

    def test_sequential_falls_back_to_root_requests(self):
        timeline = occupancy_timeline(tree())
        assert timeline["max"] == 1

    def test_queue_depth_from_virtual_queue_wait_spans(self):
        records = [
            span("q1", None, "queue_wait", "scheduler", 0.0, 10.0, clock=VIRTUAL),
            span("q2", None, "queue_wait", "scheduler", 5.0, 10.0, clock=VIRTUAL),
        ]
        timeline = queue_depth_timeline(records)
        assert timeline["max"] == 2
        assert timeline["samples"][-1] == [15.0, 0]

    def test_wall_only_trace_has_empty_queue(self):
        assert queue_depth_timeline(tree()) == {"max": 0, "mean": 0.0, "samples": []}


class TestTraceLoading:
    def test_jsonl_and_bare_list_and_chrome(self, tmp_path):
        # Chrome trace JSON is the one trace file format; a JSON-lines span
        # dump is refused like any other unrecognised input.
        records = tree()
        jsonl = tmp_path / "spans.jsonl"
        jsonl.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError):
            load_trace(str(jsonl))

        chrome = tmp_path / "chrome.json"
        chrome.write_text(json.dumps(chrome_trace(records)))
        loaded = load_trace(str(chrome))
        assert {r["id"] for r in loaded} == {r["id"] for r in records}

    def test_unrecognised_payload_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('"just a string"')
        with pytest.raises(ValueError):
            load_trace(str(bad))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(tree()))
        with pytest.raises(ValueError):
            load_trace(str(bare))

    def test_chrome_round_trip_preserves_tree(self):
        records = tree()
        back = {r["id"]: r for r in records_from_chrome_trace(chrome_trace(records))}
        assert set(back) == {r["id"] for r in records}
        for original in records:
            restored = back[original["id"]]
            assert restored["parent"] == original["parent"]
            assert restored["name"] == original["name"]
            assert restored["lane"] == original["lane"]
            assert restored["clock"] == original["clock"]
            assert restored["dur_ms"] == pytest.approx(original["dur_ms"], abs=1e-6)

    def test_events_from_trace_recovers_decision_log(self):
        records = [
            span("i2", None, "complete", "scheduler", 700.0, None,
                 clock=VIRTUAL, e2e_ms=12.5, tier="lod0/lossless"),
            span("i1", None, "dispatch", "scheduler", 250.0, None,
                 clock=VIRTUAL, warmth="cold"),
            # Wall instants and spans must be excluded.
            span("w1", None, "lane_closed", "worker-0", 1.0, None, worker=0),
            span("s1", None, "request", "main", 0.0, 10.0),
        ]
        events = events_from_trace(records)
        assert [e["event"] for e in events] == ["dispatch", "complete"]
        assert events[1] == {
            "t_ms": 700.0, "event": "complete",
            "e2e_ms": 12.5, "tier": "lod0/lossless",
        }


class TestAnalyzeOnRealTraces:
    def test_executor_trace_attribution_and_byte_identical_repeat(self):
        obs = ObsContext.create()
        with RenderExecutor(num_workers=0, obs=obs) as executor:
            executor.submit(quick_job(2), trace={"request": "r1"}).result()
        records = obs.tracer.spans
        first = json.dumps(analyze(records), sort_keys=True)
        assert first == json.dumps(analyze(records), sort_keys=True)
        report = analyze(records)
        assert report["critical_path"]["root_name"] == "request"
        assert report["critical_path"]["leaf"] in KERNEL_STAGES + ("frame",)
        attribution = report["stages"]["frame_attribution"]
        assert attribution["attributed_fraction"] > 0.5
        assert report["lanes_closed"] == []

    def test_partial_trace_from_killed_worker_analyzes_cleanly(self, monkeypatch):
        # Satellite: an error-annotated request span plus a lane_closed
        # marker must yield a well-formed report, not a raise.
        monkeypatch.setenv(CRASH_ENV, "train:1")
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs) as executor:
            with pytest.raises(FrameRenderError):
                executor.submit(quick_job(3)).result(timeout=300)
        report = analyze(obs.tracer.spans)
        assert len(report["lanes_closed"]) == 1
        assert report["critical_path"]["root"] is not None
        assert report["critical_path"]["steps"]
        errors = [
            s
            for s in report["critical_path"]["steps"]
            if s["error"] and "worker process died" in s["error"]
        ]
        # The killed unit either IS the critical path (childless error
        # span) or sits off it; in both cases the stage table sees it.
        assert report["stages"]["stages"]["request"]["count"] >= 1
        assert errors or report["wall_spans"] > 0
        # Determinism holds for partial traces too.
        assert json.dumps(report, sort_keys=True) == json.dumps(
            analyze(obs.tracer.spans), sort_keys=True
        )

    def test_sharded_full_preset_attributes_kernel_stages(self):
        # A 2-worker, 2-shard run of the full train preset, read back from
        # its Chrome trace file format, attributes >= 80% of frame time to
        # named kernel stages, and re-analysing the file is byte-identical.
        job = RenderJob("train", make_trajectory("orbit", num_frames=2), shards=2)
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs) as executor:
            executor.submit(job).result(timeout=300)
        payload = json.loads(json.dumps(chrome_trace(obs.tracer.spans)))
        analysis = analyze(records_from_chrome_trace(payload))
        fraction = analysis["stages"]["frame_attribution"]["attributed_fraction"]
        assert fraction >= 0.80, fraction
        assert analysis["critical_path"]["root_name"] == "request"
        assert json.dumps(analysis, sort_keys=True) == json.dumps(
            analyze(records_from_chrome_trace(payload)), sort_keys=True
        )


class TestDiffEngine:
    def test_attributes_regression_to_slowest_stage(self):
        base = analyze(tree())
        slower = tree()
        for record in slower:
            if record["name"] == "blend":
                record["dur_ms"] += 20.0
            if record["name"] in ("frame", "job", "request") and record["id"] != "s3":
                record["dur_ms"] += 20.0
        current = analyze(slower)
        diff = diff_analyses(base, current)
        assert diff["critical_path_ms"]["delta"] == 20.0
        assert diff["stages"]["blend"]["delta_ms"] == 20.0
        assert diff["attribution"] == "blend"
        assert diff["regressions"][0] == "blend"
        assert diff["stages"]["pair_build"]["delta_ms"] == 0.0

    def test_no_regressions_attributes_none(self):
        base = analyze(tree())
        diff = diff_analyses(base, base)
        assert diff["regressions"] == [] and diff["attribution"] is None
        assert diff["critical_path_ms"]["delta"] == 0.0
