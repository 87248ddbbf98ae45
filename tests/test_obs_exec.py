"""Observability through the executor: span chains, lanes, crash flushes.

The executor is where tracing crosses a process boundary — workers record
into private tracers and piggyback drained spans on the result pipe — so
this file checks the properties that boundary could break: the span chain
(request > job > frame > shard, with kernel stages underneath) survives
re-parenting, worker spans land on the right per-worker lane, worker
metrics merge into the parent's registry, and a worker crash mid-span
still flushes a partial trace (error-annotated request span, lane-closed
marker) without hanging the dispatcher.
"""

from __future__ import annotations

import time

import pytest

from repro.exec import RenderExecutor
from repro.exec.frames import FrameRenderError
from repro.exec.worker import CRASH_ENV
from repro.obs import ObsContext, chrome_trace, validate_chrome_trace
from repro.render.kernels import GROUP_WINDOW
from repro.serve.trajectories import RenderJob, make_trajectory


def quick_job(num_frames: int = 2, **kwargs) -> RenderJob:
    return RenderJob(
        "train", make_trajectory("orbit", num_frames=num_frames), quick=True, **kwargs
    )


def spans_by_name(tracer) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for span in tracer.spans:
        out.setdefault(span["name"], []).append(span)
    return out


class TestSequentialTracing:
    def test_span_chain_and_kernel_stages(self):
        obs = ObsContext.create()
        with RenderExecutor(num_workers=0, obs=obs) as executor:
            executor.submit(quick_job(2), trace={"request": "r1"}).result()
        named = spans_by_name(obs.tracer)
        # The pool's shape: one request > job > frame > render chain per
        # work unit, kernel stages under render.
        for name in ("request", "job", "frame", "render", "project", "pair_build", "blend"):
            assert len(named[name]) == 2, name
        ids = {name: {s["id"] for s in named[name]} for name in ("request", "job", "frame", "render")}
        assert all(s["parent"] in ids["request"] for s in named["job"])
        assert all(s["parent"] in ids["job"] for s in named["frame"])
        assert all(s["parent"] in ids["frame"] for s in named["render"])
        assert all(s["parent"] in ids["render"] for s in named["blend"])
        assert [s["attrs"]["frame"] for s in named["request"]] == [0, 1]
        assert all(s["attrs"]["request"] == "r1" for s in named["request"])
        assert all(s["lane"] == "main" for s in obs.tracer.spans)

    def test_gaussianwise_stages_cover_the_frame(self):
        # The Gaussian-wise engine brackets Stage II and Algorithm 1 once per
        # window of GROUP_WINDOW depth groups, and SH and blending once per
        # processed group; together they must account for the frame (what is
        # left is Stage I grouping, the sort and the final composite).  A
        # window is projected whole, so up to GROUP_WINDOW - 1 groups past
        # termination are projected, never processed.
        obs = ObsContext.create()
        with RenderExecutor(num_workers=0, obs=obs) as executor:
            result = executor.submit(quick_job(1, dataflow="gaussianwise")).result()
        named = spans_by_name(obs.tracer)
        (frame,) = named["frame"]
        (render,) = named["render"]
        assert render["parent"] == frame["id"]
        stats = result.frames[0].stats
        groups = stats.num_groups_processed
        assert groups > 1 and "pair_build" not in named
        windows = -(-groups // GROUP_WINDOW)
        assert len(named["boundary"]) == len(named["project"]) == windows
        stages = [s for name in ("project", "boundary", "sh", "blend") for s in named[name]]
        assert len(named["sh"]) == len(named["blend"]) <= groups
        # Valid nesting: every stage is a child of the render span, inside
        # the frame's interval, and stages never overlap one another.
        assert all(s["parent"] == render["id"] for s in stages)
        stages.sort(key=lambda s: s["t0_ms"])
        assert stages[0]["t0_ms"] >= frame["t0_ms"]
        assert stages[-1]["t0_ms"] + stages[-1]["dur_ms"] <= frame["t0_ms"] + frame["dur_ms"]
        for before, after in zip(stages, stages[1:]):
            assert before["t0_ms"] + before["dur_ms"] <= after["t0_ms"]
        assert sum(s["dur_ms"] for s in stages) >= 0.90 * frame["dur_ms"]
        validate_chrome_trace(chrome_trace(obs.tracer.spans))

    def test_stage_hook_restored_after_job(self):
        from repro.render.kernels import NullStageHook, stage_hook

        obs = ObsContext.create()
        with RenderExecutor(num_workers=0, obs=obs) as executor:
            executor.submit(quick_job(1)).result()
        assert isinstance(stage_hook(), NullStageHook)

    def test_decode_span_and_cache_metrics(self):
        obs = ObsContext.create()
        with RenderExecutor(num_workers=0, obs=obs) as executor:
            executor.submit(quick_job(1)).result()  # cold: decode happens
            executor.submit(quick_job(1)).result()  # warm: resident
            metrics = executor.collect_metrics()
        named = spans_by_name(obs.tracer)
        assert len(named["decode"]) == 1  # resident cache: decoded once
        assert metrics.value("repro_scene_cache_hits_total") == 1
        assert metrics.value("repro_scene_cache_misses_total") == 1
        assert metrics.value("repro_frames_rendered_total") == 2
        assert metrics.value("repro_cache_hit_ratio") == 0.5


class TestPoolTracing:
    def test_worker_lanes_and_nested_worker_spans(self):
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs) as executor:
            executor.submit(quick_job(2, shards=2), trace={"request": "r2"}).result(
                timeout=300
            )
        named = spans_by_name(obs.tracer)
        # One dispatch-envelope request span per work unit, on worker lanes.
        units = [s for s in named["request"] if s["lane"].startswith("worker-")]
        assert len(units) == 4  # 2 frames x 2 shards
        unit_ids = {s["id"] for s in units}
        # Worker-side roots were re-parented under their dispatch envelope.
        assert all(s["parent"] in unit_ids for s in named["job"])
        assert len(named["shard"]) == 4
        # Shard spans inherit the worker lane of their enclosing tree.
        lanes = {s["lane"] for s in named["shard"]}
        assert lanes <= {"worker-0", "worker-1"}
        # The whole thing exports and validates as a Chrome trace.
        info = validate_chrome_trace(
            chrome_trace(obs.tracer.spans), expect_lanes=["worker-0", "worker-1"]
        )
        assert info["spans"]["shard"] == 4

    def test_spawned_worker_stamps_on_the_parents_timeline(self, monkeypatch):
        # A spawned worker imports the span clock afresh; if it read its own
        # epoch anchor, a wall clock that stepped since the parent's import
        # (modelled here as an hour's offset) would throw every one of its
        # spans out of the parent's dispatch window for its whole lifetime.
        from repro.obs import trace

        monkeypatch.setattr(trace, "_EPOCH_ANCHOR_NS", trace._EPOCH_ANCHOR_NS + 3_600 * 10**9)
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs, mp_context="spawn") as executor:
            executor.submit(quick_job(2)).result(timeout=300)
        units = {s["id"]: s for s in spans_by_name(obs.tracer)["request"]}
        jobs = [s for s in obs.tracer.spans if s["name"] == "job" and s["parent"] in units]
        assert len(jobs) == 2
        for job in jobs:
            unit = units[job["parent"]]
            assert unit["t0_ms"] <= job["t0_ms"]
            assert job["t0_ms"] + job["dur_ms"] <= unit["t0_ms"] + unit["dur_ms"] + 1e-3
        validate_chrome_trace(chrome_trace(obs.tracer.spans))

    def test_worker_metrics_collected_into_parent(self):
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs) as executor:
            executor.submit(quick_job(3)).result(timeout=300)
            mid_run = executor.collect_metrics()
            assert mid_run.value("repro_frames_rendered_total") == 3
        # After shutdown the snapshots were flushed into obs.metrics too.
        assert obs.metrics.value("repro_frames_rendered_total") == 3
        assert obs.metrics.value("repro_published_payloads_total") == 1

    def test_untraced_executor_records_nothing(self):
        with RenderExecutor(num_workers=2) as executor:
            executor.submit(quick_job(2)).result(timeout=300)
            assert len(executor.collect_metrics().snapshot()) == 0


class TestCrashFlush:
    def test_crash_mid_span_flushes_partial_trace(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "train:1")
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs) as executor:
            with pytest.raises(FrameRenderError):
                executor.submit(quick_job(3)).result(timeout=300)
            # The dispatcher healed; a follow-up job traces normally.
            executor.submit(quick_job(1)).result(timeout=300)
            assert executor.stats.workers_replaced == 1
        named = spans_by_name(obs.tracer)
        # The in-flight dispatch of the killed worker became an
        # error-annotated request span, and its lane close is marked.
        errors = [
            s
            for s in named["request"]
            if "worker process died" in str(s["attrs"].get("error", ""))
        ]
        assert len(errors) == 1
        assert errors[0]["attrs"]["frame"] == 1
        (closed,) = named["lane_closed"]
        assert closed["lane"] == errors[0]["lane"]
        # Surviving-worker spans for the pre-crash and follow-up frames
        # still made it back — the crash lost only the dying worker's task.
        ok_units = [s for s in named["request"] if "error" not in s["attrs"]]
        assert len(ok_units) >= 1
        # The trace still exports and validates.
        validate_chrome_trace(chrome_trace(obs.tracer.spans))

    def test_crash_metrics_survive_via_latest_snapshot(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "train:2")
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs) as executor:
            with pytest.raises(FrameRenderError):
                executor.submit(quick_job(3)).result(timeout=300)
            # The crash fails the job as soon as the dead pipe is seen; the
            # surviving worker's frame-1 reply may still be in flight, so
            # poll until the dispatcher has ingested it.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                metrics = executor.collect_metrics()
                if metrics.value("repro_frames_rendered_total") == 2:
                    break
                time.sleep(0.05)
        # Frames 0 and 1 replied before the frame-2 crash; the cumulative
        # snapshots those replies shipped survive the worker's death (one
        # of the two workers died without replying for frame 2).
        assert metrics.value("repro_frames_rendered_total") == 2
        assert metrics.value("repro_workers_replaced_total") == 1
