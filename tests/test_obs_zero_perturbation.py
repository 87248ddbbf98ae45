"""Observability is a pure side channel: outputs are bitwise unperturbed.

The one property that makes tracing safe to leave on: with an
:class:`ObsContext` attached, every contract-bearing output — rendered
images, statistics counters, the scheduler's decision log and report —
is *bitwise identical* to the same run without observability.  Anything
less and traces could never be trusted against committed replays.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.exec import RenderExecutor
from repro.obs import (
    CompositeObserver,
    MemoryAttributor,
    ObsContext,
    SpanStackTracker,
    StackSampler,
    TelemetryServer,
)
from repro.obs.health import Watchdog
from repro.sched.scheduler import RequestScheduler, run_workload
from repro.sched.workload import WorkloadSpec
from repro.serve.trajectories import RenderJob, make_trajectory

#: Two quick presets spanning the store dimensions: the lossless default
#: tier and a pruned+quantized tier (different codec path, LOD path).
PRESETS = (
    dict(lod=0, quant="lossless"),
    dict(lod=1, quant="compact"),
)


def quick_job(**kwargs) -> RenderJob:
    return RenderJob(
        "train", make_trajectory("orbit", num_frames=2), quick=True, **kwargs
    )


def _run(num_workers: int, obs, **preset):
    with RenderExecutor(num_workers=num_workers, obs=obs) as executor:
        return executor.submit(quick_job(**preset)).result(timeout=300)


def _assert_results_identical(plain, traced) -> None:
    assert [f.index for f in plain.frames] == [f.index for f in traced.frames]
    for a, b in zip(plain.frames, traced.frames):
        assert np.array_equal(a.image, b.image)
        assert type(a.stats) is type(b.stats)
        for field in dataclasses.fields(a.stats):
            va, vb = getattr(a.stats, field.name), getattr(b.stats, field.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), field.name
            else:
                assert va == vb, field.name
    assert plain.aggregate_counters() == traced.aggregate_counters()


class TestRenderPathUnperturbed:
    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: f"lod{p['lod']}-{p['quant']}")
    def test_sequential_bitwise_identical(self, preset):
        plain = _run(0, None, **preset)
        traced = _run(0, ObsContext.create(), **preset)
        _assert_results_identical(plain, traced)

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: f"lod{p['lod']}-{p['quant']}")
    def test_pool_bitwise_identical(self, preset):
        plain = _run(2, None, **preset)
        traced = _run(2, ObsContext.create(), **preset)
        _assert_results_identical(plain, traced)

    def test_gaussianwise_bitwise_identical(self):
        # The Gaussian-wise engine brackets four stages per depth group;
        # image and counters must not notice whether anything records them.
        plain = _run(0, None, dataflow="gaussianwise")
        obs = ObsContext.create()
        traced = _run(0, obs, dataflow="gaussianwise")
        assert {"boundary", "sh"} <= {span["name"] for span in obs.tracer.spans}
        _assert_results_identical(plain, traced)

    def test_sharded_bitwise_identical(self):
        plain = _run(2, None, shards=2)
        traced = _run(2, ObsContext.create(), shards=2)
        _assert_results_identical(plain, traced)

    def test_health_plane_polled_mid_run_bitwise_identical(self):
        # A hyper-sensitive watchdog classifying every worker slow plus
        # health() polls racing the job: all of it is report-only, so the
        # output must still be the plain run's exact bytes.
        plain = _run(2, None)
        watchdog = Watchdog(slow_after_s=1e-6, stalled_after_s=1e-3)
        obs = ObsContext.create()
        with RenderExecutor(num_workers=2, obs=obs, watchdog=watchdog) as executor:
            handle = executor.submit(quick_job())
            for _ in range(10):
                executor.health()  # mid-run polls must not perturb anything
            traced = handle.result(timeout=300)
            health = executor.health()
        assert health["mode"] == "pool" and len(health["workers"]) == 2
        _assert_results_identical(plain, traced)


def _live_plane(obs):
    """Attach the full telemetry plane to ``obs``: span tracker + memory
    attributor on the tracer's observer slot, a fast CPU sampler, and a
    started attributor.  Returns (sampler, memory); caller stops both."""
    tracker = SpanStackTracker()
    memory = MemoryAttributor()
    memory.start()
    obs.tracer.observer = CompositeObserver(tracker, memory)
    sampler = StackSampler(interval_s=0.002, tracker=tracker)
    sampler.start()
    return sampler, memory


def _hammer(base_url: str, stop: threading.Event, errors: list) -> None:
    """Scrape every endpoint in a tight loop until ``stop`` is set."""
    cursor = 0
    while not stop.is_set():
        try:
            for path in ("/metrics", "/health", f"/trace.jsonl?cursor={cursor}", "/"):
                with urllib.request.urlopen(base_url + path, timeout=30) as resp:
                    if path.startswith("/trace"):
                        cursor = int(resp.headers["X-Trace-Cursor"])
                    resp.read()
        except Exception as exc:  # noqa: BLE001 - surfaced via the assert
            errors.append(exc)
            return


class TestLiveTelemetryUnperturbed:
    def test_server_sampler_and_memory_attached_bitwise_identical(self):
        # The whole live plane at once — HTTP server, CPU sampler, memory
        # attributor, per-worker /proc sampling on replies — with three
        # scraper threads hammering every endpoint mid-run.  The output
        # must still be the plain run's exact bytes.
        plain = _run(2, None)
        obs = ObsContext.create()
        sampler, memory = _live_plane(obs)
        stop = threading.Event()
        errors: list = []
        try:
            with RenderExecutor(num_workers=2, obs=obs) as executor, TelemetryServer(
                "127.0.0.1",
                0,
                tracer=obs.tracer,
                metrics_fn=executor.collect_metrics,
                health_fn=executor.health,
                sampler=sampler,
                memory=memory,
            ) as server:
                base = f"http://{server.address}"
                scrapers = [
                    threading.Thread(target=_hammer, args=(base, stop, errors))
                    for _ in range(3)
                ]
                for thread in scrapers:
                    thread.start()
                traced = executor.submit(quick_job()).result(timeout=300)
                stop.set()
                for thread in scrapers:
                    thread.join()
        finally:
            stop.set()
            sampler.stop()
            memory.stop()
        assert not errors, errors
        _assert_results_identical(plain, traced)

    def test_scheduler_decision_log_identical_under_scraping(self):
        spec = WorkloadSpec(
            arrival="bursty", rate_rps=8, duration_s=3, num_clients=2, slo_ms=250, seed=0
        )
        plain = run_workload(spec, RequestScheduler(quick=True))
        obs = ObsContext.create()
        sampler, memory = _live_plane(obs)
        stop = threading.Event()
        errors: list = []
        try:
            scheduler = RequestScheduler(quick=True, obs=obs)
            with TelemetryServer(
                "127.0.0.1",
                0,
                tracer=obs.tracer,
                metrics_fn=scheduler.live_metrics,
                health_fn=scheduler.health,
                sampler=sampler,
                memory=memory,
            ) as server:
                scraper = threading.Thread(
                    target=_hammer, args=(f"http://{server.address}", stop, errors)
                )
                scraper.start()
                traced = run_workload(spec, scheduler)
                stop.set()
                scraper.join()
        finally:
            stop.set()
            sampler.stop()
            memory.stop()
        assert not errors, errors
        assert json.dumps(plain.log.events) == json.dumps(traced.log.events)
        assert json.dumps(
            plain.summary(include_events=True), sort_keys=True
        ) == json.dumps(traced.summary(include_events=True), sort_keys=True)


class TestSchedulerUnperturbed:
    SPEC = WorkloadSpec(
        arrival="bursty", rate_rps=8, duration_s=3, num_clients=2, slo_ms=250, seed=0
    )

    def test_decision_log_and_report_identical(self):
        plain = run_workload(self.SPEC, RequestScheduler(quick=True))
        obs = ObsContext.create()
        traced = run_workload(self.SPEC, RequestScheduler(quick=True, obs=obs))
        # The decision log — the committed replay artifact — is equal as a
        # list of dicts AND as serialized bytes.
        assert plain.log.events == traced.log.events
        assert json.dumps(plain.log.events) == json.dumps(traced.log.events)
        assert json.dumps(
            plain.summary(include_events=True), sort_keys=True
        ) == json.dumps(traced.summary(include_events=True), sort_keys=True)
        # ... while the traced run actually produced a trace.
        assert len(obs.tracer) > 0
