"""The live telemetry HTTP plane: endpoints, cursors, concurrency.

Every test binds an ephemeral port on loopback (``port 0``) and talks to
the server with stdlib ``urllib`` — the same way the CI smoke job and
any external Prometheus scraper would.  The server only ever *reads*
observability state, so tests freely hammer it while work executes.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.exec import RenderExecutor
from repro.exec.worker import STALL_ENV
from repro.obs import (
    MetricsRegistry,
    ObsContext,
    SpanStackTracker,
    StackSampler,
    TelemetryServer,
    parse_listen,
)
from repro.obs.exporters import parse_prometheus_snapshot
from repro.obs.health import LIVE, STALLED, Watchdog
from repro.sched.scheduler import RequestScheduler, SchedulerPolicy, run_workload
from repro.sched.workload import WorkloadSpec
from repro.serve.trajectories import RenderJob, make_trajectory


def _get(url: str):
    """GET ``url`` → (status, headers, body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, dict(exc.headers), body


class TestParseListen:
    def test_host_and_port(self):
        assert parse_listen("0.0.0.0:8377") == ("0.0.0.0", 8377)

    def test_empty_host_means_loopback(self):
        assert parse_listen(":9000") == ("127.0.0.1", 9000)

    def test_port_zero_is_allowed(self):
        assert parse_listen("127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["8377", "host:port", "h:99999", "h:-1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_listen(bad)


class TestEndpoints:
    def _server(self, **kwargs) -> TelemetryServer:
        kwargs.setdefault("tracer", ObsContext.create().tracer)
        return TelemetryServer("127.0.0.1", 0, **kwargs)

    def test_metrics_parses_and_counts_requests(self):
        live = MetricsRegistry()
        live.counter("repro_frames_rendered_total").inc(5)
        with self._server(metrics_fn=lambda: live) as server:
            base = f"http://{server.address}"
            _get(base + "/metrics")
            status, headers, body = _get(base + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        entries = parse_prometheus_snapshot(body.decode())
        by_key = {(e["name"], tuple(sorted(e["labels"].items()))): e for e in entries}
        assert by_key[("repro_frames_rendered_total", ())]["value"] == 5
        # The second scrape sees the first one's request counter.
        counted = by_key[
            (
                "repro_http_requests_total",
                (("code", "200"), ("endpoint", "/metrics")),
            )
        ]
        assert counted["value"] >= 1
        # The serving process's own RSS rides every scrape.
        assert ("repro_process_rss_bytes", ()) in by_key

    def test_health_wraps_the_snapshot(self):
        with self._server(health_fn=lambda: {"mode": "pool", "workers": []}) as server:
            status, _, body = _get(f"http://{server.address}/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["health"] == {"mode": "pool", "workers": []}
        assert payload["listen"] == server.address
        assert payload["profiler_running"] is False

    def test_trace_cursor_resumption(self):
        obs = ObsContext.create()
        for i in range(3):
            obs.tracer.instant(f"e{i}", t_ms=float(i))
        with self._server(tracer=obs.tracer) as server:
            base = f"http://{server.address}/trace.jsonl"
            status, headers, body = _get(base)
            assert status == 200
            assert len(body.splitlines()) == 3
            cursor = int(headers["X-Trace-Cursor"])
            # Nothing new yet: the tail from the cursor is empty.
            _, headers2, body2 = _get(f"{base}?cursor={cursor}")
            assert body2 == b""
            assert int(headers2["X-Trace-Cursor"]) == cursor
            # New spans appear exactly once on the next resumed fetch.
            obs.tracer.instant("late", t_ms=9.0)
            _, headers3, body3 = _get(f"{base}?cursor={cursor}")
            lines = body3.splitlines()
            assert [json.loads(l)["name"] for l in lines] == ["late"]
            assert int(headers3["X-Trace-Cursor"]) == cursor + 1

    def test_timeline_html(self):
        obs = ObsContext.create()
        obs.tracer.record("request", t0_ms=0.0, dur_ms=5.0)
        with self._server(tracer=obs.tracer) as server:
            status, headers, body = _get(f"http://{server.address}/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"<html" in body or b"<!DOCTYPE" in body

    def test_profile_text_and_json(self):
        with self._server() as server:
            base = f"http://{server.address}/profile"
            status, headers, _ = _get(f"{base}?seconds=0.05")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            status, _, body = _get(f"{base}?seconds=0.05&format=json")
        assert status == 200
        payload = json.loads(body)
        assert set(payload) >= {"attribution", "collapsed", "seconds"}
        assert set(payload["attribution"]) == {
            "total",
            "idle",
            "active",
            "stages",
            "attributed_fraction",
        }

    def test_not_found_and_bad_request(self):
        with self._server() as server:
            base = f"http://{server.address}"
            assert _get(base + "/nope")[0] == 404
            assert _get(base + "/trace.jsonl?cursor=abc")[0] == 400
            assert _get(base + "/trace.jsonl?cursor=-1")[0] == 400
            assert _get(base + "/profile?seconds=abc")[0] == 400
            assert _get(base + "/profile?seconds=0")[0] == 400
            assert _get(base + "/profile?seconds=1e9")[0] == 400
            # Errors are machine-readable JSON.
            _, _, body = _get(base + "/nope")
            assert "error" in json.loads(body)

    def test_concurrent_scrapes(self):
        live = MetricsRegistry()
        live.counter("repro_frames_rendered_total").inc()
        with self._server(metrics_fn=lambda: live) as server:
            base = f"http://{server.address}"
            results = []
            errors = []

            def scrape():
                try:
                    for path in ("/metrics", "/health", "/trace.jsonl"):
                        results.append(_get(base + path)[0])
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == 24 and set(results) == {200}

    def test_ephemeral_port_resolves(self):
        server = self._server()
        assert server.port == 0
        with server:
            assert server.port != 0


class TestLiveSchedRun:
    """Scrape an actually-executing scheduler run, tailing the trace."""

    SPEC = WorkloadSpec(
        arrival="poisson", rate_rps=12, duration_s=2, num_clients=2, slo_ms=250, seed=0
    )

    def test_cursor_tail_collects_every_span_exactly_once(self):
        obs = ObsContext.create()
        tracker = SpanStackTracker()
        obs.tracer.observer = tracker
        sampler = StackSampler(interval_s=0.002, tracker=tracker)
        sampler.start()
        scheduler = RequestScheduler(
            policy=SchedulerPolicy(num_workers=0),
            quick=True,
            execute=True,
            obs=obs,
        )
        collected: list[dict] = []
        statuses: list[int] = []
        try:
            with scheduler, TelemetryServer(
                "127.0.0.1",
                0,
                tracer=obs.tracer,
                metrics_fn=scheduler.live_metrics,
                health_fn=scheduler.health,
                sampler=sampler,
            ) as server:
                base = f"http://{server.address}"
                done = threading.Event()

                def tail():
                    cursor = 0
                    while True:
                        # Read the flag before the fetch: the last fetch
                        # must start after the run has recorded its last
                        # span, or spans closed in between are never seen.
                        finished = done.is_set()
                        status, headers, body = _get(
                            f"{base}/trace.jsonl?cursor={cursor}"
                        )
                        statuses.append(status)
                        for line in body.splitlines():
                            collected.append(json.loads(line))
                        cursor = int(headers["X-Trace-Cursor"])
                        if finished:
                            return
                        statuses.append(_get(base + "/metrics")[0])

                tailer = threading.Thread(target=tail)
                tailer.start()
                report = run_workload(self.SPEC, scheduler)
                done.set()
                tailer.join()
        finally:
            sampler.stop()
        assert report.summary()["requests"]["completed"] > 0
        assert set(statuses) == {200}
        # The incremental tail saw every span exactly once: same ids as
        # the tracer's final record list, no duplicates.
        final_ids = [span["id"] for span in obs.tracer.spans]
        tailed_ids = [span["id"] for span in collected]
        assert len(tailed_ids) == len(set(tailed_ids))
        assert tailed_ids == final_ids

    def test_health_endpoint_classifies_injected_stalled_worker(self, monkeypatch):
        # The acceptance path: an external scraper watching /health sees
        # the watchdog call an injected stall "stalled" while the task is
        # stuck — the same classification health() reports in-process.
        import time

        monkeypatch.setenv(STALL_ENV, "train:1:1.0")
        watchdog = Watchdog(slow_after_s=0.05, stalled_after_s=0.2)
        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=2), quick=True
        )
        observed = set()
        with RenderExecutor(
            num_workers=2, watchdog=watchdog
        ) as executor, TelemetryServer(
            "127.0.0.1", 0, tracer=ObsContext.create().tracer,
            health_fn=executor.health,
        ) as server:
            handle = executor.submit(job)
            url = f"http://{server.address}/health"
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, _, body = _get(url)
                assert status == 200
                health = json.loads(body)["health"]
                observed.update(
                    w["state"] for w in health["workers"] if w["state"] != LIVE
                )
                if STALLED in observed or handle.done():
                    break
                time.sleep(0.01)
            handle.result(timeout=300)
        assert STALLED in observed, observed

    def test_profile_attributes_kernel_stages_during_execution(self):
        obs = ObsContext.create()
        tracker = SpanStackTracker()
        obs.tracer.observer = tracker
        sampler = StackSampler(interval_s=0.002, tracker=tracker)
        sampler.start()
        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=4), quick=True
        )
        try:
            with RenderExecutor(num_workers=0, obs=obs) as executor, TelemetryServer(
                "127.0.0.1",
                0,
                tracer=obs.tracer,
                metrics_fn=executor.collect_metrics,
                health_fn=executor.health,
                sampler=sampler,
            ) as server:
                base = f"http://{server.address}"
                renders = threading.Thread(
                    target=lambda: [executor.submit(job).result() for _ in range(8)]
                )
                renders.start()
                status, _, body = _get(f"{base}/profile?seconds=1.0&format=json")
                renders.join()
        finally:
            sampler.stop()
        assert status == 200
        payload = json.loads(body)
        attribution = payload["attribution"]
        assert payload["collapsed"].strip()  # non-empty collapsed stacks
        assert attribution["active"] > 0
        # The acceptance gate: at least half the active samples land
        # inside named kernel stages while frames render.
        assert attribution["attributed_fraction"] >= 0.5
