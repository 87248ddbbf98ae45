"""In-process telemetry HTTP server: scrape the pipeline while it runs.

A stdlib ``ThreadingHTTPServer`` embedded in the serve/sched CLIs via
``--listen HOST:PORT``.  It reads the *live* observability state — no
files, no export step — and serves:

* ``GET /metrics`` — Prometheus text exposition of the current merged
  registry (parent + latest per-worker snapshots), plus the serving
  process's own CPU%/RSS sampled fresh on every scrape.
* ``GET /health`` — the executor/scheduler health snapshot as JSON
  (worker states, heartbeats, per-worker resources).
* ``GET /trace.jsonl?cursor=N`` — incremental span tail: every span
  recorded since the client's cursor, one JSON object per line, with the
  next cursor in the ``X-Trace-Cursor`` response header.  Pass the
  header back as ``cursor`` to tail the trace without re-downloading.
* ``GET /profile?seconds=N`` — an on-demand collapsed-stack CPU capture
  (``&format=json`` adds stage attribution).

Any other path, ``/`` included, answers 404: the trace *viewer* is
Perfetto on the Chrome trace ``--trace-out`` writes.

Zero-perturbation is load-bearing: every endpoint *reads* — snapshot
copies of spans and metrics, ``/proc`` files, stack samples — and the
request counters land in a server-private registry, so a scraper
hammering every endpoint mid-run cannot change a rendered bit or a
scheduler decision (pinned by ``tests/test_obs_zero_perturbation.py``).

Handlers run on daemon threads; ``stop()`` shuts the listener down
without waiting on stragglers.  The server binds eagerly in ``start()``
so ``--listen 127.0.0.1:0`` reports the real ephemeral port before any
work begins.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs.exporters import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import StackSampler, attribute_stages, collapse_text
from repro.obs.resources import ResourceSampler

__all__ = ["TelemetryServer", "parse_listen"]

#: Upper bound on one ``/profile`` capture; long captures belong in the
#: continuous sampler, not a request handler.
MAX_PROFILE_SECONDS = 30.0

#: Self-process gauges refreshed on every ``/metrics`` scrape.
PROCESS_CPU_GAUGE = "repro_process_cpu_percent"
PROCESS_RSS_GAUGE = "repro_process_rss_bytes"
#: Per-endpoint request counter (server-private registry).
REQUESTS_COUNTER = "repro_http_requests_total"


def parse_listen(value: str) -> tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)``; empty host means loopback.

    Port 0 is allowed (bind ephemeral; the server reports the real port
    after ``start()``).
    """
    host, sep, port = value.rpartition(":")
    if not sep:
        raise ValueError(f"--listen wants HOST:PORT, got {value!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"--listen port must be an integer, got {port!r}") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"--listen port out of range: {port_num}")
    return host or "127.0.0.1", port_num


class _Handler(BaseHTTPRequestHandler):
    # Tail of the default protocol string; keep-alive with a thread per
    # connection is fine at scrape concurrency.
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass  # telemetry must not chat on the serving process's stderr

    # -- plumbing ----------------------------------------------------------

    @property
    def telemetry(self) -> "TelemetryServer":
        return self.server.telemetry

    def _send(self, code: int, body: bytes, content_type: str, headers: dict | None = None):
        self.telemetry._count_request(self.path, code)
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict, headers: dict | None = None):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(code, body, "application/json", headers)

    def _bad_request(self, message: str):
        self._send_json(400, {"error": message})

    # -- endpoints ---------------------------------------------------------

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/metrics":
                self._get_metrics()
            elif url.path == "/health":
                self._get_health()
            elif url.path == "/trace.jsonl":
                self._get_trace(query)
            elif url.path == "/profile":
                self._get_profile(query)
            else:
                self._send_json(404, {"error": f"no such endpoint: {url.path}"})
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to clean up
        except Exception as exc:  # a broken read must not kill the thread
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def _get_metrics(self):
        text = self.telemetry.render_metrics()
        self._send(200, text.encode(), "text/plain; version=0.0.4; charset=utf-8")

    def _get_health(self):
        self._send_json(200, self.telemetry.render_health())

    def _get_trace(self, query: dict):
        raw = query.get("cursor", ["0"])[0]
        try:
            cursor = int(raw)
        except ValueError:
            return self._bad_request(f"cursor must be an integer, got {raw!r}")
        if cursor < 0:
            return self._bad_request(f"cursor must be >= 0, got {cursor}")
        spans, next_cursor = self.telemetry.tracer.spans_since(cursor)
        body = "".join(json.dumps(span, sort_keys=True) + "\n" for span in spans)
        self._send(
            200,
            body.encode(),
            "application/jsonl",
            {"X-Trace-Cursor": str(next_cursor)},
        )

    def _get_profile(self, query: dict):
        raw = query.get("seconds", ["1.0"])[0]
        try:
            seconds = float(raw)
        except ValueError:
            return self._bad_request(f"seconds must be a number, got {raw!r}")
        if not 0 < seconds <= MAX_PROFILE_SECONDS:
            return self._bad_request(
                f"seconds must be in (0, {MAX_PROFILE_SECONDS:g}], got {seconds:g}"
            )
        # This handler thread spends the whole capture parked in a sleep
        # loop — exclude it from its own profile.
        sampler = self.telemetry.sampler
        ident = threading.get_ident()
        sampler.ignored.add(ident)
        try:
            counts = sampler.capture(seconds)
        finally:
            sampler.ignored.discard(ident)
        if query.get("format", [""])[0] == "json":
            payload = {
                "attribution": attribute_stages(counts),
                "collapsed": collapse_text(counts),
                "seconds": seconds,
            }
            return self._send_json(200, payload)
        self._send(200, collapse_text(counts).encode(), "text/plain; charset=utf-8")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class TelemetryServer:
    """Owns the listener plus the read-only views the endpoints serve.

    ``metrics_fn`` returns the registry to expose (called per scrape —
    pass the executor's live ``collect_metrics`` or the scheduler's
    ``live_metrics``); ``health_fn`` returns the health snapshot dict.
    ``sampler`` is the CPU sampler to expose on ``/profile`` — when none
    is supplied, one without span attribution is created so ``/profile``
    always works.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tracer,
        metrics_fn=None,
        health_fn=None,
        sampler: StackSampler | None = None,
    ):
        self.host = host
        self.port = port
        self.tracer = tracer
        self.metrics_fn = metrics_fn
        self.health_fn = health_fn
        self.sampler = sampler if sampler is not None else StackSampler()
        self._registry = MetricsRegistry()  # server-private: request counters
        self._resources = ResourceSampler()
        self._lock = threading.Lock()
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        self._httpd = _Server((self.host, self.port), _Handler)
        self._httpd.telemetry = self
        self.port = self._httpd.server_address[1]  # resolve port 0
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-server",
            daemon=True,
        )
        self._thread.start()
        # The accept loop is pure infrastructure; keep it out of profiles.
        if self._thread.ident is not None:
            self.sampler.ignored.add(self._thread.ident)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- endpoint backends (also the test seam) ----------------------------

    def _count_request(self, path: str, code: int) -> None:
        endpoint = urlsplit(path).path
        with self._lock:
            self._registry.counter(
                REQUESTS_COUNTER, {"endpoint": endpoint, "code": str(code)}
            ).inc()

    def render_metrics(self) -> str:
        """The merged exposition one ``/metrics`` scrape returns."""
        merged = MetricsRegistry()
        if self.metrics_fn is not None:
            live = self.metrics_fn()
            if live is not None:
                merged.merge(live.snapshot())
        with self._lock:
            sample = self._resources.sample(os.getpid())
            if sample is not None:
                if sample["cpu_percent"] is not None:
                    self._registry.gauge(PROCESS_CPU_GAUGE).set(sample["cpu_percent"])
                self._registry.gauge(PROCESS_RSS_GAUGE).set(sample["rss_bytes"])
            merged.merge(self._registry.snapshot())
        return prometheus_text(merged)

    def render_health(self) -> dict:
        payload = {"listen": self.address, "profiler_running": self.sampler.running}
        if self.health_fn is not None:
            snapshot = self.health_fn()
            if snapshot is not None:
                payload["health"] = snapshot
        return payload
