"""The telemetry flags the serve and sched CLIs share (``repro.obs.cli``)."""

from __future__ import annotations

import argparse
import json
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.cli import (
    TelemetrySession,
    add_telemetry_arguments,
    alerts_line,
    evaluate_alerts,
)


def session(argv, **kwargs) -> TelemetrySession:
    parser = argparse.ArgumentParser(prog="demo")
    add_telemetry_arguments(
        parser,
        parser.add_argument_group("telemetry"),
        trace_help="trace",
        alerts_help="alerts",
    )
    return TelemetrySession(parser.parse_args(argv), parser, **kwargs)


class TestSession:
    def test_no_flag_means_no_obs_context(self):
        telemetry = session([])
        assert telemetry.obs is None and telemetry.listen_addr is None
        with telemetry.live(metrics_fn=None, health_fn=None):
            pass  # nothing to serve, nothing started
        telemetry.export()  # nothing to write

    @pytest.mark.parametrize(
        "argv",
        [["--trace-out", "t"], ["--metrics-out", "m"], ["--analyze-out", "a"], ["--listen", ":0"]],
    )
    def test_each_export_or_listen_flag_creates_one(self, argv):
        assert session(argv).obs is not None

    def test_alerts_need_obs_only_where_rules_read_it(self):
        assert session(["--alerts", "rules.json"]).obs is None
        assert session(["--alerts", "rules.json"], obs_for_alerts=True).obs is not None

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--profile-memory"], "--profile-memory requires --listen"),
            (["--listen", "nonsense"], "--listen wants HOST:PORT"),
            (["--listen", "localhost:http"], "--listen port must be an integer"),
        ],
    )
    def test_bad_flags_are_parser_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            session(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_live_serves_the_callers_views_then_stops(self, capsys):
        telemetry = session(["--listen", "127.0.0.1:0", "--profile-memory"])
        registry = MetricsRegistry()
        registry.counter("demo_total").inc(3)
        with telemetry.live(metrics_fn=lambda: registry, health_fn=lambda: {"mode": "demo"}):
            banner = capsys.readouterr().err
            assert banner.startswith("telemetry: listening on http://127.0.0.1:")
            base = banner.split()[-1].rstrip("/")
            assert telemetry.obs.tracer.observer is not None
            with urllib.request.urlopen(base + "/health", timeout=10) as response:
                health = json.loads(response.read())
            with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
                metrics = response.read().decode()
        assert health["health"] == {"mode": "demo"} and health["profiler_running"]
        assert "demo_total 3" in metrics
        with pytest.raises(OSError):
            urllib.request.urlopen(base + "/health", timeout=2)

    def test_export_writes_what_was_asked_for(self, tmp_path):
        paths = {flag: tmp_path / flag for flag in ("trace.jsonl", "metrics.prom", "analysis.json")}
        telemetry = session(
            [
                "--trace-out",
                str(paths["trace.jsonl"]),
                "--metrics-out",
                str(paths["metrics.prom"]),
                "--analyze-out",
                str(paths["analysis.json"]),
            ]
        )
        telemetry.obs.tracer.instant("tick", t_ms=1.0)
        telemetry.obs.metrics.counter("demo_total").inc()
        telemetry.export()
        assert json.loads(paths["trace.jsonl"].read_text().splitlines()[0])["name"] == "tick"
        assert "demo_total 1" in paths["metrics.prom"].read_text()
        assert "critical_path" in json.loads(paths["analysis.json"].read_text())


class TestAlerts:
    RULE = {"name": "too-many", "kind": "threshold", "metric": "demo_total", "op": ">", "value": 2}

    def test_block_line_and_firing(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([self.RULE]))
        registry = MetricsRegistry()
        registry.counter("demo_total").inc(1)
        quiet = evaluate_alerts(str(rules), [(0.0, registry.snapshot())])
        assert quiet["rules"] == 1 and quiet["firing"] == []
        assert alerts_line(quiet) == "  alerts: none firing"
        registry.counter("demo_total").inc(5)
        firing = evaluate_alerts(str(rules), [(0.0, registry.snapshot())])
        assert firing["firing"] == ["too-many"]
        assert alerts_line(firing) == "  alerts FIRING: too-many"
