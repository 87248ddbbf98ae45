"""The telemetry flags the serve and sched CLIs share (``repro.obs.cli``),
and ``repro-obs``'s usage-error contract for the files it reads."""

from __future__ import annotations

import argparse
import json
import socket
import urllib.request

import pytest

from repro.obs import MetricsRegistry, ObsContext, export_trace, validate_chrome_trace
from repro.obs.__main__ import main as obs_main
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
            (["--listen", "127.0.0.1:65536"], "--listen port out of range"),
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
        telemetry = session(["--listen", "127.0.0.1:0"])
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

    def test_unbindable_listen_address_is_a_parser_error(self, capsys):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            telemetry = session(["--listen", f"127.0.0.1:{port}"])
            with pytest.raises(SystemExit) as excinfo:
                with telemetry.live(metrics_fn=None, health_fn=None):
                    pytest.fail("the block must not run without a server")
        assert excinfo.value.code == 2
        assert f"--listen 127.0.0.1:{port}:" in capsys.readouterr().err
        assert telemetry.obs.tracer.observer is None

    def test_export_writes_what_was_asked_for(self, tmp_path):
        paths = {flag: tmp_path / flag for flag in ("trace.json", "metrics.prom", "analysis.json")}
        telemetry = session(
            [
                "--trace-out",
                str(paths["trace.json"]),
                "--metrics-out",
                str(paths["metrics.prom"]),
                "--analyze-out",
                str(paths["analysis.json"]),
            ]
        )
        telemetry.obs.tracer.instant("tick", t_ms=1.0)
        telemetry.obs.metrics.counter("demo_total").inc()
        telemetry.export()
        validate_chrome_trace(json.loads(paths["trace.json"].read_text()))
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


class TestReproObsInputErrors:
    """``repro-obs`` turns an input file it cannot read or parse into a
    usage error (exit 2) naming the flag, never a traceback."""

    @pytest.fixture
    def trace(self, tmp_path) -> str:
        obs = ObsContext.create()
        obs.tracer.record("request", t0_ms=0.0, dur_ms=5.0)
        path = tmp_path / "trace.json"
        export_trace(str(path), obs.tracer)
        return str(path)

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--trace", '"just a string"'),
            ("--trace", '{"id": "s1", "name": "request"}\n{"id": "s2", "name": "job"}\n'),
            ("--metrics", "repro_demo_total not-a-number\n"),
            ("--trace", None),
            ("--alerts", '[{"name": "r", "kind": "threshold"}]'),
        ],
        ids=["unrecognised-trace", "jsonl-trace", "malformed-metrics", "missing-trace", "rule-without-metric"],
    )
    def test_bad_input_file_is_a_usage_error(self, flag, content, trace, tmp_path, capsys):
        path = tmp_path / "input"
        if content is not None:
            path.write_text(content)
        argv = [flag, str(path)] if flag == "--trace" else ["--trace", trace, flag, str(path)]
        with pytest.raises(SystemExit) as excinfo:
            obs_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} {path}:" in err and "Traceback" not in err
        if flag == "--alerts":
            assert "missing required fields: ['metric']" in err
