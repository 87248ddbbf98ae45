"""Scheduler-side observability: registry-backed report, CLI exporters.

The scheduler's report quantities (tier histogram, dispatch warm/cold
split) now come from a per-run :class:`MetricsRegistry` instead of
hand-rolled dicts — these tests pin that the numbers agree with the
decision log they summarize, and that the ``repro-sched`` CLI's
``--trace-out`` / ``--metrics-out`` flags write valid artifacts without
changing the report on stdout by a single byte.
"""

from __future__ import annotations

import json

from repro.obs import (
    VIRTUAL,
    ObsContext,
    parse_prometheus_snapshot,
    validate_chrome_trace,
)
from repro.sched.__main__ import main
from repro.sched.scheduler import RequestScheduler, run_workload
from repro.sched.workload import WorkloadSpec

SPEC = WorkloadSpec(
    arrival="bursty", rate_rps=8, duration_s=3, num_clients=2, slo_ms=250, seed=0
)

CLI_ARGS = ["--rate", "6", "--duration", "3", "--clients", "2", "--seed", "0"]


class TestRegistryBackedReport:
    def test_tier_histogram_matches_decision_log(self):
        report = run_workload(SPEC, RequestScheduler(quick=True))
        assert report.metrics is not None
        served = [e for e in report.log.events if e["event"] == "complete"]
        histogram = report.tier_histogram()
        assert sum(histogram.values()) == len(served)
        for tier, count in histogram.items():
            assert count == sum(1 for e in served if e["tier"] == tier)
        # The histogram is served straight from the registry counters.
        for tier, count in histogram.items():
            assert (
                report.metrics.value("repro_sched_tier_served_total", {"tier": tier})
                == count
            )

    def test_dispatch_counts_match_decision_log(self):
        report = run_workload(SPEC, RequestScheduler(quick=True))
        dispatches = [e for e in report.log.events if e["event"] == "dispatch"]
        assert report.dispatch_counts["cold"] + report.dispatch_counts["warm"] == len(
            dispatches
        )
        assert report.dispatch_counts["warm"] == sum(
            1 for e in dispatches if e["warm"]
        )

    def test_request_status_counters_reconcile(self):
        report = run_workload(SPEC, RequestScheduler(quick=True))
        summary = report.summary()["requests"]
        value = lambda status: (
            report.metrics.value("repro_sched_requests_total", {"status": status}) or 0
        )
        assert value("completed") == summary["completed"]
        assert value("shed") == summary["shed"]
        assert value("rejected") == summary["rejected"]

    def test_client_lane_virtual_spans_cover_completions(self):
        obs = ObsContext.create()
        report = run_workload(SPEC, RequestScheduler(quick=True, obs=obs))
        requests = [s for s in obs.tracer.spans if s["name"] == "request"]
        assert len(requests) == report.summary()["requests"]["completed"]
        assert all(s["clock"] == VIRTUAL for s in requests)
        assert all(s["lane"].startswith("client-") for s in requests)
        # Each request span has queue_wait + service children.
        ids = {s["id"] for s in requests}
        children = [s for s in obs.tracer.spans if s["parent"] in ids]
        assert sorted({s["name"] for s in children}) == ["queue_wait", "service"]


class TestCliExportFlags:
    def test_stdout_identical_with_and_without_obs_flags(self, capsys, tmp_path):
        assert main(CLI_ARGS + ["--json", "--events"]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                CLI_ARGS
                + [
                    "--json",
                    "--events",
                    "--trace-out",
                    str(tmp_path / "trace.json"),
                    "--metrics-out",
                    str(tmp_path / "metrics.prom"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == plain

    def test_trace_out_writes_valid_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        main(CLI_ARGS + ["--json", "--trace-out", str(path)])
        capsys.readouterr()
        payload = json.loads(path.read_text())
        info = validate_chrome_trace(payload)
        assert "scheduler" in info["lanes"]
        assert any(lane.startswith("client-") for lane in info["lanes"])

    def test_metrics_out_parses_and_reconciles(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        main(CLI_ARGS + ["--json", "--metrics-out", str(path)])
        payload = json.loads(capsys.readouterr().out)
        parsed = parse_prometheus_snapshot(path.read_text())
        completed = sum(
            e["value"]
            for e in parsed
            if e["name"] == "repro_sched_requests_total"
            and e["labels"] == {"status": "completed"}
        )
        assert completed == payload["requests"]["completed"]
        dispatches = sum(
            e["value"] for e in parsed if e["name"] == "repro_sched_dispatch_total"
        )
        assert dispatches == payload["dispatch"]["cold"] + payload["dispatch"]["warm"]
