"""The ``repro-sched`` command-line front end: reports, schema, arguments."""

from __future__ import annotations

import json

import pytest

from repro.sched.__main__ import build_parser, main

#: A tiny virtual-clock run every CLI test can afford.
QUICK_ARGS = ["--rate", "6", "--duration", "3", "--clients", "2", "--seed", "0"]

#: Top-level keys of the JSON report — the schema CI's sched-smoke job pins.
REPORT_KEYS = {
    "workload",
    "policy",
    "requests",
    "offered_rps",
    "goodput_rps",
    "slo_attainment",
    "shed_rate",
    "latency_ms",
    "tier_histogram",
    "dispatch",
    "decisions",
    "num_events",
    "makespan_s",
    "executed",
    "measured",
}


class TestJsonReport:
    def test_schema_keys(self, capsys):
        assert main(QUICK_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == REPORT_KEYS

    def test_events_flag_includes_decision_log(self, capsys):
        main(QUICK_ARGS + ["--json", "--events"])
        payload = json.loads(capsys.readouterr().out)
        assert "events" in payload
        assert len(payload["events"]) == payload["num_events"]
        assert all("t_ms" in e and "event" in e for e in payload["events"])

    def test_events_implies_json(self, capsys):
        main(QUICK_ARGS + ["--events"])
        payload = json.loads(capsys.readouterr().out)  # JSON, not the text report
        assert "events" in payload

    def test_same_seed_same_json(self, capsys):
        main(QUICK_ARGS + ["--json", "--events"])
        first = capsys.readouterr().out
        main(QUICK_ARGS + ["--json", "--events"])
        assert capsys.readouterr().out == first

    def test_fixed_policy_reports_single_tier(self, capsys):
        main(QUICK_ARGS + ["--json", "--policy", "fixed", "--lod", "1", "--quant", "compact"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"]["ladder"] == ["lod1/compact"]
        assert set(payload["tier_histogram"]) <= {"lod1/compact"}

    def test_executed_quick_run_measures_frames(self, capsys):
        assert (
            main(
                QUICK_ARGS
                + [
                    "--json",
                    "--quick",
                    "--execute",
                    "--workers",
                    "0",
                    "--scenes",
                    "train",
                    "--frames-mix",
                    "1,2",
                    "--duration",
                    "1",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] is True
        assert payload["measured"]["frames"] > 0


class TestTextReport:
    def test_mentions_headline_metrics(self, capsys):
        assert main(QUICK_ARGS) == 0
        out = capsys.readouterr().out
        assert "slo attainment" in out
        assert "goodput" in out
        assert "Tier histogram" in out


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--rate", "0"],
            ["--duration", "-1"],
            ["--clients", "0"],
            ["--arrival", "diurnal"],
            ["--scenes", "atlantis"],
            ["--frames-mix", "0,2"],
            ["--frames-mix", "abc"],
            ["--quant", "mp3"],
            ["--slo-ms", "0"],
            ["--zipf-s", "-1"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_parser_defaults_build(self):
        args = build_parser().parse_args([])
        assert args.arrival == "poisson"
        assert args.policy == "adaptive"
        assert args.executors is None  # fleet mode is strictly opt-in


class TestFleetCli:
    def test_fleet_json_adds_exactly_two_keys(self, capsys):
        assert main(QUICK_ARGS + ["--json", "--executors", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == REPORT_KEYS | {"fleet", "tenant_usage"}
        assert payload["fleet"]["routing"] == "affinity"
        assert payload["fleet"]["executors_initial"] == 2

    def test_fleet_run_is_seed_deterministic(self, capsys):
        argv = QUICK_ARGS + ["--json", "--events", "--executors", "3", "--fair"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_text_report_shows_fleet_and_tenant_usage(self, capsys):
        assert main(QUICK_ARGS + ["--executors", "2"]) == 0
        out = capsys.readouterr().out
        assert "fleet: routing=affinity" in out
        assert "placements:" in out
        assert "Tenant usage" in out

    def test_failure_injection_round_trips(self, capsys):
        argv = QUICK_ARGS + [
            "--json",
            "--events",
            "--executors",
            "2",
            "--fail-executor",
            "1000:0",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["failures"] == 1
        assert any(e["event"] == "executor_fail" for e in payload["events"])

    def test_autoscale_flags_round_trip(self, capsys):
        argv = QUICK_ARGS + [
            "--json",
            "--executors",
            "1",
            "--autoscale",
            "--autoscale-max",
            "3",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["autoscale"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["--executors", "0"],
            ["--routing", "random"],  # fleet flags require --executors
            ["--autoscale"],
            ["--fair"],
            ["--tenant-quota", "0.5"],
            ["--fail-executor", "1000:0"],
            ["--executors", "2", "--routing", "round-robin"],
            ["--executors", "2", "--tenant-quota", "0.5"],  # needs --fair
            ["--executors", "2", "--fair", "--tenant-quota", "1.5"],
            ["--executors", "2", "--fair", "--tenant-quota", "0"],
            ["--executors", "4", "--autoscale", "--autoscale-max", "2"],
            ["--executors", "2", "--fail-executor", "oops"],
            ["--executors", "2", "--fail-executor", "1000"],
            ["--executors", "2", "--fail-executor", "nan:0"],
            ["--executors", "2", "--fail-executor", "inf:0"],
            ["--executors", "2", "--fail-executor", "-5:0"],
            ["--executors", "2", "--fail-executor", "100:-1"],
        ],
    )
    def test_bad_fleet_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(QUICK_ARGS + argv)
        assert excinfo.value.code == 2
