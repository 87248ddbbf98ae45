"""Smoke test of the ``stack`` benchmark and of its manifest.

Collected by the tier-1 command, so everything runs at ``--scale smoke`` with
a sub-second time box and single set-ups; no assertion depends on how fast
the machine is.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import stack_catalog as catalog  # noqa: E402
import stack_harness as harness  # noqa: E402
import stack_runner as runner  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture()
def quick_runs(monkeypatch):
    monkeypatch.setattr(runner, "SETUPS", 1)
    monkeypatch.setattr(runner, "MIN_PASSES", 1)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def test_manifest_matches_catalogue_and_schema():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalog.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/stack"]
    assert 1 <= manifest["run_seconds"] <= 60

    workloads = manifest["workloads"]
    assert 2 <= len(workloads) <= 8
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]

    end_to_end = manifest["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)

    per_layer = manifest["per_layer"]
    assert 1 <= len(per_layer) <= 128
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}

    names = [e["name"] for e in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_every_per_layer_metric_names_its_home_and_what_it_moves():
    workloads = {w.name for w in catalog.WORKLOADS}
    end_to_end = {m.name for m in catalog.END_TO_END}
    for metric in catalog.PER_LAYER:
        assert metric.home in workloads, metric.name
        for moved, where in metric.moves:
            assert moved in end_to_end and where in workloads, metric.name


def test_every_end_to_end_metric_has_a_reading_on_every_workload():
    workloads = {w.name for w in catalog.WORKLOADS}
    assert set(catalog.OFF_HOME) == workloads
    for metric in catalog.END_TO_END:
        assert metric.home and set(metric.home) <= workloads, metric.name
        for name in workloads:
            # exactly one of: home here, or read off-home in a stated way
            assert (name in metric.home) != (metric.name in catalog.OFF_HOME[name]), (metric.name, name)


# ----------------------------------------------------------------------
# Self-time attribution
# ----------------------------------------------------------------------
def test_self_times_of_parallel_children_sum_to_the_op_wall():
    rec = harness.SpanRecorder()
    root = rec.add("bench.request", 0.0, 100.0, op="r0")
    rec.add("exec.submit", 0.0, 10.0, parent=root)
    wait = rec.add("exec.wait", 10.0, 100.0, parent=root)
    rec.add("render.frame", 20.0, 70.0, parent=wait)  # two workers,
    rec.add("render.frame", 40.0, 90.0, parent=wait)  # overlapping
    per_op = harness.self_time_by_op(rec.spans)["r0"]
    assert per_op["wall_ms"] == pytest.approx(100.0)
    assert per_op["self_ms"] == pytest.approx(
        {"exec.submit": 10.0, "exec.wait": 20.0, "render.frame": 70.0}
    )
    shares, worst_gap = harness.budget_shares(rec.spans)
    assert shares == pytest.approx({"exec": 0.3, "render": 0.7})
    assert worst_gap == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Every workload, smoke scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [w.name for w in catalog.WORKLOADS])
def test_untraced_smoke_run_reports_every_end_to_end_metric(name, quick_runs):
    result = runner.run_once(name, seed=3, seconds=0.3, trace=0, smoke=True)
    failing = [c for c in result["detail"]["checks"] if not c["ok"]]
    assert result["correct"] and result["failed"] == 0 and not failing, failing
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in catalog.END_TO_END}
    for metric in catalog.END_TO_END:
        payload = result["metrics"][metric.name]
        assert payload["unit"] == metric.unit and math.isfinite(payload["value"]), metric.name
        # Times, rates and sizes are never 0; the share inside the frozen
        # latency limit can be, on a machine slow enough.
        assert payload["value"] >= 0 if metric.name == "slo_attainment" else payload["value"] > 0, metric.name


def test_traced_smoke_run_reports_every_per_layer_metric_and_writes_spans(quick_runs):
    result = runner.run_once("sched_replay", seed=3, seconds=0.6, trace=1, smoke=True)
    failing = [c for c in result["detail"]["checks"] if not c["ok"]]
    assert result["correct"] and not failing, failing
    assert set(result["metrics"]) == {m.name for m in catalog.PER_LAYER + catalog.PER_WORKLOAD}
    assert result["metrics"]["budget.sched_share"]["value"] > 0.9
    spans = [json.loads(line) for line in Path(result["detail"]["span_file"]).read_text().splitlines()]
    assert {"bench.replay", "sched.run"} <= {s["name"] for s in spans}
    assert all(s["end_ms"] >= s["start_ms"] for s in spans)
