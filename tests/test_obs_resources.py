"""The /proc resource plane: sampling, gauges, snapshot reassembly.

Raw ``/proc`` reads only exist on Linux, so the tests that touch them
first take a real sample of this test process and skip when the
platform can't provide one; everything downstream of a sample (gauge
recording, snapshot reassembly) is platform-independent and always runs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.obs import MetricsRegistry
from repro.obs.__main__ import main as obs_main
from repro.obs.exporters import parse_prometheus_snapshot, prometheus_text
from repro.obs.resources import (
    CPU_GAUGE,
    CTX_GAUGE,
    RSS_GAUGE,
    ResourceSampler,
    read_proc_sample,
    record_resource_gauges,
    resources_from_snapshot,
)


def _require_proc() -> dict:
    sample = read_proc_sample(os.getpid())
    if sample is None:
        pytest.skip("/proc not available on this platform")
    return sample


class TestReadProcSample:
    def test_own_process_reads_sane_values(self):
        sample = _require_proc()
        assert sample["cpu_ticks"] >= 0
        # A live CPython process holds at least a few MB resident.
        assert sample["rss_bytes"] > 1 << 20
        assert sample["voluntary_ctx"] >= 0
        assert sample["involuntary_ctx"] >= 0
        assert sample["t_ns"] > 0

    def test_nonexistent_pid_returns_none(self):
        # Pid 2**22 exceeds the default pid_max on every mainstream
        # kernel config; a dead/bogus pid must degrade to None, not raise.
        assert read_proc_sample(1 << 30) is None


class TestResourceSampler:
    def test_first_sample_has_no_cpu_baseline(self):
        _require_proc()
        sampler = ResourceSampler()
        sample = sampler.sample(os.getpid())
        assert sample is not None
        assert sample["cpu_percent"] is None
        assert sample["rss_bytes"] > 0

    def test_second_sample_estimates_cpu(self):
        _require_proc()
        sampler = ResourceSampler()
        sampler.sample(os.getpid())
        # Burn a little CPU so the tick delta is visible, then resample.
        deadline = time.monotonic() + 0.05
        total = 0
        while time.monotonic() < deadline:
            total += sum(i * i for i in range(1000))
        sample = sampler.sample(os.getpid())
        assert sample["cpu_percent"] is not None
        assert sample["cpu_percent"] >= 0.0

    def test_forget_drops_the_baseline(self):
        _require_proc()
        sampler = ResourceSampler()
        sampler.sample(os.getpid())
        sampler.forget(os.getpid())
        assert sampler.sample(os.getpid())["cpu_percent"] is None

    def test_unsampleable_pid_returns_none(self):
        sampler = ResourceSampler()
        assert sampler.sample(1 << 30) is None


class TestRecordResourceGauges:
    SAMPLE = {
        "cpu_percent": 87.5,
        "rss_bytes": 123_456_789,
        "voluntary_ctx": 42,
        "involuntary_ctx": 7,
    }

    def test_all_gauges_recorded(self):
        registry = MetricsRegistry()
        labels = {"worker": "3"}
        record_resource_gauges(registry, self.SAMPLE, labels)
        assert registry.value(CPU_GAUGE, labels) == 87.5
        assert registry.value(RSS_GAUGE, labels) == 123_456_789
        assert registry.value(CTX_GAUGE, {"worker": "3", "kind": "voluntary"}) == 42
        assert registry.value(CTX_GAUGE, {"worker": "3", "kind": "involuntary"}) == 7

    def test_unknown_cpu_records_no_cpu_gauge(self):
        registry = MetricsRegistry()
        labels = {"worker": "0"}
        record_resource_gauges(registry, dict(self.SAMPLE, cpu_percent=None), labels)
        assert registry.value(CPU_GAUGE, labels) is None
        assert registry.value(RSS_GAUGE, labels) == 123_456_789


class TestResourcesFromSnapshot:
    def _registry_with_workers(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        record_resource_gauges(
            registry,
            {"cpu_percent": 50.0, "rss_bytes": 1000, "voluntary_ctx": 1, "involuntary_ctx": 2},
            {"worker": "0"},
        )
        record_resource_gauges(
            registry,
            {"cpu_percent": None, "rss_bytes": 2000, "voluntary_ctx": 3, "involuntary_ctx": 4},
            {"worker": "1"},
        )
        return registry

    def test_reassembles_per_worker_table(self):
        table = resources_from_snapshot(self._registry_with_workers().snapshot())
        assert sorted(table["workers"]) == ["0", "1"]
        w0, w1 = table["workers"]["0"], table["workers"]["1"]
        assert w0["cpu_percent"] == 50.0
        assert w0["rss_bytes"] == 1000
        assert w0["ctx_switches"] == {"voluntary": 1, "involuntary": 2}
        assert w0["sample_ms"] > 0  # every Gauge.set stamps the sample
        assert w1["cpu_percent"] is None  # first reading: unknown, not 0
        assert w1["rss_bytes"] == 2000

    def test_survives_the_prometheus_round_trip(self):
        registry = self._registry_with_workers()
        direct = resources_from_snapshot(registry.snapshot())
        parsed = resources_from_snapshot(
            parse_prometheus_snapshot(prometheus_text(registry))
        )
        assert parsed == direct

    def test_empty_snapshot(self):
        assert resources_from_snapshot([]) == {}
        registry = MetricsRegistry()
        registry.counter("repro_frames_rendered_total").inc()
        assert resources_from_snapshot(registry.snapshot()) == {}


class TestObsCliResources:
    def _metrics_file(self, tmp_path, name, cpu, rss):
        registry = MetricsRegistry()
        record_resource_gauges(
            registry,
            {"cpu_percent": cpu, "rss_bytes": rss, "voluntary_ctx": 5, "involuntary_ctx": 6},
            {"worker": "0"},
        )
        path = tmp_path / name
        path.write_text(prometheus_text(registry), encoding="utf-8")
        return str(path)

    def test_report_surfaces_worker_resources(self, tmp_path, capsys):
        metrics = self._metrics_file(tmp_path, "m.prom", 62.5, 64 << 20)
        assert obs_main(["--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "worker resources" in out
        assert "62.5%" in out and "64.0 MiB" in out
