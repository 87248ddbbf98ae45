"""Tests for the DRAM model and technology parameters."""

from __future__ import annotations

import pytest

from repro.arch.energy import compute_energy_breakdown
from repro.arch.memory import DramModel, TrafficCounter, image_buffer_bytes
from repro.arch.params import DRAM_PRESETS, EnergyParams, TechnologyParams, dram_preset


class TestTrafficCounter:
    def test_total_sums_all_classes(self):
        counter = TrafficCounter(gaussian_3d=10, gaussian_2d=20, key_value=30, grouping=5, framebuffer=1)
        assert counter.total == 66
        assert counter.as_dict()["total"] == 66


class TestDramModel:
    def test_bytes_per_cycle_matches_preset(self):
        dram = DramModel(preset=dram_preset("LPDDR4-3200"), tech=TechnologyParams(clock_hz=1e9))
        assert dram.bytes_per_cycle == pytest.approx(51.2)

    def test_record_and_transfer_cycles(self):
        dram = DramModel(preset=dram_preset("LPDDR4-3200"))
        dram.record("gaussian_3d", 512)
        assert dram.traffic.gaussian_3d == 512
        assert dram.traffic.total / dram.bytes_per_cycle == pytest.approx(10.0)

    def test_unknown_traffic_class_raises(self):
        with pytest.raises(KeyError):
            DramModel().record("cache", 10)

    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError):
            DramModel().record("gaussian_3d", -1)

    def test_energy_uses_preset_per_byte(self):
        # The report tail charges a model's recorded traffic at its preset.
        dram = DramModel(preset=dram_preset("LPDDR4-3200"))
        dram.record("gaussian_3d", 100)
        energy = compute_energy_breakdown(dram.traffic.total, 0, {}, 0.0, EnergyParams(), dram.preset)
        assert energy["dram"] == pytest.approx(100 * 20.0)

    def test_faster_dram_moves_data_in_fewer_cycles(self):
        slow = DramModel(preset=dram_preset("LPDDR4-3200"))
        fast = DramModel(preset=dram_preset("LPDDR6-14400"))
        slow.record("gaussian_3d", 10_000)
        fast.record("gaussian_3d", 10_000)
        assert fast.traffic.total / fast.bytes_per_cycle < slow.traffic.total / slow.bytes_per_cycle


class TestParams:
    def test_all_presets_have_positive_bandwidth(self):
        for preset in DRAM_PRESETS.values():
            assert preset.bandwidth_gbps > 0
            assert preset.energy_pj_per_byte > 0

    def test_bandwidth_ordering_matches_generations(self):
        assert (
            DRAM_PRESETS["LPDDR4-3200"].bandwidth_gbps
            < DRAM_PRESETS["LPDDR5-6400"].bandwidth_gbps
            < DRAM_PRESETS["LPDDR6-14400"].bandwidth_gbps
        )

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            dram_preset("HBM3")

    def test_cycle_time(self):
        assert TechnologyParams(clock_hz=2e9).cycle_time_s == pytest.approx(0.5e-9)

    def test_energy_params_defaults_are_positive(self):
        params = EnergyParams()
        assert params.fma_pj > 0 and params.sram_pj_per_byte > 0 and params.dram_pj_per_byte > 0

    def test_image_buffer_bytes(self):
        assert image_buffer_bytes(128, 128, bytes_per_pixel=16) == 128 * 128 * 16
