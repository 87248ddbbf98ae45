"""Tests for energy accounting and the published area/power tables."""

from __future__ import annotations

import pytest

from repro.arch.area import (
    GCC_BUFFER_MODULES,
    GCC_COMPUTE_MODULES,
    GCC_TOTAL_AREA_MM2,
    GSCORE_TOTAL_AREA_MM2,
    gcc_area_table,
    scaled_alpha_blend_area,
    scaled_image_buffer_area,
)
from repro.arch.energy import compute_energy_breakdown
from repro.arch.params import DEFAULT_DRAM, EnergyParams, dram_preset

#: The DRAM every model is charged at unless a configuration names another.
LPDDR4 = dram_preset(DEFAULT_DRAM)


class TestEnergyBreakdown:
    def test_all_components_present_and_nonnegative(self):
        energy = compute_energy_breakdown(
            dram_bytes=1000,
            sram_bytes=2000,
            compute_ops={"fma": 500, "sfu": 100, "cmp": 50},
            frame_time_s=1e-3,
            energy=EnergyParams(),
            dram=LPDDR4,
        )
        assert set(energy) == {"dram", "sram", "compute", "static"}
        assert all(value >= 0 for value in energy.values())

    def test_dram_energy_scales_with_bytes(self):
        params = EnergyParams()
        small = compute_energy_breakdown(1000, 0, {}, 0.0, params, LPDDR4)
        large = compute_energy_breakdown(10_000, 0, {}, 0.0, params, LPDDR4)
        assert large["dram"] == pytest.approx(10 * small["dram"])

    def test_dram_energy_is_charged_at_the_preset_per_byte(self):
        # DRAM energy is the preset's alone: no per-byte constant competes.
        for name, per_byte in (("LPDDR4-3200", 20.0), ("LPDDR6-14400", 10.0)):
            energy = compute_energy_breakdown(1000, 0, {}, 0.0, EnergyParams(), dram_preset(name))
            assert energy["dram"] == pytest.approx(1000 * per_byte)

    def test_unknown_op_kind_charged_at_fma_rate(self):
        params = EnergyParams(fma_pj=2.0)
        energy = compute_energy_breakdown(0, 0, {"mystery": 10}, 0.0, params, LPDDR4)
        assert energy["compute"] == pytest.approx(20.0)

    def test_static_term_scales_with_frame_time(self):
        params = EnergyParams(static_power_w=0.1)
        energy = compute_energy_breakdown(0, 0, {}, 2e-3, params, LPDDR4)
        assert energy["static"] == pytest.approx(0.1 * 2e-3 * 1e12)


class TestAreaTables:
    def test_module_breakdown_sums_to_published_totals(self):
        compute_area = sum(m.area_mm2 for m in GCC_COMPUTE_MODULES)
        buffer_area = sum(m.area_mm2 for m in GCC_BUFFER_MODULES)
        # Table 4 totals (within rounding of the published per-module numbers).
        assert compute_area == pytest.approx(1.675, abs=0.01)
        assert buffer_area == pytest.approx(1.036, abs=0.01)
        assert compute_area + buffer_area == pytest.approx(GCC_TOTAL_AREA_MM2, abs=0.01)

    def test_gcc_is_smaller_than_gscore(self):
        # The paper: GCC occupies ~30-40% less area than GSCore.
        assert GCC_TOTAL_AREA_MM2 < GSCORE_TOTAL_AREA_MM2
        assert GCC_TOTAL_AREA_MM2 / GSCORE_TOTAL_AREA_MM2 == pytest.approx(0.686, abs=0.02)

    def test_area_table_contains_all_modules_and_totals(self):
        table = gcc_area_table()
        components = {row["component"] for row in table}
        assert "Alpha Unit" in components
        assert "Image Buffer" in components
        assert "GCC Total" in components
        assert "GSCore Total" in components

    def test_image_buffer_area_scales_linearly(self):
        assert scaled_image_buffer_area(256 * 1024) == pytest.approx(2 * 0.872, rel=1e-6)
        assert scaled_image_buffer_area(128 * 1024) == pytest.approx(0.872, rel=1e-6)

    def test_alpha_blend_area_scales_with_pe_count(self):
        base = scaled_alpha_blend_area(8)
        assert base == pytest.approx(0.958, abs=1e-6)
        assert scaled_alpha_blend_area(16) == pytest.approx(4 * base, rel=1e-6)

    def test_invalid_scaling_inputs_raise(self):
        with pytest.raises(ValueError):
            scaled_image_buffer_area(0)
        with pytest.raises(ValueError):
            scaled_alpha_blend_area(0)
