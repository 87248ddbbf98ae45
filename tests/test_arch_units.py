"""Tests for the pipelined-unit model and the two designs' unit tables."""

from __future__ import annotations

import pytest

from repro.arch.gcc.accelerator import gcc_units, image_buffer_traffic
from repro.arch.gcc.config import GccConfig
from repro.arch.gscore.accelerator import gscore_units
from repro.arch.units import SH_FMA_PER_GAUSSIAN, Unit, bitonic_passes


class TestPipelinedUnit:
    def test_throughput_dominates_for_large_batches(self):
        unit = Unit("u", items_per_cycle=2.0, latency_cycles=10)
        assert unit.cycles(1000) == pytest.approx(510.0)

    def test_zero_items_cost_nothing(self):
        unit = Unit("u", items_per_cycle=1.0, latency_cycles=5, ops_per_item=3.0)
        assert unit.cycles(0) == 0.0
        assert unit.ops(0) == 0.0
        assert unit.ops(10) == pytest.approx(30.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            Unit("u", items_per_cycle=0.0)
        with pytest.raises(ValueError):
            Unit("u", items_per_cycle=1.0, latency_cycles=-1)
        with pytest.raises(ValueError):
            Unit("u", items_per_cycle=1.0).cycles(-5)
        with pytest.raises(ValueError):
            Unit("u", items_per_cycle=1.0).ops(-5)


class TestGccUnits:
    def test_grouping_cycles_scale_with_gaussians(self):
        units = gcc_units(GccConfig())
        for name in ("depth_mvm", "rca"):
            assert units[name].cycles(10000) > units[name].cycles(1000)

    def test_projection_parallelism_halves_cycles(self):
        # Two Projection Units against GSCore's four conversion lanes.
        two_way = gcc_units(GccConfig())["projection"].cycles(10000)
        four_way = gscore_units()["projection"].cycles(10000)
        assert four_way < two_way
        assert four_way == pytest.approx(two_way / 2, rel=0.05)

    def test_sh_cycles_match_per_gaussian_cost(self):
        unit = gcc_units(GccConfig())["sh"]
        assert unit.cycles(100) == pytest.approx(100 * 16 + 8, rel=0.01)
        assert unit.ops(100) == pytest.approx(100 * SH_FMA_PER_GAUSSIAN)
        assert unit.ops(100) > 0

    def test_bitonic_passes_grow_superlinearly(self):
        assert bitonic_passes(256, 16) > 2 * bitonic_passes(128, 16)

    def test_sort_cycles_zero_for_empty_group(self):
        assert gcc_units(GccConfig())["sort"].cycles(0, batches=0) == 0.0

    def test_alpha_unit_block_passes(self):
        # The renderer's block is the PE array, so every array size retires
        # one block pass per cycle and charges every PE.
        for size in (8, 16):
            unit = gcc_units(GccConfig(alpha_array_size=size))["alpha"]
            assert unit.items_per_cycle == pytest.approx(1.0)
            assert unit.ops_per_item == pytest.approx(size * size * 4.0)

    def test_alpha_cycles_scale_with_blocks(self):
        unit = gcc_units(GccConfig())["alpha"]
        assert unit.cycles(1000, batches=1) > unit.cycles(100, batches=1)

    def test_blending_cycles_and_buffer_traffic(self):
        unit = gcc_units(GccConfig())["blend"]
        assert unit.cycles(50) > 0
        assert unit.ops(50) > 0
        assert image_buffer_traffic(50, 8) == 50 * 64 * 16 * 2


class TestGccConfigValidation:
    def test_rejects_bad_array_size(self):
        with pytest.raises(ValueError):
            GccConfig(alpha_array_size=0)

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            GccConfig(image_buffer_bytes=0)

    def test_max_resident_pixels(self):
        config = GccConfig(image_buffer_bytes=128 * 1024)
        assert config.max_resident_pixels() == 8192

    def test_alpha_array_pes(self):
        assert GccConfig(alpha_array_size=8).alpha_array_pes == 64
