"""Tests for the GCC and GSCore frame-level accelerator models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.gcc import GccAccelerator, GccConfig
from repro.arch.gcc.cmode import plan_cmode, subview_invocations
from repro.arch.gscore import GScoreAccelerator
from repro.render.common import RenderConfig
from repro.render.preprocess import project_scene


@pytest.fixture(scope="module")
def sim_pair(small_lego_scene, small_lego_camera):
    """GSCore and GCC reports for the same small frame (computed once)."""
    gscore = GScoreAccelerator().simulate(small_lego_scene, small_lego_camera)
    gcc = GccAccelerator().simulate(small_lego_scene, small_lego_camera)
    return gscore, gcc


# The module-scoped fixtures below need session fixtures re-exported at module
# scope for pytest to resolve them.
@pytest.fixture(scope="module")
def small_lego_scene():
    from repro.gaussians.synthetic import make_scene

    return make_scene("lego", scale=0.004)


@pytest.fixture(scope="module")
def small_lego_camera():
    from repro.gaussians.synthetic import make_camera

    return make_camera("lego", image_scale=0.1)


class TestReports:
    def test_reports_have_positive_cycles_and_energy(self, sim_pair):
        for report in sim_pair:
            assert report.total_cycles > 0
            assert report.fps > 0
            assert report.total_energy_pj > 0
            assert report.dram_traffic.total > 0

    def test_fps_per_mm2_uses_area(self, sim_pair):
        gscore, gcc = sim_pair
        assert gcc.fps_per_mm2 == pytest.approx(gcc.fps / gcc.area_mm2)
        assert gscore.area_mm2 == pytest.approx(3.95)
        assert gcc.area_mm2 == pytest.approx(2.711)

    def test_energy_units_are_consistent(self, sim_pair):
        _, gcc = sim_pair
        assert gcc.energy_mj_per_frame == pytest.approx(gcc.total_energy_pj * 1e-9)

    def test_summary_contains_key_metrics(self, sim_pair):
        summary = sim_pair[1].summary()
        assert {"total_cycles", "fps", "fps_per_mm2", "dram_bytes", "energy_mj"} <= set(summary)


class TestDataflowComparison:
    def test_gcc_moves_less_dram_data_than_gscore(self, sim_pair):
        gscore, gcc = sim_pair
        assert gcc.dram_traffic.total < gscore.dram_traffic.total

    def test_gcc_has_no_key_value_traffic(self, sim_pair):
        gscore, gcc = sim_pair
        assert gcc.dram_traffic.key_value == 0
        assert gscore.dram_traffic.key_value > 0

    def test_gcc_outperforms_gscore_area_normalised(self, sim_pair):
        gscore, gcc = sim_pair
        # The headline claim of the paper (Figure 10a): GCC wins per area.
        assert gcc.fps_per_mm2 > gscore.fps_per_mm2

    def test_gcc_is_more_energy_efficient(self, sim_pair):
        gscore, gcc = sim_pair
        assert gcc.energy_mj_per_frame < gscore.energy_mj_per_frame


class TestGccConfigurations:
    def test_disabling_cc_increases_sh_loads(self, small_lego_scene, small_lego_camera):
        with_cc = GccAccelerator(GccConfig(enable_cc=True)).simulate(
            small_lego_scene, small_lego_camera
        )
        without_cc = GccAccelerator(GccConfig(enable_cc=False)).simulate(
            small_lego_scene, small_lego_camera
        )
        assert without_cc.extra["num_sh_evaluated"] >= with_cc.extra["num_sh_evaluated"]
        assert without_cc.dram_traffic.gaussian_3d >= with_cc.dram_traffic.gaussian_3d

    def test_small_image_buffer_triggers_cmode(self, small_lego_scene, small_lego_camera):
        tiny_config = GccConfig(image_buffer_bytes=8 * 1024)
        report = GccAccelerator(tiny_config).simulate(small_lego_scene, small_lego_camera)
        assert report.extra["cmode_enabled"] == 1.0
        assert report.extra["cmode_duplication"] >= 1.0
        # The 80x80 frame fits one default sub-view; 16-pixel sub-views split it.
        projected = project_scene(
            small_lego_scene, small_lego_camera, RenderConfig(radius_rule="omega-sigma")
        )
        plan = plan_cmode(
            projected,
            small_lego_camera.width,
            small_lego_camera.height,
            tiny_config.max_resident_pixels(),
            subview=16,
        )
        assert plan.enabled
        assert plan.num_subviews == 25
        assert plan.duplication_factor >= 1.0

    def test_huge_image_buffer_disables_cmode(self, small_lego_scene, small_lego_camera):
        big_buffer = GccAccelerator(GccConfig(image_buffer_bytes=8 * 1024 * 1024))
        report = big_buffer.simulate(small_lego_scene, small_lego_camera)
        assert report.extra["cmode_enabled"] == 0.0
        assert report.extra["cmode_duplication"] == pytest.approx(1.0)

    def test_non_default_configuration_changes_area(self):
        assert GccAccelerator(GccConfig(alpha_array_size=16)).effective_area_mm2() > 2.711
        assert GccAccelerator(GccConfig(image_buffer_bytes=32 * 1024)).effective_area_mm2() < 2.711

    def test_faster_dram_does_not_hurt(self, small_lego_scene, small_lego_camera):
        slow = GccAccelerator(GccConfig(dram="LPDDR4-3200")).simulate(
            small_lego_scene, small_lego_camera
        )
        fast = GccAccelerator(GccConfig(dram="LPDDR6-14400")).simulate(
            small_lego_scene, small_lego_camera
        )
        assert fast.total_cycles <= slow.total_cycles


class TestCmodePlanning:
    def test_plan_disabled_when_frame_fits(self, small_lego_scene, small_lego_camera):
        projected = project_scene(
            small_lego_scene, small_lego_camera, RenderConfig(radius_rule="omega-sigma")
        )
        plan = plan_cmode(
            projected,
            small_lego_camera.width,
            small_lego_camera.height,
            max_resident_pixels=10**7,
            subview=128,
        )
        assert not plan.enabled
        assert plan.duplication_factor == pytest.approx(1.0)

    def test_smaller_subviews_increase_duplication(self, small_lego_scene, small_lego_camera):
        projected = project_scene(
            small_lego_scene, small_lego_camera, RenderConfig(radius_rule="omega-sigma")
        )
        width, height = small_lego_camera.width, small_lego_camera.height
        big_invocations, _ = subview_invocations(projected, width, height, 64)
        small_invocations, _ = subview_invocations(projected, width, height, 8)
        assert small_invocations >= big_invocations


class TestGScoreConfiguration:
    def test_stage_cycles_reported(self, sim_pair):
        gscore, _ = sim_pair
        assert {"preprocess", "sort", "render"} <= set(gscore.stage_cycles)
        assert gscore.stage_cycles["preprocess"] > 0
