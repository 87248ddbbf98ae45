"""Shape tests for the experiment harness (quick-mode runs of each figure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import experiments
from repro.eval.runner import EvalSetup, clear_cache, load_scene_and_camera, run_tilewise
from repro.gaussians.presets import (
    EVAL_SCENES,
    QUICK_SCENES,
    EvalScenePreset,
    eval_preset,
    quick_preset,
)


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestScenePresets:
    def test_all_six_scenes_have_presets(self):
        assert set(EVAL_SCENES) == {"palace", "lego", "train", "truck", "playroom", "drjohnson"}

    def test_quick_presets_are_smaller(self):
        for name in EVAL_SCENES:
            assert QUICK_SCENES[name].scale < EVAL_SCENES[name].scale

    def test_quick_presets_preserve_non_scale_fields(self):
        """Regression: quick derivation used to rebuild the preset from just
        (name, scale, image_scale), silently resetting ``view_index`` (and
        any future field) to its default."""
        import dataclasses

        derived = quick_preset(
            EvalScenePreset("lego", scale=0.1, image_scale=0.5, view_index=3)
        )
        assert derived.view_index == 3
        assert derived.scale == pytest.approx(0.1 * 0.25)
        assert derived.image_scale == pytest.approx(0.5 * 0.6)
        for name, preset in EVAL_SCENES.items():
            quick = QUICK_SCENES[name]
            for f in dataclasses.fields(EvalScenePreset):
                if f.name in ("scale", "image_scale"):
                    continue
                assert getattr(quick, f.name) == getattr(preset, f.name), f.name

    def test_unknown_scene_raises(self):
        with pytest.raises(KeyError):
            eval_preset("bonsai")

    def test_runner_caches_scene_objects(self):
        setup = EvalSetup("lego", quick=True)
        first = load_scene_and_camera(setup)
        second = load_scene_and_camera(setup)
        assert first[0] is second[0]

    def test_runner_caches_renders(self):
        setup = EvalSetup("lego", quick=True)
        assert run_tilewise(setup) is run_tilewise(setup)


class TestMotivationExperiments:
    def test_figure2_shape(self):
        rows = experiments.figure2(scenes=("train",), quick=True)
        row = rows[0]
        assert row["rendered"] <= row["in_frustum"] <= row["total"]
        assert row["avg_loads_per_gaussian"] >= 1.0
        assert 0.0 < row["rendered_fraction"] <= 1.0

    def test_table1_orderings(self):
        rows = experiments.table1(scenes=("train",), quick=True)
        row = rows[0]
        # AABB >= OBB >= alpha-exact footprint; actual blending is smallest of
        # the footprint family once early termination kicks in.
        assert row["aabb_pixels"] >= row["obb_pixels"] >= row["alpha_pixels"]
        assert row["rendered_pixels"] <= row["aabb_pixels"]

    def test_figure4_opacity_effect(self):
        rows = experiments.figure4()
        high = next(r for r in rows if r["opacity"] == 1.0)
        low = next(r for r in rows if r["opacity"] == 0.01)
        assert high["aabb"] == low["aabb"]
        assert low["alpha"] < high["alpha"]

    def test_figure6_duplication_grows_for_small_subviews(self):
        result = experiments.figure6(scenes=("lego",), subview_sizes=(1024, 64, 16), quick=True)
        rows = result["lego"]
        assert rows[0]["duplication"] <= rows[-1]["duplication"]
        assert all(r["rendering_invocations"] >= r["rendered_gaussians"] for r in rows)


class TestMainResults:
    def test_table2_quality_is_high(self):
        rows = experiments.table2(scenes=("lego",), quick=True)
        assert rows[0]["gcc_psnr"] > 30.0
        assert rows[0]["gscore_psnr"] > 30.0
        assert rows[0]["gcc_lpips"] < 0.2

    def test_figure10_gcc_wins(self):
        result = experiments.figure10(scenes=("train",), quick=True)
        row = result["rows"][0]
        assert row["speedup"] > 1.0
        assert row["energy_efficiency"] > 1.0
        assert result["geomean_speedup"] > 1.0

    def test_figure11_cc_adds_on_top_of_gw(self):
        rows = experiments.figure11(scenes=("train",), quick=True)
        row = rows[0]
        assert row["speedup_gw"] > 0.5
        assert row["speedup_gw_cc"] >= row["speedup_gw"] * 0.9
        assert row["dram_gw_cc"]["total"] <= row["dram_baseline"]["total"]
        assert row["render_ops_gcc"] <= row["render_ops_baseline"] * 1.1

    def test_table3_contains_measured_and_quoted_rows(self):
        rows = experiments.table3(quick=True)
        designs = {r["design"] for r in rows}
        assert any("GCC" in d for d in designs)
        assert any("GSCore" in d for d in designs)
        assert any("MetaVRain" in d for d in designs)
        gcc_row = next(r for r in rows if "GCC" in r["design"])
        gscore_row = next(r for r in rows if "GSCore" in r["design"])
        assert gcc_row["fps_per_mm2"] > gscore_row["fps_per_mm2"]

    def test_table4_static_content(self):
        rows = experiments.table4()
        total = next(r for r in rows if r["component"] == "GCC Total")
        assert total["area_mm2"] == pytest.approx(2.711)

    def test_figure12_dram_dominates_gscore(self):
        rows = experiments.figure12(scenes=("train",), quick=True)
        gscore_row = next(r for r in rows if r["accelerator"] == "GSCore")
        assert gscore_row["offchip_mj"] > gscore_row["onchip_mj"]
        gcc_row = next(r for r in rows if r["accelerator"] == "GCC")
        assert gcc_row["offchip_mj"] < gscore_row["offchip_mj"]


class TestSensitivityStudies:
    def test_figure13a_large_buffers_hurt_area_efficiency(self):
        rows = experiments.figure13a(scene="train", buffer_sizes_kb=(128, 8192), quick=True)
        small, large = rows[0], rows[-1]
        assert large["area_mm2"] > small["area_mm2"]
        assert large["fps_per_mm2"] < small["fps_per_mm2"] * 1.5

    def test_figure13b_array_size_tradeoff(self):
        rows = experiments.figure13b(scene="train", array_sizes=(4, 8, 16), quick=True)
        assert all(r["fps"] > 0 for r in rows)
        by_size = {r["array_size"]: r for r in rows}
        assert by_size[16]["area_mm2"] > by_size[8]["area_mm2"] > by_size[4]["area_mm2"]

    def test_figure14_bandwidth_monotonic_then_flat(self):
        rows = experiments.figure14(scene="train", quick=True)
        assert len(rows) == 5
        gcc_fps = [r["gcc_fps"] for r in rows]
        gscore_fps = [r["gscore_fps"] for r in rows]
        # Throughput never decreases with more bandwidth for either design.
        assert all(b >= a * 0.999 for a, b in zip(gcc_fps, gcc_fps[1:]))
        assert all(b >= a * 0.999 for a, b in zip(gscore_fps, gscore_fps[1:]))
        # GCC saturates: its relative gain from the last bandwidth step is
        # smaller than GSCore's.
        gcc_gain = gcc_fps[-1] / gcc_fps[0]
        gscore_gain = gscore_fps[-1] / gscore_fps[0]
        assert gcc_gain <= gscore_gain + 1e-9

    def test_figure15_gpu_render_dominates_and_gcc_render_slower(self):
        rows = experiments.figure15(scenes=("train",), platforms=("jetson",), quick=True)
        gpu_row = next(r for r in rows if r["platform"] == "Jetson AGX Xavier")
        assert gpu_row["standard"]["render"] == max(gpu_row["standard"].values())
        assert gpu_row["gcc"]["render"] >= gpu_row["standard"]["render"]
        accel_row = next(r for r in rows if r["platform"] == "GSCore / GCC")
        assert accel_row["gcc_total_s"] < accel_row["standard_total_s"]
