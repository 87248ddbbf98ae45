"""Tests for the SceneStore registry, format autodetection and preset wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gaussians.presets import EVAL_SCENES, EvalScenePreset, eval_preset, register_preset
from repro.gaussians.io import save_scene_npz, save_scene_text
from repro.gaussians.model import GaussianScene
from repro.gaussians.synthetic import (
    make_scene,
    register_scene_spec,
    scene_spec,
)
from repro.store.codec import QUANT_SPECS, save_scene_store
from repro.store.store import (
    SceneStore,
    default_store,
    derive_scene_spec,
    load_scene_auto,
    reset_default_store,
)


@pytest.fixture()
def store() -> SceneStore:
    s = SceneStore(capacity=8)
    s.register("smoke", lambda: make_scene("smoke", scale=0.5))
    return s


class TestRegistration:
    def test_lazy_build_and_cache_stats(self, store):
        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            return make_scene("smoke", scale=0.25)

        store.register("lazy", factory)
        assert calls["n"] == 0
        a = store.get("lazy")
        b = store.get("lazy")
        assert calls["n"] == 1
        assert a is b
        assert store.cache.stats.hits >= 1

    def test_duplicate_name_requires_overwrite(self, store):
        with pytest.raises(ValueError, match="already registered"):
            store.register("smoke", lambda: GaussianScene.empty())
        store.register("smoke", lambda: GaussianScene.empty(), overwrite=True)
        assert store.get("smoke").num_gaussians == 0

    def test_overwrite_invalidates_cached_tiers(self, store):
        full = store.get("smoke")
        tier = store.get("smoke", lod=1, quant="compact")
        assert tier.num_gaussians < full.num_gaussians
        store.add_scene("smoke", GaussianScene.empty(), overwrite=True)
        assert store.get("smoke").num_gaussians == 0
        assert store.get("smoke", lod=1, quant="compact").num_gaussians == 0

    def test_names_and_contains(self, store):
        assert "smoke" in store
        assert "SMOKE" in store
        assert "absent" not in store
        assert "smoke" in store.names()

    def test_unknown_scene_raises_with_names(self, store):
        with pytest.raises(KeyError, match="registered"):
            store.get("absent")


class TestTierResolution:
    def test_keys_are_name_lod_quant(self, store):
        store.get("smoke")
        store.get("smoke", lod=1)
        store.get("smoke", lod=1, quant="compact")
        keys = set(store.cache.keys())
        assert ("smoke", 0, "lossless") in keys
        assert ("smoke", 1, "lossless") in keys
        assert ("smoke", 1, "compact") in keys

    def test_lossless_lod0_is_base_object(self, store):
        base = store.get("smoke")
        assert store.get("smoke", lod=0, quant="lossless") is base

    def test_lod_reduces_and_quant_perturbs(self, store):
        base = store.get("smoke")
        pruned = store.get("smoke", lod=1)
        assert pruned.num_gaussians == max(1, round(base.num_gaussians * 0.5))
        quantized = store.get("smoke", quant="fp16")
        assert quantized.num_gaussians == base.num_gaussians
        assert not np.array_equal(quantized.means, base.means)

    def test_invalid_tier_arguments(self, store):
        with pytest.raises(ValueError, match="non-negative"):
            store.get("smoke", lod=-1)
        with pytest.raises(KeyError, match="available"):
            store.get("smoke", quant="int4")

    def test_fractional_lod_rejected(self, store):
        """A float lod must not silently alias an integer cache key."""
        with pytest.raises(ValueError, match="integer"):
            store.get("smoke", lod=1.5)
        # Whole-valued floats are harmless and normalise to the int key.
        assert store.get("smoke", lod=1.0) is store.get("smoke", lod=1)

    def test_custom_lod_ratio_honoured(self):
        store = SceneStore(capacity=4, lod_ratio=0.25)
        store.register("smoke", lambda: make_scene("smoke", scale=0.5))
        base = store.get("smoke")
        assert store.get("smoke", lod=1).num_gaussians == max(
            1, round(base.num_gaussians * 0.25)
        )

    def test_capacity_bounds_resident_tiers(self):
        store = SceneStore(capacity=2)
        store.register("smoke", lambda: make_scene("smoke", scale=0.25))
        for lod in range(4):
            store.get("smoke", lod=lod)
        assert len(store.cache) <= 2
        assert store.cache.stats.evictions >= 2


class TestDefaultStore:
    def test_zoo_contains_benchmark_scenes(self):
        reset_default_store()
        store = default_store()
        for name in ("train", "lego", "smoke"):
            assert name in store
        assert default_store() is store

    def test_zoo_scales_match_eval_presets(self):
        reset_default_store()
        scene = default_store().get("train")
        expected = make_scene("train", scale=EVAL_SCENES["train"].scale)
        assert np.array_equal(scene.means, expected.means)


class TestAutoDetection:
    def test_npz_store_and_text_all_load(self, tmp_path, smoke_scene):
        npz = tmp_path / "a.npz"
        save_scene_npz(smoke_scene, npz)
        storef = tmp_path / "b.npz"
        save_scene_store(smoke_scene, storef, QUANT_SPECS["lossless"])
        text = tmp_path / "c.txt"
        save_scene_text(smoke_scene, text)
        for path in (npz, storef, text):
            loaded = load_scene_auto(path)
            assert loaded.num_gaussians == smoke_scene.num_gaussians

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene_auto(tmp_path / "absent.npz")

    def test_unknown_binary_format_is_clear(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01\x02\x03 not a scene")
        with pytest.raises(ValueError, match="known formats"):
            load_scene_auto(path)

    def test_corrupt_zip_is_a_value_error(self, tmp_path):
        """A file with a zip magic but corrupt contents must not leak BadZipFile."""
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04 definitely truncated garbage")
        with pytest.raises(ValueError, match="not a recognised scene"):
            load_scene_auto(path)

    def test_unknown_text_format_is_clear(self, tmp_path):
        path = tmp_path / "notes.md"
        path.write_text("just some prose, no scene here\n")
        with pytest.raises(ValueError, match="known formats"):
            load_scene_auto(path)

    def test_npz_without_scene_keys_is_clear(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, unrelated=np.arange(3))
        with pytest.raises(ValueError, match="not a recognised scene"):
            load_scene_auto(path)


class TestFileBackedPresets:
    def test_derive_scene_spec_extent_is_robust(self, smoke_scene):
        spec = derive_scene_spec(smoke_scene, "file:test")
        assert spec.name == "file:test"
        assert spec.extent > 0
        # Outliers beyond the 90th percentile must not inflate the extent.
        means = np.zeros((100, 3))
        means[:99, 0] = np.linspace(-1, 1, 99)
        means[99] = [1e6, 0, 0]
        outlier_scene = GaussianScene(
            means=means,
            scales=np.full((100, 3), 0.1),
            quaternions=np.tile([1.0, 0, 0, 0], (100, 1)),
            opacities=np.full(100, 0.5),
            sh_coeffs=np.zeros((100, 3, 16)),
        )
        assert derive_scene_spec(outlier_scene, "x").extent < 1e5

    def test_empty_scene_gets_unit_extent(self):
        assert derive_scene_spec(GaussianScene.empty(), "x").extent == 1.0

    def test_register_spec_guards(self):
        with pytest.raises(ValueError, match="built-in"):
            register_scene_spec(derive_scene_spec(GaussianScene.empty(), "train"))
        spec = derive_scene_spec(GaussianScene.empty(), "file:guard-test")
        register_scene_spec(spec)
        with pytest.raises(ValueError, match="already registered"):
            register_scene_spec(spec)
        register_scene_spec(spec, overwrite=True)
        assert scene_spec("file:guard-test") is spec

    def test_register_preset_guards(self):
        with pytest.raises(ValueError, match="built-in"):
            register_preset(EvalScenePreset(name="train", scale=1.0, image_scale=1.0))
        preset = EvalScenePreset(
            name="file:preset-test", scale=1.0, image_scale=1.0, store="file:preset-test"
        )
        register_preset(preset)
        with pytest.raises(ValueError, match="already registered"):
            register_preset(preset)
        register_preset(preset, overwrite=True)
        assert eval_preset("file:preset-test") is preset
        quick = eval_preset("file:preset-test", quick=True)
        assert quick.store == "file:preset-test"
        assert quick.image_scale == pytest.approx(0.6)

    def test_store_backed_preset_resolves_through_store(self):
        from repro.eval.runner import EvalSetup, clear_cache, load_scene_and_camera

        name = "file:runner-test"
        scene = make_scene("smoke", scale=0.5)
        register_scene_spec(derive_scene_spec(scene, name), overwrite=True)
        default_store().add_scene(name, scene, overwrite=True)
        register_preset(
            EvalScenePreset(name=name, scale=1.0, image_scale=1.0, store=name),
            overwrite=True,
        )
        clear_cache()
        loaded, camera = load_scene_and_camera(EvalSetup(name))
        assert np.array_equal(loaded.means, scene.means)
        assert camera.width > 0


class TestWarm:
    def test_warm_prepopulates_every_tier(self, store):
        sizes = store.warm("smoke", [(0, "lossless"), (1, "fp16"), (2, "compact")])
        assert set(sizes) == {(0, "lossless"), (1, "fp16"), (2, "compact")}
        assert ("smoke", 0, "lossless") in store.cache
        assert ("smoke", 1, "fp16") in store.cache
        assert ("smoke", 2, "compact") in store.cache
        # Sizes follow the LOD ladder (level k halves the keep count).
        assert sizes[(1, "fp16")] < sizes[(0, "lossless")]
        assert sizes[(2, "compact")] < sizes[(1, "fp16")]

    def test_warmed_tiers_are_cache_hits_afterwards(self, store):
        store.warm("smoke", [(1, "compact")])
        hits_before = store.cache.stats.hits
        store.get("smoke", lod=1, quant="compact")
        assert store.cache.stats.hits == hits_before + 1

    def test_warm_unknown_scene_raises(self, store):
        with pytest.raises(KeyError, match="unknown store scene"):
            store.warm("nope", [(0, "lossless")])
