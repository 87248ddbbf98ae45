"""Float32 engine mode: config plumbing, cache keys, PSNR-floored accuracy.

``dtype="float32"`` is the tile-wise fast path: projection and pair
building stay float64 (tile assignment and therefore every statistics
counter is integer-identical across dtypes), while per-tile blending runs
in single precision.  Where float64 promises bitwise identity, float32
promises a PSNR floor against the float64 oracle — these tests pin both
halves of that ladder contract, plus the cache-key regression: a float32
render must never alias the float64 artefact under any memoisation layer.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.eval.runner import EvalSetup, clear_cache, load_scene_and_camera, run_tilewise
from repro.exec.frames import FrameSpec, render_frame
from repro.render.common import DTYPES, RenderConfig
from repro.render.metrics import psnr
from repro.render.reference import render_tilewise_reference
from repro.render.tile_raster import render_tilewise
from repro.serve.trajectories import RenderJob, make_trajectory

#: Accuracy floor of the float32 fast path against the float64 oracle.
#: Measured ~140 dB on the quick presets — 80 dB leaves a wide margin
#: while still far exceeding visually-lossless territory (~50 dB).
FLOAT32_PSNR_FLOOR_DB = 80.0


def _scene_camera(scene: str = "train"):
    return load_scene_and_camera(EvalSetup(scene, quick=True))


def _assert_stats_equal(expected, actual) -> None:
    for field in dataclasses.fields(expected):
        a, b = getattr(expected, field.name), getattr(actual, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"stats array {field.name} differs"
        else:
            assert a == b, f"stats counter {field.name}: {a} != {b}"


class TestConfigValidation:
    def test_default_dtype_is_float64(self):
        assert RenderConfig().dtype == "float64"
        assert FrameSpec().dtype == "float64"

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            RenderConfig(dtype="float16")
        with pytest.raises(ValueError):
            FrameSpec(dtype="bfloat16")

    def test_gaussianwise_is_float64_only(self):
        with pytest.raises(ValueError):
            FrameSpec(dataflow="gaussianwise", dtype="float32")
        with pytest.raises(ValueError):
            RenderJob(
                "train",
                make_trajectory("orbit", num_frames=1),
                quick=True,
                dataflow="gaussianwise",
                dtype="float32",
            )

    def test_dtypes_catalogue(self):
        assert DTYPES == ("float64", "float32")


class TestFloat32Accuracy:
    @pytest.fixture(scope="class")
    def renders(self):
        scene, camera = _scene_camera()
        return {
            dtype: {
                backend: render(scene, camera, RenderConfig(dtype=dtype))
                for backend, render in (
                    ("vectorized", render_tilewise),
                    ("reference", render_tilewise_reference),
                )
            }
            for dtype in DTYPES
        }

    def test_float32_image_is_float32(self, renders):
        assert renders["float32"]["vectorized"].image.dtype == np.float32
        assert renders["float64"]["vectorized"].image.dtype == np.float64

    def test_counters_identical_across_dtypes(self, renders):
        # Tile assignment and culling run in float64 for both modes, so
        # the integer work counters match exactly (index arrays are left
        # out: early termination order inside a tile is dtype-sensitive).
        f64 = renders["float64"]["vectorized"].stats
        f32 = renders["float32"]["vectorized"].stats
        for field in dataclasses.fields(f64):
            a, b = getattr(f64, field.name), getattr(f32, field.name)
            if not isinstance(a, np.ndarray):
                assert a == b, f"stats counter {field.name}: {a} != {b}"

    def test_float32_backends_agree_bitwise_on_counters(self, renders):
        _assert_stats_equal(
            renders["float32"]["reference"].stats,
            renders["float32"]["vectorized"].stats,
        )

    def test_float32_meets_psnr_floor_against_float64_oracle(self, renders):
        # The reference float64 engine is the oracle; both float32 engines
        # must clear the stated floor against it.
        oracle = renders["float64"]["reference"].image
        for backend in ("vectorized", "reference"):
            value = psnr(oracle, renders["float32"][backend].image.astype(np.float64))
            assert value >= FLOAT32_PSNR_FLOOR_DB, (backend, value)

    def test_float64_backend_contract_unchanged(self, renders):
        # The pre-existing cross-backend promise (allclose images, bitwise
        # stats — see test_engine_equivalence) survives the dtype plumbing.
        assert np.allclose(
            renders["float64"]["vectorized"].image,
            renders["float64"]["reference"].image,
            atol=1e-9,
        )
        _assert_stats_equal(
            renders["float64"]["reference"].stats,
            renders["float64"]["vectorized"].stats,
        )


class TestCacheKeys:
    """A float32 render must never alias a float64 cache entry."""

    def test_runner_caches_dtypes_separately(self):
        clear_cache()
        setup = EvalSetup("train", quick=True)
        f64 = run_tilewise(setup)
        f32 = run_tilewise(setup, dtype="float32")
        assert f64.image.dtype == np.float64
        assert f32.image.dtype == np.float32
        assert not np.array_equal(f64.image, f32.image.astype(np.float64))
        # Repeat calls hit their own entries, not each other's.
        assert run_tilewise(setup) is f64
        assert run_tilewise(setup, dtype="float32") is f32

    def test_frame_spec_carries_dtype(self):
        job = RenderJob(
            "train",
            make_trajectory("orbit", num_frames=1),
            quick=True,
            dtype="float32",
        )
        spec = FrameSpec.for_job(job)
        assert spec.dtype == "float32"

    def test_render_frame_respects_spec_dtype(self):
        scene, camera = _scene_camera()
        f64 = render_frame(scene, camera, FrameSpec())
        f32 = render_frame(scene, camera, FrameSpec(dtype="float32"))
        assert f64.image.dtype == np.float64
        assert f32.image.dtype == np.float32
