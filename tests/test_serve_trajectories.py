"""Tests for trajectory workloads (camera paths and render jobs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gaussians.presets import eval_preset
from repro.gaussians.synthetic import make_camera, scene_spec
from repro.serve.trajectories import (
    TRAJECTORY_KINDS,
    RenderJob,
    Trajectory,
    make_trajectory,
)


class TestTrajectoryExpansion:
    @pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
    def test_expands_to_requested_frame_count(self, kind):
        preset = eval_preset("train", quick=True)
        cameras = make_trajectory(kind, num_frames=5).cameras(preset)
        assert len(cameras) == 5

    @pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
    def test_respects_preset_image_scale(self, kind):
        preset = eval_preset("lego", quick=True)
        reference = make_camera("lego", image_scale=preset.image_scale)
        for camera in make_trajectory(kind, num_frames=3).cameras(preset):
            assert (camera.width, camera.height) == (reference.width, reference.height)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trajectory kind"):
            Trajectory(kind="spline", num_frames=4)

    def test_nonpositive_frames_rejected(self):
        with pytest.raises(ValueError, match="num_frames"):
            make_trajectory("orbit", num_frames=0)


class TestOrbit:
    def test_orbit_frames_match_make_camera_exactly(self):
        """Orbit frame i IS make_camera(view_index=i, num_views=N), bitwise."""
        preset = eval_preset("train", quick=True)
        cameras = make_trajectory("orbit", num_frames=6).cameras(preset)
        for i, camera in enumerate(cameras):
            expected = make_camera(
                "train", view_index=i, num_views=6, image_scale=preset.image_scale
            )
            assert np.array_equal(camera.world_to_camera, expected.world_to_camera)
            assert camera.fx == expected.fx and camera.fy == expected.fy

    def test_orbit_frame0_matches_evaluation_camera(self):
        """Azimuth 0 of any orbit equals the runner's view_index=0 camera."""
        preset = eval_preset("train", quick=True)
        frame0 = make_trajectory("orbit", num_frames=16).cameras(preset)[0]
        eval_camera = make_camera(
            "train", view_index=preset.view_index, image_scale=preset.image_scale
        )
        assert np.array_equal(frame0.world_to_camera, eval_camera.world_to_camera)


class TestDolly:
    def test_dolly_approaches_the_scene(self):
        preset = eval_preset("lego", quick=True)
        cameras = make_trajectory("dolly", num_frames=4).cameras(preset)
        distances = [np.linalg.norm(c.position) for c in cameras]
        assert distances == sorted(distances, reverse=True)

    def test_dolly_range_parameters(self):
        preset = eval_preset("lego", quick=True)
        spec = scene_spec("lego")
        cameras = make_trajectory(
            "dolly", num_frames=3, start=2.0, end=1.0
        ).cameras(preset)
        base = spec.extent * spec.camera_radius_factor
        first = np.linalg.norm(cameras[0].position[[0, 2]])
        assert first == pytest.approx(2.0 * base)

    def test_dolly_rejects_nonpositive_radii(self):
        preset = eval_preset("lego", quick=True)
        with pytest.raises(ValueError, match="dolly radii"):
            make_trajectory("dolly", num_frames=2, start=-1.0).cameras(preset)


class TestWalkthroughAndJitter:
    def test_walkthrough_eye_moves_monotonically(self):
        preset = eval_preset("drjohnson", quick=True)
        cameras = make_trajectory("walkthrough", num_frames=5).cameras(preset)
        positions = np.stack([c.position for c in cameras])
        steps = np.diff(positions, axis=0)
        # Constant-direction chord: every step equals the first.
        assert np.allclose(steps, steps[0])
        assert np.linalg.norm(steps[0]) > 0

    def test_jitter_is_deterministic_per_seed(self):
        preset = eval_preset("train", quick=True)
        a = make_trajectory("jitter", num_frames=4, seed=9).cameras(preset)
        b = make_trajectory("jitter", num_frames=4, seed=9).cameras(preset)
        c = make_trajectory("jitter", num_frames=4, seed=10).cameras(preset)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.world_to_camera, cb.world_to_camera)
        assert not np.array_equal(a[0].world_to_camera, c[0].world_to_camera)

    def test_jitter_stays_near_base_view(self):
        preset = eval_preset("train", quick=True)
        spec = scene_spec("train")
        base = make_camera("train", image_scale=preset.image_scale)
        cameras = make_trajectory(
            "jitter", num_frames=8, jitter_sigma=0.01
        ).cameras(preset)
        for camera in cameras:
            offset = np.linalg.norm(camera.position - base.position)
            assert offset < 0.1 * spec.extent


class TestRenderJob:
    def test_job_expands_cameras(self):
        job = RenderJob("train", make_trajectory("orbit", num_frames=3), quick=True)
        assert job.num_frames == 3
        assert len(job.cameras()) == 3

    def test_job_rejects_unknown_scene(self):
        with pytest.raises(KeyError):
            RenderJob("bonsai", make_trajectory("orbit", num_frames=2))

    def test_job_rejects_bad_dataflow(self):
        trajectory = make_trajectory("orbit", num_frames=2)
        with pytest.raises(ValueError, match="dataflow"):
            RenderJob("train", trajectory, dataflow="blockwise")

    def test_with_frames_resamples(self):
        job = RenderJob("train", make_trajectory("orbit", num_frames=3), quick=True)
        bigger = job.with_frames(7)
        assert bigger.num_frames == 7
        assert bigger.scene == job.scene
        assert job.num_frames == 3  # original untouched
