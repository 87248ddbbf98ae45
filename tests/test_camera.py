"""Tests for the pinhole camera model and view transforms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.camera import Camera, look_at, orbit_cameras


class TestCameraConstruction:
    def test_default_principal_point_is_image_centre(self):
        camera = Camera(width=640, height=480, fx=500.0, fy=500.0)
        assert camera.cx == 320.0
        assert camera.cy == 240.0

    def test_default_view_matrix_is_identity(self):
        camera = Camera(width=64, height=64, fx=50.0, fy=50.0)
        assert np.allclose(camera.world_to_camera, np.eye(4))

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            Camera(width=0, height=64, fx=50.0, fy=50.0)

    def test_rejects_non_positive_focal_length(self):
        with pytest.raises(ValueError):
            Camera(width=64, height=64, fx=-1.0, fy=50.0)

    def test_rejects_bad_clip_planes(self):
        with pytest.raises(ValueError):
            Camera(width=64, height=64, fx=50.0, fy=50.0, znear=2.0, zfar=1.0)

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(ValueError):
            Camera(width=64, height=64, fx=50.0, fy=50.0, world_to_camera=np.eye(3))

    def test_from_fov_matches_expected_focal(self):
        camera = Camera.from_fov(width=100, height=100, fov_y_degrees=90.0)
        assert camera.fy == pytest.approx(50.0, rel=1e-6)
        assert camera.fx == pytest.approx(camera.fy)

    def test_num_pixels(self):
        camera = Camera(width=10, height=20, fx=5.0, fy=5.0)
        assert camera.num_pixels == 200


class TestCameraTransforms:
    def test_identity_camera_projects_origin_axis_point_to_centre(self):
        camera = Camera(width=100, height=100, fx=50.0, fy=50.0)
        cam_points = camera.world_to_camera_points(np.array([[0.0, 0.0, 5.0]]))
        pixels = camera.camera_to_pixel(cam_points)
        assert cam_points[0, 2] == pytest.approx(5.0)
        assert pixels[0, 0] == pytest.approx(camera.cx)
        assert pixels[0, 1] == pytest.approx(camera.cy)

    def test_point_to_the_right_projects_right_of_centre(self):
        camera = Camera(width=100, height=100, fx=50.0, fy=50.0)
        pixels = camera.camera_to_pixel(camera.world_to_camera_points(np.array([[1.0, 0.0, 5.0]])))
        assert pixels[0, 0] > camera.cx

    def test_position_is_inverse_of_view_transform(self):
        eye = np.array([1.0, 2.0, 3.0])
        camera = Camera(
            width=64, height=64, fx=50.0, fy=50.0, world_to_camera=look_at(eye, np.zeros(3))
        )
        assert np.allclose(camera.position, eye, atol=1e-9)

    def test_scaled_camera_preserves_fov(self):
        camera = Camera.from_fov(width=200, height=100, fov_y_degrees=60.0)
        half = camera.scaled(0.5)
        assert half.width == 100
        assert half.height == 50
        assert half.tan_half_fov_y == pytest.approx(camera.tan_half_fov_y, rel=1e-6)

    def test_world_to_camera_points_roundtrip_depth(self):
        eye = np.array([0.0, 0.0, -4.0])
        camera = Camera(
            width=64, height=64, fx=50.0, fy=50.0, world_to_camera=look_at(eye, np.zeros(3))
        )
        cam_points = camera.world_to_camera_points(np.zeros((1, 3)))
        assert cam_points[0, 2] == pytest.approx(4.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 600),
        size=st.one_of(st.just(1), st.integers(1, 600)),
    )
    def test_any_subset_transforms_as_its_rows_of_the_whole(self, seed, count, size):
        # The transform is per point: a point's camera-space bits do not
        # depend on which points, or how many, share the call.
        rng = np.random.default_rng(seed)
        camera = Camera(
            width=64,
            height=64,
            fx=50.0,
            fy=50.0,
            world_to_camera=look_at(rng.normal(0.0, 10.0, 3), rng.normal(0.0, 1.0, 3)),
        )
        points = rng.normal(0.0, 5.0, (count, 3))
        rows = rng.choice(count, min(size, count), replace=False)
        whole = camera.world_to_camera_points(points)
        assert camera.world_to_camera_points(points[rows]).tobytes() == whole[rows].tobytes()


class TestLookAt:
    def test_target_is_on_positive_z_axis(self):
        matrix = look_at(np.array([3.0, 2.0, 1.0]), np.array([0.0, 0.0, 0.0]))
        target_cam = (matrix[:3, :3] @ np.zeros(3)) + matrix[:3, 3]
        assert target_cam[0] == pytest.approx(0.0, abs=1e-9)
        assert target_cam[1] == pytest.approx(0.0, abs=1e-9)
        assert target_cam[2] > 0

    def test_rotation_is_orthonormal(self):
        matrix = look_at(np.array([1.0, 5.0, -2.0]), np.array([0.0, 1.0, 0.0]))
        rotation = matrix[:3, :3]
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-9)

    def test_coincident_eye_and_target_raises(self):
        with pytest.raises(ValueError):
            look_at(np.zeros(3), np.zeros(3))

    def test_up_parallel_to_forward_is_handled(self):
        matrix = look_at(np.array([0.0, 5.0, 0.0]), np.zeros(3), up=(0.0, 1.0, 0.0))
        assert np.allclose(matrix[:3, :3] @ matrix[:3, :3].T, np.eye(3), atol=1e-9)


class TestOrbitCameras:
    def test_produces_requested_number_of_views(self):
        cameras = orbit_cameras(num_views=6, radius=4.0, height=1.0)
        assert len(cameras) == 6

    def test_all_views_look_at_target(self):
        target = np.array([0.5, 0.0, -0.5])
        cameras = orbit_cameras(num_views=4, radius=3.0, height=2.0, target=target)
        for camera in cameras:
            cam_target = camera.world_to_camera_points(target[None, :])[0]
            assert cam_target[2] > 0
            assert abs(cam_target[0]) < 1e-9

    def test_camera_distance_matches_radius_and_height(self):
        cameras = orbit_cameras(num_views=3, radius=3.0, height=4.0)
        for camera in cameras:
            assert np.linalg.norm(camera.position) == pytest.approx(5.0, rel=1e-9)

    def test_rejects_zero_views(self):
        with pytest.raises(ValueError):
            orbit_cameras(num_views=0, radius=1.0, height=0.0)
