"""Pinhole camera model and view transforms for 3DGS rendering.

The preprocessing stage of 3DGS (and Stage I/II of the GCC dataflow) needs,
per viewpoint:

* the world-to-camera (view) matrix ``W`` used to obtain view-space depth,
* the focal lengths used for the perspective Jacobian in EWA projection,
* the mapping from camera space to pixel coordinates.

We use the standard computer-vision convention: the camera looks down the
+Z axis in camera space, +X is right, +Y is down, and depth is the camera-
space ``z`` coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Camera:
    """A pinhole camera.

    Parameters
    ----------
    width, height:
        Image resolution in pixels.
    fx, fy:
        Focal lengths in pixels.
    cx, cy:
        Principal point in pixels (defaults to the image centre).
    world_to_camera:
        ``(4, 4)`` rigid transform mapping world coordinates to camera
        coordinates.
    znear, zfar:
        Clipping planes used for frustum culling.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float = field(default=None)  # type: ignore[assignment]
    cy: float = field(default=None)  # type: ignore[assignment]
    world_to_camera: np.ndarray = field(default=None)  # type: ignore[assignment]
    znear: float = 0.2
    zfar: float = 1000.0

    def __post_init__(self) -> None:
        if self.cx is None:
            self.cx = self.width / 2.0
        if self.cy is None:
            self.cy = self.height / 2.0
        if self.world_to_camera is None:
            self.world_to_camera = np.eye(4)
        self.world_to_camera = np.asarray(self.world_to_camera, dtype=np.float64)
        if self.world_to_camera.shape != (4, 4):
            raise ValueError(
                f"world_to_camera must be 4x4, got {self.world_to_camera.shape}"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.znear <= 0 or self.zfar <= self.znear:
            raise ValueError("require 0 < znear < zfar")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_pixels(self) -> int:
        """Total pixel count of the target image."""
        return self.width * self.height

    @property
    def rotation(self) -> np.ndarray:
        """The ``(3, 3)`` rotation part of the view matrix."""
        return self.world_to_camera[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        """The ``(3,)`` translation part of the view matrix."""
        return self.world_to_camera[:3, 3]

    @property
    def position(self) -> np.ndarray:
        """Camera centre in world coordinates."""
        return -self.rotation.T @ self.translation

    @property
    def tan_half_fov_x(self) -> float:
        """Tangent of half the horizontal field of view."""
        return self.width / (2.0 * self.fx)

    @property
    def tan_half_fov_y(self) -> float:
        """Tangent of half the vertical field of view."""
        return self.height / (2.0 * self.fy)

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def world_to_camera_points(self, points: np.ndarray) -> np.ndarray:
        """Transform ``(N, 3)`` world points into camera space.

        Each coordinate is the explicit sum ``x R[i,0] + y R[i,1] + z R[i,2]
        + t[i]``, elementwise, so a point's bits do not depend on how many
        points share the call (a matrix product's BLAS kernel rounds by batch
        size).
        """
        points = np.asarray(points, dtype=np.float64)
        rotation = self.rotation
        x, y, z = points[:, 0, None], points[:, 1, None], points[:, 2, None]
        return x * rotation[:, 0] + y * rotation[:, 1] + z * rotation[:, 2] + self.translation

    def camera_to_pixel(self, cam_points: np.ndarray) -> np.ndarray:
        """Project camera-space points to pixel coordinates.

        Points behind the camera produce non-finite coordinates; callers are
        expected to have culled them beforehand (Stage I / frustum culling).
        """
        cam_points = np.asarray(cam_points, dtype=np.float64)
        z = cam_points[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * cam_points[:, 0] / z + self.cx
            v = self.fy * cam_points[:, 1] / z + self.cy
        return np.stack([u, v], axis=1)

    def scaled(self, factor: float) -> "Camera":
        """Return a camera rendering at ``factor`` times the resolution."""
        return Camera(
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
            world_to_camera=self.world_to_camera.copy(),
            znear=self.znear,
            zfar=self.zfar,
        )

    @classmethod
    def from_fov(
        cls,
        width: int,
        height: int,
        fov_y_degrees: float,
        world_to_camera: np.ndarray | None = None,
        znear: float = 0.2,
        zfar: float = 1000.0,
    ) -> "Camera":
        """Create a camera from a vertical field of view in degrees."""
        fov_y = math.radians(fov_y_degrees)
        fy = height / (2.0 * math.tan(fov_y / 2.0))
        fx = fy
        return cls(
            width=width,
            height=height,
            fx=fx,
            fy=fy,
            world_to_camera=world_to_camera,
            znear=znear,
            zfar=zfar,
        )


def look_at(
    eye: np.ndarray,
    target: np.ndarray,
    up: np.ndarray = (0.0, 1.0, 0.0),
) -> np.ndarray:
    """Build a world-to-camera matrix for a camera at ``eye`` looking at ``target``.

    Uses the +Z-forward, +Y-down convention expected by :class:`Camera`.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)

    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm

    right = np.cross(forward, up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-12:
        # up parallel to forward: pick an arbitrary orthogonal direction.
        up = np.array([0.0, 0.0, 1.0]) if abs(forward[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        right = np.cross(forward, up)
        right_norm = np.linalg.norm(right)
    right = right / right_norm
    down = np.cross(forward, right)

    rotation = np.stack([right, down, forward], axis=0)
    translation = -rotation @ eye
    matrix = np.eye(4)
    matrix[:3, :3] = rotation
    matrix[:3, 3] = translation
    return matrix


def orbit_cameras(
    num_views: int,
    radius: float,
    height: float,
    target: np.ndarray = (0.0, 0.0, 0.0),
    image_size: tuple[int, int] = (800, 800),
    fov_y_degrees: float = 50.0,
    znear: float = 0.2,
    zfar: float = 1000.0,
) -> list[Camera]:
    """Generate cameras on a circular orbit around ``target``.

    This matches the way the synthetic benchmark scenes (e.g. Lego) are
    evaluated: a ring of test cameras looking inward at the object.
    """
    if num_views <= 0:
        raise ValueError("num_views must be positive")
    target = np.asarray(target, dtype=np.float64)
    cameras = []
    width, height_px = image_size
    for i in range(num_views):
        angle = 2.0 * math.pi * i / num_views
        eye = target + np.array(
            [radius * math.cos(angle), height, radius * math.sin(angle)]
        )
        w2c = look_at(eye, target)
        cameras.append(
            Camera.from_fov(
                width=width,
                height=height_px,
                fov_y_degrees=fov_y_degrees,
                world_to_camera=w2c,
                znear=znear,
                zfar=zfar,
            )
        )
    return cameras
