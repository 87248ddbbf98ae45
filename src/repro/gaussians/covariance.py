"""Covariance construction and EWA projection (Equation 1 of the paper).

Each Gaussian's shape is parameterised by a scale vector ``s`` and a rotation
quaternion ``q``.  The 3D covariance is

    Sigma = R S S^T R^T

and its screen-space (2D) projection under a camera with view rotation ``W``
and perspective Jacobian ``J`` is

    Sigma' = J W Sigma W^T J^T

These are the "numerous small matrix multiplications" the Projection Unit of
the GCC architecture (Section 4.3) performs with its shared matrix-vector
multipliers.  All functions here are vectorised over the Gaussian axis.
"""

from __future__ import annotations

import numpy as np


def quaternion_to_rotation_matrix(quaternions: np.ndarray) -> np.ndarray:
    """Convert ``(N, 4)`` quaternions (w, x, y, z) to ``(N, 3, 3)`` rotations.

    Quaternions are normalised internally, matching the reference 3DGS
    rasteriser (which stores unnormalised activations).
    """
    q = np.asarray(quaternions, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    norms = np.where(norms < 1e-12, 1.0, norms)
    q = q / norms
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]

    rot = np.empty((q.shape[0], 3, 3), dtype=np.float64)
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 0, 2] = 2.0 * (x * z + w * y)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 1, 2] = 2.0 * (y * z - w * x)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


def build_covariance_3d(scales: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
    """Reconstruct ``(N, 3, 3)`` world-space covariance matrices.

    Implements ``Sigma = R S S^T R^T`` where ``S = diag(s)``.
    """
    scales = np.asarray(scales, dtype=np.float64)
    if scales.ndim == 1:
        scales = scales[None, :]
    rotations = quaternion_to_rotation_matrix(quaternions)
    # M = R @ diag(s): scale the columns of R.
    m = rotations * scales[:, None, :]
    return m @ np.transpose(m, (0, 2, 1))


def perspective_jacobian(
    cam_points: np.ndarray,
    fx: float,
    fy: float,
    tan_half_fov_x: float | None = None,
    tan_half_fov_y: float | None = None,
) -> np.ndarray:
    """Jacobian ``J`` of the perspective projection at each camera-space point.

    Returns ``(N, 2, 3)`` matrices.  Following the reference implementation,
    the camera-space ``x/z`` and ``y/z`` ratios are clamped to 1.3x the
    half-FOV tangents before differentiation to keep the linearisation stable
    for Gaussians near the frustum boundary.
    """
    cam_points = np.asarray(cam_points, dtype=np.float64)
    if cam_points.ndim == 1:
        cam_points = cam_points[None, :]
    x, y, z = cam_points[:, 0].copy(), cam_points[:, 1].copy(), cam_points[:, 2]
    z = np.where(np.abs(z) < 1e-8, 1e-8, z)

    if tan_half_fov_x is not None:
        limit_x = 1.3 * tan_half_fov_x
        x = np.clip(x / z, -limit_x, limit_x) * z
    if tan_half_fov_y is not None:
        limit_y = 1.3 * tan_half_fov_y
        y = np.clip(y / z, -limit_y, limit_y) * z

    n = cam_points.shape[0]
    jac = np.zeros((n, 2, 3), dtype=np.float64)
    jac[:, 0, 0] = fx / z
    jac[:, 0, 2] = -fx * x / (z * z)
    jac[:, 1, 1] = fy / z
    jac[:, 1, 2] = -fy * y / (z * z)
    return jac


def project_covariance_2d(
    cov3d: np.ndarray,
    cam_points: np.ndarray,
    view_rotation: np.ndarray,
    fx: float,
    fy: float,
    tan_half_fov_x: float | None = None,
    tan_half_fov_y: float | None = None,
    dilation: float = 0.3,
) -> np.ndarray:
    """Project 3D covariances to 2D screen space (``Sigma' = J W Sigma W^T J^T``).

    Parameters
    ----------
    cov3d:
        ``(N, 3, 3)`` world-space covariances.
    cam_points:
        ``(N, 3)`` camera-space Gaussian centres (for the Jacobian).
    view_rotation:
        ``(3, 3)`` rotation part of the world-to-camera matrix.
    dilation:
        The low-pass dilation added to the diagonal (0.3 px^2 in the reference
        rasteriser) to guarantee each splat covers at least one pixel.

    Returns
    -------
    ``(N, 2, 2)`` screen-space covariance matrices.
    """
    cov3d = np.asarray(cov3d, dtype=np.float64)
    view_rotation = np.asarray(view_rotation, dtype=np.float64)
    jac = perspective_jacobian(cam_points, fx, fy, tan_half_fov_x, tan_half_fov_y)

    # T = J @ W, shape (N, 2, 3)
    t = jac @ view_rotation[None, :, :]
    cov2d = t @ cov3d @ np.transpose(t, (0, 2, 1))
    cov2d[:, 0, 0] += dilation
    cov2d[:, 1, 1] += dilation
    return cov2d


def covariance_2d_eigenvalues(cov2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``(lambda1 >= lambda2)`` of ``(N, 2, 2)`` covariances.

    Uses the closed-form solution for symmetric 2x2 matrices, which is what
    the SCU hardware computes.
    """
    cov2d = np.asarray(cov2d, dtype=np.float64)
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    d = cov2d[:, 1, 1]
    mid = 0.5 * (a + d)
    det = a * d - b * b
    disc = np.sqrt(np.maximum(mid * mid - det, 0.0))
    lam1 = mid + disc
    lam2 = np.maximum(mid - disc, 0.0)
    return lam1, lam2


def invert_covariance_2d(cov2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``(N, 2, 2)`` covariances, returning ``(conic, valid_mask)``.

    The "conic" is the packed inverse ``(A, B, C)`` with
    ``d^T Sigma'^{-1} d = A dx^2 + 2 B dx dy + C dy^2``.  Degenerate
    covariances (non-positive determinant) are flagged invalid.
    """
    cov2d = np.asarray(cov2d, dtype=np.float64)
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    d = cov2d[:, 1, 1]
    det = a * d - b * b
    valid = det > 1e-12
    safe_det = np.where(valid, det, 1.0)
    conic = np.stack([d / safe_det, -b / safe_det, a / safe_det], axis=1)
    conic[~valid] = 0.0
    return conic, valid


def mahalanobis_sq(conic: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance ``d^T Sigma'^{-1} d`` from packed conics.

    ``conic`` has shape ``(..., 3)`` and ``dx``/``dy`` broadcast against its
    leading dimensions.  Floating conics keep their dtype (the float32
    engine mode evaluates in single precision); anything else is promoted
    to float64 as before.

    ``repro.render.kernels._maha_grid`` builds the same sum from per-axis
    terms, in this association — change both together (the engines are
    compared bitwise with :mod:`repro.render.reference` by the
    engine-equivalence tests).
    """
    conic = np.asarray(conic)
    if not np.issubdtype(conic.dtype, np.floating):
        conic = conic.astype(np.float64)
    a = conic[..., 0]
    b = conic[..., 1]
    c = conic[..., 2]
    return a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
