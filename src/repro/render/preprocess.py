"""Preprocessing: frustum culling, projection, and screen-space footprints.

This module implements the per-Gaussian preprocessing both dataflows share,
written once as GCC's stages: Stage I's depth cull
(:func:`frustum_cull_depths`), Stage II's geometry projection
(:func:`project_geometry`: view transformation, EWA covariance projection
(Equation 1), the conventional 3-sigma radius (Equation 6) or the paper's
opacity-aware omega-sigma radius (Equation 8), and screen culling) and
Stage III's SH colour, from the raw offset of each mean from the camera.
The standard dataflow's preprocessing (:func:`project_scene`) *is* these
stages with every condition taken; the Gaussian-wise renderer projects a
window of depth groups per call and skips Stage III where cross-stage
conditions allow.  Every stage is per Gaussian: a Gaussian's projection and
colour are bit for bit the same in either dataflow, whatever batch it is
projected in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.covariance import (
    build_covariance_3d,
    covariance_2d_eigenvalues,
    invert_covariance_2d,
    project_covariance_2d,
)
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import evaluate_sh_colors
from repro.render.common import ALPHA_MIN, DEPTH_NEAR, RenderConfig


@dataclass
class GeometryProjection:
    """Stage II output for a subset of Gaussians: geometry only, no colour.

    This is what GCC's cross-stage conditional processing relies on: the
    projected position and shape (44 bytes of input per Gaussian) are enough
    to decide whether the 192 bytes of SH coefficients need to be fetched at
    all.  All arrays are aligned: entry ``i`` describes the same Gaussian.
    """

    #: Indices into the original scene, shape ``(K,)``.
    source_indices: np.ndarray
    #: Projected 2D centres in pixel coordinates, shape ``(K, 2)``.
    means2d: np.ndarray
    #: View-space depths, shape ``(K,)``.
    depths: np.ndarray
    #: Packed inverse 2D covariances ``(A, B, C)``, shape ``(K, 3)``.
    conics: np.ndarray
    #: 2D covariance matrices, shape ``(K, 2, 2)``.
    cov2d: np.ndarray
    #: Conservative bounding radius in pixels, shape ``(K,)``.
    radii: np.ndarray
    #: Opacities, shape ``(K,)``.
    opacities: np.ndarray
    #: Number of Gaussians given to this projection call.
    num_input: int

    @property
    def num_visible(self) -> int:
        """Number of Gaussians that survived screen culling."""
        return int(self.source_indices.shape[0])


@dataclass
class ProjectedGaussians(GeometryProjection):
    """Stages I-III with every condition taken: one frame's visible Gaussians.

    The geometry of every Stage I survivor that passed screen culling, plus
    its evaluated colour.  ``source_indices`` maps back into the original
    scene so that statistics (e.g. which Gaussians were actually rendered)
    can be reported against the full model.
    """

    #: Evaluated RGB colours, shape ``(K, 3)``.
    colors: np.ndarray
    #: Number of Gaussians in the original scene (before any culling).
    num_total: int

    @property
    def num_depth_passed(self) -> int:
        """Number of Gaussians that passed the Stage I depth cull."""
        return self.num_input


def bounding_radius(
    eigenvalues: np.ndarray,
    opacities: np.ndarray,
    rule: str = "3sigma",
) -> np.ndarray:
    """Compute the per-Gaussian bounding radius in pixels.

    ``"3sigma"`` implements Equation 6 (``r = ceil(3 sqrt(lambda_max))``);
    ``"omega-sigma"`` implements the paper's opacity-aware Equation 8
    (``r = ceil(sqrt(2 ln(opacity / alpha_min) * lambda_max))``), which
    shrinks to zero for Gaussians whose peak alpha cannot reach
    :data:`~repro.render.common.ALPHA_MIN`.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    lam_max = eigenvalues[:, 0] if eigenvalues.ndim == 2 else eigenvalues
    if rule == "3sigma":
        return np.ceil(3.0 * np.sqrt(np.maximum(lam_max, 0.0)))
    if rule == "omega-sigma":
        opacities = np.asarray(opacities, dtype=np.float64)
        # 2 ln(255 * omega) in the paper's notation with alpha_min = 1/255.
        chi2 = 2.0 * np.log(np.maximum(opacities / ALPHA_MIN, 1.0e-12))
        chi2 = np.maximum(chi2, 0.0)
        return np.ceil(np.sqrt(chi2 * np.maximum(lam_max, 0.0)))
    raise ValueError(f"unknown radius rule {rule!r}")


def frustum_cull_depths(scene: GaussianScene, camera: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Stage I depth computation: return ``(depths, keep_mask)``.

    Only the mean positions are needed, which is why GCC's Stage I streams
    just 12 bytes per Gaussian from DRAM.
    """
    cam_points = camera.world_to_camera_points(scene.means)
    depths = cam_points[:, 2]
    keep = (depths > max(DEPTH_NEAR, camera.znear)) & (depths < camera.zfar)
    return depths, keep


def project_geometry(
    scene: GaussianScene,
    camera: Camera,
    indices: np.ndarray,
    config: RenderConfig | None = None,
) -> GeometryProjection:
    """Project the position/shape of the Gaussians at scene ``indices``.

    This is Stage II of the GCC dataflow: position projection, covariance
    reconstruction and projection, the omega-sigma (or 3-sigma) radius, and
    screen culling.  Spherical-harmonics colour is *not* evaluated here; the
    caller decides per Gaussian whether that work (and the associated SH data
    load) is necessary.  Every step is per Gaussian, so a Gaussian's row is
    bit for bit the same whatever else shares the call.
    """
    config = config or RenderConfig()
    indices = np.asarray(indices, dtype=np.int64)
    cam_points = camera.world_to_camera_points(scene.means[indices])
    depths = cam_points[:, 2]
    means2d = camera.camera_to_pixel(cam_points)
    cov3d = build_covariance_3d(scene.scales[indices], scene.quaternions[indices])
    cov2d = project_covariance_2d(
        cov3d,
        cam_points,
        camera.rotation,
        camera.fx,
        camera.fy,
        camera.tan_half_fov_x,
        camera.tan_half_fov_y,
    )
    conics, conic_valid = invert_covariance_2d(cov2d)
    lam_max, _ = covariance_2d_eigenvalues(cov2d)
    opacities = scene.opacities[indices]
    radii = bounding_radius(lam_max, opacities, rule=config.radius_rule)

    # Screen culling: keep Gaussians whose bounding square overlaps the image
    # and whose covariance is invertible and whose radius is non-zero.
    x, y = means2d[:, 0], means2d[:, 1]
    on_screen = (
        (x + radii >= 0)
        & (x - radii <= camera.width - 1)
        & (y + radii >= 0)
        & (y - radii <= camera.height - 1)
    )
    keep = np.nonzero(conic_valid & on_screen & (radii > 0))[0]
    return GeometryProjection(
        source_indices=indices[keep],
        means2d=means2d[keep],
        depths=depths[keep],
        conics=conics[keep],
        cov2d=cov2d[keep],
        radii=radii[keep],
        opacities=opacities[keep],
        num_input=int(indices.size),
    )


def project_scene(
    scene: GaussianScene,
    camera: Camera,
    config: RenderConfig | None = None,
) -> ProjectedGaussians:
    """Preprocess a scene for one camera: GCC's Stages I-III, unconditionally.

    Stage I culls by depth, Stage II projects every survivor's geometry and
    culls by screen, and Stage III evaluates the SH colour of every Gaussian
    still visible — the standard dataflow's preprocessing, so the caller can
    measure how many of the preprocessed Gaussians end up being used
    (Figure 2a).
    """
    config = config or RenderConfig()
    _, keep = frustum_cull_depths(scene, camera)
    geometry = project_geometry(scene, camera, np.nonzero(keep)[0], config)
    visible = geometry.source_indices
    colors = evaluate_sh_colors(
        scene.sh_coeffs[visible],
        scene.means[visible] - camera.position,
        degree=config.sh_degree,
    )
    return ProjectedGaussians(**vars(geometry), colors=colors, num_total=scene.num_gaussians)


def tile_range(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive-exclusive tile index ranges covered by each Gaussian's AABB.

    Returns ``(tx_min, tx_max, ty_min, ty_max)`` where a Gaussian covers tiles
    ``tx_min <= tx < tx_max`` horizontally (and similarly vertically).  A
    Gaussian entirely off-screen gets an empty range.
    """
    means2d = np.asarray(means2d, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    num_tiles_x = (width + tile_size - 1) // tile_size
    num_tiles_y = (height + tile_size - 1) // tile_size

    tx_min = np.clip(np.floor((means2d[:, 0] - radii) / tile_size), 0, num_tiles_x).astype(int)
    tx_max = np.clip(np.floor((means2d[:, 0] + radii) / tile_size) + 1, 0, num_tiles_x).astype(int)
    ty_min = np.clip(np.floor((means2d[:, 1] - radii) / tile_size), 0, num_tiles_y).astype(int)
    ty_max = np.clip(np.floor((means2d[:, 1] + radii) / tile_size) + 1, 0, num_tiles_y).astype(int)

    empty = (tx_max <= tx_min) | (ty_max <= ty_min)
    tx_max = np.where(empty, tx_min, tx_max)
    ty_max = np.where(empty, ty_min, ty_max)
    return tx_min, tx_max, ty_min, ty_max
