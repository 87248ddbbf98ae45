"""3D Gaussian Splatting substrate: scene containers, cameras, and math.

This subpackage implements the data model the GCC paper's pipeline consumes:

* :class:`~repro.gaussians.model.GaussianScene` — the explicit scene
  representation used by 3DGS (means, scales, rotation quaternions,
  opacities, and spherical-harmonic colour coefficients).
* :class:`~repro.gaussians.camera.Camera` — pinhole camera with the
  world-to-camera (view) and perspective projection transforms used by the
  preprocessing stage.
* :mod:`~repro.gaussians.sh` — real spherical harmonics evaluation up to
  degree 3 (48 coefficients per Gaussian), Equation (2) of the paper.
* :mod:`~repro.gaussians.covariance` — covariance construction
  ``Sigma = R S S^T R^T`` and EWA projection to 2D, Equation (1).
* :mod:`~repro.gaussians.synthetic` — synthetic benchmark scenes standing in
  for the six pre-trained models the paper evaluates on.
* :mod:`~repro.gaussians.presets` — the scale each benchmark scene is
  evaluated at, which every layer above resolves scenes through.
"""

from repro.gaussians.camera import Camera, look_at, orbit_cameras
from repro.gaussians.covariance import (
    build_covariance_3d,
    project_covariance_2d,
    quaternion_to_rotation_matrix,
)
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import SH_COEFFS_PER_CHANNEL, evaluate_sh_colors
from repro.gaussians.synthetic import SceneSpec, make_scene, scene_spec

__all__ = [
    "Camera",
    "GaussianScene",
    "SH_COEFFS_PER_CHANNEL",
    "SceneSpec",
    "build_covariance_3d",
    "evaluate_sh_colors",
    "look_at",
    "make_scene",
    "orbit_cameras",
    "project_covariance_2d",
    "quaternion_to_rotation_matrix",
    "scene_spec",
]
