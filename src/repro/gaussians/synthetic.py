"""Synthetic benchmark scenes standing in for the paper's trained 3DGS models.

The GCC paper evaluates on six scenes: two synthetic object captures (Lego,
Palace), two outdoor Tanks-and-Temples scenes (Train, Truck) and two indoor
Deep Blending scenes (Playroom, Drjohnson).  The pre-trained Gaussian models
are not redistributable and are millions of primitives each, so this module
generates seeded synthetic scenes whose *statistics* mimic each benchmark:

* scene extent and camera placement (object orbit vs. inside-looking-out),
* number of Gaussians (scaled down by ``scale``; the paper's ratios are
  *not* invariant under it — primitive sizes do not shrink with the count,
  so depth complexity grows with it: ROADMAP item 9),
* opacity distribution (synthetic scenes are dominated by near-opaque
  primitives, real captures have a long tail of translucent ones),
* primitive size distribution (dense small splats in the foreground, large
  fuzzy splats for backgrounds),
* clustering (compact object vs. sparse room-scale distribution).

Those are precisely the properties that drive the quantities the paper
measures: the fraction of preprocessed Gaussians that are actually rendered
(Fig. 2a), per-Gaussian reload counts under tile-wise rendering (Fig. 2b),
bounding-box overdraw (Table 1), and DRAM traffic (Figs. 11-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.model import GaussianScene
from repro.gaussians.sh import SH_C0, SH_COEFFS_PER_CHANNEL


@dataclass(frozen=True)
class SceneSpec:
    """Parameters describing one synthetic benchmark scene.

    The defaults of each named preset (see :data:`SCENE_SPECS`) were chosen so
    that the reproduced motivation statistics land near the paper's Figure 2
    values at the default ``scale``.
    """

    name: str
    #: Number of Gaussians at scale=1.0.
    base_num_gaussians: int
    #: Approximate world-space radius of the scene content.
    extent: float
    #: Number of dense foreground clusters.
    num_clusters: int
    #: Standard deviation of each cluster, as a fraction of ``extent``.
    cluster_sigma: float
    #: Fraction of Gaussians placed in a diffuse background shell.
    background_fraction: float
    #: Beta-distribution parameters for opacity (alpha, beta).
    opacity_beta: tuple[float, float]
    #: Log-normal parameters (mean, sigma) for primitive scale, in world units.
    scale_lognormal: tuple[float, float]
    #: Camera orbit radius as a multiple of ``extent`` ("object" scenes) or
    #: the fraction of the extent the camera sits from the centre ("room"
    #: scenes).
    camera_radius_factor: float
    #: Camera height as a fraction of extent.
    camera_height_factor: float
    #: Whether the camera is inside the scene looking outward (indoor
    #: captures) rather than orbiting an object.
    indoor: bool
    #: Default rendered image resolution (width, height).
    image_size: tuple[int, int]
    #: Vertical field of view in degrees.
    fov_y_degrees: float = 50.0
    #: Random seed for reproducibility.
    seed: int = 0
    #: Amplitude of view-dependent (degree>=1) SH colour components.
    sh_detail: float = 0.15


#: The six benchmark scenes from the paper, plus a tiny smoke-test scene.
SCENE_SPECS: dict[str, SceneSpec] = {
    "palace": SceneSpec(
        name="palace",
        base_num_gaussians=120_000,
        extent=2.2,
        num_clusters=10,
        cluster_sigma=0.11,
        background_fraction=0.05,
        opacity_beta=(4.0, 0.7),
        scale_lognormal=(-4.1, 0.6),
        camera_radius_factor=2.4,
        camera_height_factor=0.7,
        indoor=False,
        image_size=(800, 800),
        seed=11,
    ),
    "lego": SceneSpec(
        name="lego",
        base_num_gaussians=100_000,
        extent=2.0,
        num_clusters=8,
        cluster_sigma=0.12,
        background_fraction=0.04,
        opacity_beta=(4.0, 0.7),
        scale_lognormal=(-4.0, 0.6),
        camera_radius_factor=2.5,
        camera_height_factor=0.8,
        indoor=False,
        image_size=(800, 800),
        seed=12,
    ),
    "train": SceneSpec(
        name="train",
        base_num_gaussians=1_000_000,
        extent=12.0,
        num_clusters=16,
        cluster_sigma=0.14,
        background_fraction=0.30,
        opacity_beta=(2.5, 0.8),
        scale_lognormal=(-4.0, 0.7),
        camera_radius_factor=0.9,
        camera_height_factor=0.15,
        indoor=False,
        image_size=(980, 545),
        seed=13,
    ),
    "truck": SceneSpec(
        name="truck",
        base_num_gaussians=2_500_000,
        extent=14.0,
        num_clusters=18,
        cluster_sigma=0.13,
        background_fraction=0.32,
        opacity_beta=(2.5, 0.8),
        scale_lognormal=(-4.0, 0.7),
        camera_radius_factor=0.9,
        camera_height_factor=0.12,
        indoor=False,
        image_size=(979, 546),
        seed=14,
    ),
    "playroom": SceneSpec(
        name="playroom",
        base_num_gaussians=2_300_000,
        extent=8.0,
        num_clusters=24,
        cluster_sigma=0.10,
        background_fraction=0.40,
        opacity_beta=(2.0, 0.9),
        scale_lognormal=(-3.6, 0.8),
        camera_radius_factor=0.85,
        camera_height_factor=0.05,
        indoor=True,
        image_size=(1264, 832),
        fov_y_degrees=70.0,
        seed=15,
    ),
    "drjohnson": SceneSpec(
        name="drjohnson",
        base_num_gaussians=3_300_000,
        extent=10.0,
        num_clusters=28,
        cluster_sigma=0.09,
        background_fraction=0.45,
        opacity_beta=(2.0, 0.9),
        scale_lognormal=(-3.5, 0.8),
        camera_radius_factor=0.85,
        camera_height_factor=0.05,
        indoor=True,
        image_size=(1332, 876),
        fov_y_degrees=70.0,
        seed=16,
    ),
    "smoke": SceneSpec(
        name="smoke",
        base_num_gaussians=400,
        extent=1.5,
        num_clusters=3,
        cluster_sigma=0.25,
        background_fraction=0.1,
        opacity_beta=(2.0, 1.0),
        scale_lognormal=(-3.0, 0.4),
        camera_radius_factor=2.5,
        camera_height_factor=0.6,
        indoor=False,
        image_size=(128, 128),
        seed=7,
    ),
}

#: The scenes the paper's main evaluation (Figure 10, Table 2) covers.
BENCHMARK_SCENES: tuple[str, ...] = (
    "palace",
    "lego",
    "train",
    "truck",
    "playroom",
    "drjohnson",
)


#: Names of the specs shipped with the package (runtime registrations via
#: :func:`register_scene_spec` may add more but can never replace these).
_BUILTIN_SPEC_NAMES = frozenset(SCENE_SPECS)


def scene_spec(name: str) -> SceneSpec:
    """Return the :class:`SceneSpec` preset for ``name`` (case-insensitive)."""
    key = name.lower()
    if key not in SCENE_SPECS:
        raise KeyError(
            f"unknown scene {name!r}; available: {sorted(SCENE_SPECS)}"
        )
    return SCENE_SPECS[key]


def register_scene_spec(spec: SceneSpec, overwrite: bool = False) -> None:
    """Register a runtime :class:`SceneSpec` (e.g. for a file-backed scene).

    Camera placement and trajectory expansion look scenes up by name through
    :func:`scene_spec`, so a scene that arrives from disk needs a spec
    before it can be served along a trajectory (see
    :func:`repro.store.store.derive_scene_spec`).  Built-in specs cannot be
    replaced; re-registering a runtime name requires ``overwrite=True``.
    """
    key = spec.name.lower()
    if key in _BUILTIN_SPEC_NAMES:
        raise ValueError(f"cannot replace built-in scene spec {spec.name!r}")
    if key in SCENE_SPECS and not overwrite:
        raise ValueError(f"scene spec {spec.name!r} is already registered")
    SCENE_SPECS[key] = spec


def _sample_positions(spec: SceneSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample Gaussian centres: dense clusters plus a diffuse background."""
    num_background = int(round(count * spec.background_fraction))
    num_foreground = count - num_background

    cluster_centres = rng.uniform(-0.6, 0.6, size=(spec.num_clusters, 3)) * spec.extent
    if spec.indoor:
        # Indoor scenes spread content over walls/floor: flatten the vertical
        # axis of cluster centres and push them outward.
        cluster_centres[:, 1] *= 0.35
        cluster_centres[:, [0, 2]] *= 1.2

    assignments = rng.integers(0, spec.num_clusters, size=num_foreground)
    offsets = rng.normal(0.0, spec.cluster_sigma * spec.extent, size=(num_foreground, 3))
    foreground = cluster_centres[assignments] + offsets

    # Background: a spherical shell (outdoor) or the walls of a box (indoor).
    if spec.indoor:
        background = rng.uniform(-1.0, 1.0, size=(num_background, 3)) * spec.extent
        # Project onto the nearest face of the bounding box to mimic walls.
        axis = rng.integers(0, 3, size=num_background)
        sign = rng.choice([-1.0, 1.0], size=num_background)
        background[np.arange(num_background), axis] = sign * spec.extent
    else:
        directions = rng.normal(size=(num_background, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = spec.extent * rng.uniform(1.2, 2.0, size=(num_background, 1))
        background = directions * radii

    return np.concatenate([foreground, background], axis=0)


def _sample_sh(spec: SceneSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample SH coefficients: a dominant DC colour plus small detail terms."""
    base_rgb = rng.uniform(0.05, 0.95, size=(count, 3))
    sh = np.zeros((count, 3, SH_COEFFS_PER_CHANNEL))
    sh[:, :, 0] = (base_rgb - 0.5) / SH_C0
    detail = rng.normal(0.0, spec.sh_detail, size=(count, 3, SH_COEFFS_PER_CHANNEL - 1))
    # Higher-degree bands decay, as in trained models.
    band_decay = np.concatenate(
        [np.full(3, 1.0), np.full(5, 0.5), np.full(7, 0.25)]
    )
    sh[:, :, 1:] = detail * band_decay[None, None, :]
    return sh


def make_scene(name: str, scale: float = 0.05, seed: int | None = None) -> GaussianScene:
    """Generate the synthetic stand-in for benchmark scene ``name``.

    Parameters
    ----------
    name:
        One of :data:`SCENE_SPECS` (``"lego"``, ``"train"``, ...).
    scale:
        Fraction of the paper-scale Gaussian count to generate.  The default
        of 0.05 keeps full-suite runs laptop-sized.  The dataflow ratios the
        experiments report are *not* stable across ``scale``: the geomean
        GSCore/GCC cycle ratio reads 2.30 / 3.72 / 7.07 at 1/4 / 1 / 4 times
        the preset count (ROADMAP item 9).
    seed:
        Optional override of the preset's seed.

    Returns
    -------
    A validated :class:`GaussianScene`.
    """
    spec = scene_spec(name)
    if scale <= 0:
        raise ValueError("scale must be positive")
    count = max(16, int(round(spec.base_num_gaussians * scale)))
    rng = np.random.default_rng(spec.seed if seed is None else seed)

    means = _sample_positions(spec, count, rng)
    scales = np.exp(
        rng.normal(spec.scale_lognormal[0], spec.scale_lognormal[1], size=(count, 3))
    ) * spec.extent
    # Background primitives are larger and fuzzier.
    num_background = int(round(count * spec.background_fraction))
    if num_background:
        scales[-num_background:] *= 3.0

    quaternions = rng.normal(size=(count, 4))
    quaternions /= np.linalg.norm(quaternions, axis=1, keepdims=True)

    opacities = rng.beta(spec.opacity_beta[0], spec.opacity_beta[1], size=count)
    opacities = np.clip(opacities, 1.0 / 255.0 + 1e-4, 1.0)

    sh = _sample_sh(spec, count, rng)

    return GaussianScene(
        means=means,
        scales=scales,
        quaternions=quaternions,
        opacities=opacities,
        sh_coeffs=sh,
        name=spec.name,
    )


def scaled_image_size(spec: SceneSpec, image_scale: float) -> tuple[int, int]:
    """The preset image resolution scaled by ``image_scale``.

    The single source of the rounding/minimum rule (``max(8, round(...))``),
    shared by :func:`make_camera` and every serving-trajectory camera so all
    paths render a preset at exactly the same resolution.
    """
    width, height = spec.image_size
    return (
        max(8, int(round(width * image_scale))),
        max(8, int(round(height * image_scale))),
    )


def make_camera(
    name: str,
    view_index: int = 0,
    num_views: int = 8,
    image_scale: float = 1.0,
) -> Camera:
    """Build the ``view_index``-th evaluation camera for scene ``name``.

    Object scenes get an inward-looking orbit camera; indoor scenes get a
    camera placed inside the room looking at a wall-ward target, mimicking the
    Deep Blending capture trajectories.
    """
    spec = scene_spec(name)
    if num_views <= 0:
        raise ValueError("num_views must be positive")
    angle = 2.0 * np.pi * (view_index % num_views) / num_views
    width, height = scaled_image_size(spec, image_scale)

    if spec.indoor:
        eye = np.array(
            [
                spec.extent * spec.camera_radius_factor * np.cos(angle),
                spec.extent * spec.camera_height_factor,
                spec.extent * spec.camera_radius_factor * np.sin(angle),
            ]
        )
        # Indoor captures look across the room toward the opposite side, so
        # most of the scene content falls inside the frustum.
        target = np.array([0.0, 0.0, 0.0])
    else:
        radius = spec.extent * spec.camera_radius_factor
        eye = np.array(
            [
                radius * np.cos(angle),
                spec.extent * spec.camera_height_factor,
                radius * np.sin(angle),
            ]
        )
        target = np.zeros(3)

    world_to_camera = look_at(eye, target)
    return Camera.from_fov(
        width=width,
        height=height,
        fov_y_degrees=spec.fov_y_degrees,
        world_to_camera=world_to_camera,
    )


def make_single_gaussian_scene(
    opacity: float,
    scale: float = 0.3,
    position: tuple[float, float, float] = (0.0, 0.0, 0.0),
    rotation_angle: float = 0.6,
    aspect: float = 3.0,
    rgb: tuple[float, float, float] = (0.8, 0.2, 0.2),
) -> GaussianScene:
    """Build a one-Gaussian scene (used by the Figure 4 region experiment).

    The Gaussian is anisotropic (elongated by ``aspect``) and rotated in the
    image plane so that AABB, OBB and the alpha-exact footprint all differ.
    """
    if not 0.0 < opacity <= 1.0:
        raise ValueError("opacity must be in (0, 1]")
    half = rotation_angle / 2.0
    quaternion = np.array([[np.cos(half), 0.0, 0.0, np.sin(half)]])
    return GaussianScene.from_flat_colors(
        means=np.array([position], dtype=np.float64),
        scales=np.array([[scale * aspect, scale, scale]], dtype=np.float64),
        quaternions=quaternion,
        opacities=np.array([opacity]),
        rgb=np.array([rgb]),
        name="single",
    )
