"""Trajectory workloads: parameterised camera paths for the render farm.

The paper frames 3DGS rasterisation as a real-time, frame-after-frame
workload — a viewer moving through a scene — but the evaluation harness
renders isolated single frames.  This module turns any evaluation preset
into an N-frame job by expanding one of four camera paths:

``orbit``
    The evaluation orbit itself, sampled at ``num_frames`` evenly spaced
    azimuths.  Frame ``i`` is exactly ``make_camera(name, view_index=i,
    num_views=num_frames)``, so an orbit frame whose azimuth coincides with
    an evaluation view is *bitwise identical* to the corresponding
    single-frame :mod:`repro.eval.runner` camera.
``dolly``
    A dolly/zoom move: the camera slides radially between two multiples of
    the preset orbit distance while keeping the evaluation azimuth, the
    classic "approach the object" stress for preprocessing (footprints grow
    every frame).
``walkthrough``
    An indoor-style path: the eye advances along a chord through the scene
    interior looking ahead, mimicking the Deep Blending capture
    trajectories.  Useful on the ``playroom``/``drjohnson`` presets where
    most content is wall-ward.
``jitter``
    A random-jitter stress around one evaluation view: each frame perturbs
    the eye by a seeded Gaussian offset, modelling head-tracked viewing.
    Deterministic per (seed, num_frames).

Every path reuses the scene geometry conventions of
:func:`repro.gaussians.synthetic.make_camera` (orbit radius, camera height
and field of view come from the :class:`~repro.gaussians.synthetic.SceneSpec`)
and respects the preset's ``image_scale``, so farm workloads render at the
same resolution as the evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exec.frames import FrameSpec, check_shards
from repro.gaussians.camera import Camera, look_at
from repro.gaussians.presets import EvalScenePreset, eval_preset
from repro.gaussians.synthetic import make_camera, scaled_image_size, scene_spec

#: The camera-path kinds understood by :func:`make_trajectory`.
TRAJECTORY_KINDS: tuple[str, ...] = ("orbit", "dolly", "walkthrough", "jitter")


@dataclass(frozen=True)
class Trajectory:
    """A parameterised camera path, expandable against any scene preset.

    Attributes
    ----------
    kind:
        One of :data:`TRAJECTORY_KINDS`.
    num_frames:
        Number of cameras the path expands to.
    start, end:
        Path-specific range parameters.  For ``dolly`` they are multiples of
        the preset orbit radius (default 1.6 -> 0.7, an approach move); for
        ``walkthrough`` they are the chord endpoints as fractions of the
        scene extent (default -0.6 -> 0.6); orbit and jitter ignore them.
    view_index:
        The evaluation azimuth the ``dolly`` and ``jitter`` paths are
        anchored at (matching ``EvalScenePreset.view_index`` semantics,
        out of 8 evaluation views).
    jitter_sigma:
        Standard deviation of the ``jitter`` eye perturbation, as a fraction
        of the scene extent.
    seed:
        Seed of the ``jitter`` perturbation stream.
    """

    kind: str
    num_frames: int
    start: float = field(default=math.nan)
    end: float = field(default=math.nan)
    view_index: int = 0
    jitter_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(
                f"unknown trajectory kind {self.kind!r}; available: {TRAJECTORY_KINDS}"
            )
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def cameras(self, preset: EvalScenePreset) -> list[Camera]:
        """Expand the path into ``num_frames`` cameras for ``preset``."""
        expanders = {
            "orbit": self._orbit,
            "dolly": self._dolly,
            "walkthrough": self._walkthrough,
            "jitter": self._jitter,
        }
        assert set(expanders) == set(TRAJECTORY_KINDS)
        return expanders[self.kind](preset)

    def _orbit(self, preset: EvalScenePreset) -> list[Camera]:
        return [
            make_camera(
                preset.name,
                view_index=i,
                num_views=self.num_frames,
                image_scale=preset.image_scale,
            )
            for i in range(self.num_frames)
        ]

    def _frame_fractions(self) -> np.ndarray:
        if self.num_frames == 1:
            return np.array([0.0])
        return np.arange(self.num_frames) / (self.num_frames - 1)

    def _dolly(self, preset: EvalScenePreset) -> list[Camera]:
        spec = scene_spec(preset.name)
        start = 1.6 if math.isnan(self.start) else self.start
        end = 0.7 if math.isnan(self.end) else self.end
        if start <= 0 or end <= 0:
            raise ValueError("dolly radii must be positive")
        angle = 2.0 * math.pi * (self.view_index % 8) / 8
        base_radius = spec.extent * spec.camera_radius_factor
        height = spec.extent * spec.camera_height_factor
        width, height_px = scaled_image_size(spec, preset.image_scale)
        cameras = []
        for t in self._frame_fractions():
            radius = base_radius * (start + (end - start) * t)
            eye = np.array(
                [radius * math.cos(angle), height, radius * math.sin(angle)]
            )
            cameras.append(
                Camera.from_fov(
                    width=width,
                    height=height_px,
                    fov_y_degrees=spec.fov_y_degrees,
                    world_to_camera=look_at(eye, np.zeros(3)),
                )
            )
        return cameras

    def _walkthrough(self, preset: EvalScenePreset) -> list[Camera]:
        spec = scene_spec(preset.name)
        start = -0.6 if math.isnan(self.start) else self.start
        end = 0.6 if math.isnan(self.end) else self.end
        angle = 2.0 * math.pi * (self.view_index % 8) / 8
        direction = np.array([math.cos(angle), 0.0, math.sin(angle)])
        height = spec.extent * spec.camera_height_factor
        width, height_px = scaled_image_size(spec, preset.image_scale)
        cameras = []
        for t in self._frame_fractions():
            offset = spec.extent * (start + (end - start) * t)
            eye = direction * offset + np.array([0.0, height, 0.0])
            # Look ahead along the walking direction, at a target far enough
            # that the view direction stays stable across the whole chord.
            target = direction * (spec.extent * (abs(end) + 1.5)) + np.array(
                [0.0, height * 0.5, 0.0]
            )
            cameras.append(
                Camera.from_fov(
                    width=width,
                    height=height_px,
                    fov_y_degrees=spec.fov_y_degrees,
                    world_to_camera=look_at(eye, target),
                )
            )
        return cameras

    def _jitter(self, preset: EvalScenePreset) -> list[Camera]:
        spec = scene_spec(preset.name)
        base = make_camera(
            preset.name,
            view_index=self.view_index,
            image_scale=preset.image_scale,
        )
        eye = base.position
        rotation = base.rotation
        # The base camera's look target: a point ahead along the optical axis.
        target = eye + rotation[2] * spec.extent
        rng = np.random.default_rng(self.seed)
        offsets = rng.normal(
            0.0, self.jitter_sigma * spec.extent, size=(self.num_frames, 3)
        )
        cameras = []
        for i in range(self.num_frames):
            cameras.append(
                Camera.from_fov(
                    width=base.width,
                    height=base.height,
                    fov_y_degrees=spec.fov_y_degrees,
                    world_to_camera=look_at(eye + offsets[i], target),
                )
            )
        return cameras

def make_trajectory(kind: str, num_frames: int, **params) -> Trajectory:
    """Build a :class:`Trajectory` of ``kind`` with keyword overrides."""
    return Trajectory(kind=kind, num_frames=num_frames, **params)


@dataclass(frozen=True)
class RenderJob:
    """One render-farm job: a scene preset swept along a trajectory.

    Attributes
    ----------
    scene:
        Evaluation scene name (one of ``EVAL_SCENES``).
    trajectory:
        The camera path to expand.
    quick:
        Use the reduced quick preset (tests / smoke runs).
    dataflow:
        ``"tilewise"`` (standard dataflow) or ``"gaussianwise"`` (GCC
        dataflow).
    lod:
        Detail level the job requests from the scene store's LOD pyramid
        (0 = full scene; level ``k`` keeps ``0.5**k`` of the Gaussians by
        importance).
    quant:
        Quantization tier of the scene payload, one of
        :data:`repro.store.codec.QUANT_SPECS` (``"lossless"`` ships and
        renders the scene bit-exactly; lossy tiers shrink the bytes shipped
        to farm workers).
    shards:
        Tile-range shards each frame is split into (1 = whole-frame work
        units, the historical behaviour).  Sharding is an intra-frame
        latency lever: shard outputs merge bitwise-exactly, so results are
        identical at any shard count — only the wall-clock of a single
        frame changes.  Requires the tile-wise dataflow.
    dtype:
        Floating-point engine mode (:data:`repro.render.common.DTYPES`).
        ``"float32"`` is the tile-wise fast path, validated by PSNR floor
        against the float64 oracle instead of bitwise.
    """

    scene: str
    trajectory: Trajectory
    quick: bool = False
    dataflow: str = "tilewise"
    lod: int = 0
    quant: str = "lossless"
    shards: int = 1
    dtype: str = "float64"

    def __post_init__(self) -> None:
        # The frame-level rules (dataflow, tier, dtype) live in FrameSpec.
        FrameSpec.for_job(self)
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        check_shards(self.dataflow, self.shards)
        # Fail fast on unknown scenes so jobs cannot enter the farm queue
        # with a name no worker will resolve.
        eval_preset(self.scene, quick=self.quick)

    @property
    def num_frames(self) -> int:
        """Number of frames the job expands to."""
        return self.trajectory.num_frames

    def preset(self) -> EvalScenePreset:
        """The evaluation preset the job renders."""
        return eval_preset(self.scene, quick=self.quick)

    def cameras(self) -> list[Camera]:
        """Expand the trajectory into the job's per-frame cameras."""
        return self.trajectory.cameras(self.preset())

    def with_frames(self, num_frames: int) -> "RenderJob":
        """A copy of the job resampled to ``num_frames`` frames."""
        return replace(self, trajectory=replace(self.trajectory, num_frames=num_frames))
