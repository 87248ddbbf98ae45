"""Single-frame execution primitives shared by every scheduling layer.

This module is the bottom of the execution stack: the :class:`FrameSpec`
describing how one frame renders, :func:`render_frame` (the single-frame
entry point the evaluation runner, the render farm and the executor workers
all call), the :class:`FrameRecord` a finished frame becomes, and the
:class:`JobResult` aggregate a whole trajectory job returns.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianScene
from repro.render.common import RenderConfig
from repro.render.gaussian_raster import (
    BOUNDARY_MODES,
    GaussianWiseResult,
    render_gaussianwise,
)
from repro.render.kernels import shard_intervals
from repro.render.tile_raster import (
    TileWiseResult,
    compose_tile_shards,
    frame_tile_count,
    render_tilewise,
)
from repro.store.codec import QUANT_SPECS

FrameResult = Union[TileWiseResult, GaussianWiseResult]

#: The rendering dataflows a job can request (standard tile-wise pipeline or
#: the paper's Gaussian-wise pipeline).
DATAFLOWS: tuple[str, ...] = ("tilewise", "gaussianwise")

#: Per-frame stats fields that are frame-invariant configuration, not
#: accumulable work counters.  When adding a field to TileWiseStats or
#: GaussianWiseStats, classify it here if it is config-valued — the exact
#: counter sets are pinned by tests/test_serve_farm.py
#: (``test_counter_field_classification_is_exhaustive``), which fails on any
#: unclassified addition.
_NON_COUNTER_FIELDS = frozenset(
    {"width", "height", "tile_size", "block_size", "enable_cc"}
)


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class FrameSpec:
    """Render parameters of one frame, validated at construction.

    The one declaration of how a frame renders above ``repro.render``: the
    evaluation runner, :class:`~repro.serve.trajectories.RenderJob` and the
    request scheduler all defer to it, so a spec that exists can render.
    ``tilewise`` frames use ``tile_size``/``obb_subtile_skip`` and the
    conventional 3-sigma radius rule; ``gaussianwise`` frames use
    ``enable_cc``/``block_size``/``boundary_mode`` and the paper's
    omega-sigma rule (see :meth:`render_config`).
    """

    dataflow: str = "tilewise"
    #: Rasterisation engine.  Both are bitwise equal, so nothing above the
    #: executor sets it; it selects the ``"reference"`` oracle in checks.
    backend: str = "vectorized"
    tile_size: int = 16
    obb_subtile_skip: bool = True
    enable_cc: bool = True
    block_size: int = 8
    boundary_mode: str = "alpha"
    #: Quality tier the job's scene was prepared at.  These two fields are
    #: provenance, not render parameters: the executor applies them to the
    #: scene *before* any frame is rendered (LOD pruning + codec
    #: round-trip), and :func:`render_frame` itself never consults them — a
    #: worker holding a decoded scene renders it exactly as a lossless one.
    lod: int = 0
    quant: str = "lossless"
    #: Floating-point engine mode (``repro.render.common.DTYPES``).  Unlike
    #: ``lod``/``quant`` this *is* a render parameter — it changes the bits
    #: of the output image — and the whole spec keys the evaluation
    #: runner's frame caches.
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dataflow not in DATAFLOWS:
            raise ValueError(f"dataflow must be one of {DATAFLOWS}")
        if self.lod < 0:
            raise ValueError("lod must be non-negative")
        if self.quant not in QUANT_SPECS:
            raise ValueError(f"quant must be one of {sorted(QUANT_SPECS)}")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")
        # Tile/block size, backend and dtype: the engine's own checks.
        self.render_config()
        if self.dataflow == "gaussianwise" and self.dtype != "float64":
            raise ValueError(
                "the gaussianwise dataflow only supports dtype='float64'; "
                "the float32 engine mode is a tile-wise fast path"
            )

    @classmethod
    def for_job(cls, job: RenderJob) -> "FrameSpec":
        """The spec a :class:`RenderJob` renders its frames with."""
        return cls(dataflow=job.dataflow, lod=job.lod, quant=job.quant, dtype=job.dtype)

    def render_config(self) -> RenderConfig:
        """The engine configuration this spec's dataflow renders with."""
        if self.dataflow == "tilewise":
            return RenderConfig(
                tile_size=self.tile_size,
                radius_rule="3sigma",
                backend=self.backend,
                dtype=self.dtype,
            )
        return RenderConfig(
            radius_rule="omega-sigma", block_size=self.block_size, backend=self.backend
        )


@dataclass(frozen=True)
class ShardSpec:
    """One tile-range shard of a frame: which slice of the tile grid it owns.

    ``index`` is the shard's position among its frame's ``num_shards``
    siblings and ``[tile_lo, tile_hi)`` its half-open row-major tile-id
    interval.  A :class:`ShardSpec` is pure routing data — it never changes
    *what* is rendered, only which worker renders which tiles — which is why
    sharding is absent from :class:`FrameSpec` and from every result cache
    key.
    """

    index: int
    num_shards: int
    tile_lo: int
    tile_hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.num_shards:
            raise ValueError("shard index out of range")
        if self.tile_lo > self.tile_hi:
            raise ValueError("tile_lo must not exceed tile_hi")

    @property
    def interval(self) -> tuple[int, int]:
        return (self.tile_lo, self.tile_hi)


def check_shards(dataflow: str, num_shards: int) -> None:
    """Raise ``ValueError`` unless ``dataflow`` can split a frame into ``num_shards``.

    Only the tile-wise dataflow shards (Gaussian-wise blending is not
    per-tile, so no exact compositor exists for it).
    """
    if num_shards > 1 and dataflow != "tilewise":
        raise ValueError("shards > 1 requires the tilewise dataflow")


def plan_shards(camera: Camera, spec: FrameSpec, num_shards: int) -> list[ShardSpec]:
    """Partition ``camera``'s tile grid into ``num_shards`` shard specs."""
    check_shards(spec.dataflow, num_shards)
    num_tiles = frame_tile_count(camera.width, camera.height, spec.tile_size)
    return [
        ShardSpec(index=i, num_shards=num_shards, tile_lo=lo, tile_hi=hi)
        for i, (lo, hi) in enumerate(shard_intervals(num_tiles, num_shards))
    ]


def render_frame(
    scene: GaussianScene,
    camera: Camera,
    spec: FrameSpec,
    tile_shard: tuple[int, int] | None = None,
) -> FrameResult:
    """Render one frame (or one tile-range shard) under ``spec``.

    This is the single-frame primitive shared by the evaluation runner, the
    render farm and the executor workers, so every frame they produce gets
    its :class:`RenderConfig` from :meth:`FrameSpec.render_config`.  The
    accelerator models in ``repro.arch`` build the same configurations in
    their own ``_render`` when simulated without a ``render_result``.
    ``tile_shard`` restricts the tile-wise pipeline to a half-open tile-id
    interval (see :func:`repro.render.tile_raster.render_tilewise`).
    """
    config = spec.render_config()
    if spec.dataflow == "tilewise":
        return render_tilewise(
            scene,
            camera,
            config,
            obb_subtile_skip=spec.obb_subtile_skip,
            tile_shard=tile_shard,
        )
    if tile_shard is not None:
        raise ValueError("tile_shard is only supported by the tilewise dataflow")
    return render_gaussianwise(
        scene,
        camera,
        config,
        enable_cc=spec.enable_cc,
        boundary_mode=spec.boundary_mode,
    )


@dataclass
class FrameRecord:
    """One finished frame: image, statistics and render latency."""

    index: int
    image: np.ndarray
    stats: object
    render_ms: float


#: Per-frame completion callback: called in the parent process as each
#: frame finishes (index order on the sequential path, completion order on
#: the executor's concurrent path), before the job's aggregate result
#: exists — the hook the request scheduler uses to observe latency mid-job.
FrameCallback = Callable[[FrameRecord], None]


class FrameRenderError(RuntimeError):
    """A frame failed to render; carries the frame index and scene name.

    Raised on every scheduling path instead of letting a raw worker
    traceback escape the pool, so callers can tell *which* frame of *which*
    scene died.  ``__cause__`` holds the original exception on the
    sequential path; worker failures embed the worker-side traceback in the
    message (the exception object itself may not survive pickling back
    across the process boundary), and a hard worker crash reports the
    worker's exit code.
    """

    def __init__(self, scene: str, frame_index: int, message: str) -> None:
        super().__init__(
            f"frame {frame_index} of scene {scene!r} failed to render: {message}"
        )
        self.scene = scene
        self.frame_index = frame_index


@dataclass
class JobResult:
    """Aggregated output of one render job (farm or executor)."""

    job: RenderJob
    spec: FrameSpec
    frames: list[FrameRecord]
    #: Workers the job actually ran with (0 = in-process sequential path).
    num_workers: int
    #: End-to-end wall time.  On the executor this spans submit to last
    #: frame (payload encoding, worker-side decoding and any queueing
    #: behind concurrent jobs included); the farm facade's transient
    #: executor additionally pays pool start-up inside this window, which
    #: is exactly the cold cost the persistent executor amortises away.
    wall_seconds: float
    #: Gaussians in the scene the frames were rendered from (after the
    #: job's LOD level was applied).
    num_gaussians: int = 0
    #: On-disk bytes of the encoded scene payload this job had to publish
    #: for its worker pool (0 in the in-process mode — nothing crosses a
    #: process boundary — and 0 for a job whose ``(scene, lod, quant)``
    #: tier was already published by an earlier job on the same executor).
    ship_bytes: int = 0
    #: Resident scene-cache accounting, aggregated to the parent, counted
    #: per work unit (a frame, or one shard of a sharded frame) in both
    #: modes: units served from a resident scene vs units that had to load
    #: (decode) it first, plus the payload bytes those loads read (0 in the
    #: in-process mode, whose loads resolve the scene in the parent).
    cache_hits: int = 0
    cache_misses: int = 0
    loaded_bytes: int = 0

    # ------------------------------------------------------------------
    # Throughput / latency accounting
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def frames_per_second(self) -> float:
        """End-to-end throughput of the job."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_frames / self.wall_seconds

    @property
    def frame_times_ms(self) -> np.ndarray:
        """Per-frame render latencies (worker-side, excludes queueing)."""
        return np.array([f.render_ms for f in self.frames])

    @property
    def p50_ms(self) -> float:
        """Median per-frame render latency."""
        return float(np.percentile(self.frame_times_ms, 50)) if self.frames else 0.0

    @property
    def p95_ms(self) -> float:
        """95th-percentile per-frame render latency."""
        return float(np.percentile(self.frame_times_ms, 95)) if self.frames else 0.0

    @property
    def warm(self) -> bool:
        """True when every frame hit a resident scene (nothing shipped/decoded)."""
        return self.cache_misses == 0 and self.ship_bytes == 0

    def aggregate_counters(self) -> dict[str, int]:
        """Sum every integer work counter across the job's frames.

        Configuration fields (image size, tile/block size, CC flag) and
        array-valued fields are excluded; what remains are the additive
        per-frame work counters (Gaussians preprocessed, alpha evaluations,
        pixels blended, ...) totalled over the whole trajectory.
        """
        totals: dict[str, int] = {}
        for record in self.frames:
            for f in dataclasses.fields(record.stats):
                if f.name in _NON_COUNTER_FIELDS:
                    continue
                value = getattr(record.stats, f.name)
                if isinstance(value, (bool, np.ndarray)):
                    continue
                if isinstance(value, (int, np.integer)):
                    totals[f.name] = totals.get(f.name, 0) + int(value)
        return totals

    def summary(self) -> dict:
        """A JSON-serialisable report of the job."""
        preset = self.job.preset()
        return {
            "scene": self.job.scene,
            "quick": self.job.quick,
            "trajectory": self.job.trajectory.kind,
            "dataflow": self.job.dataflow,
            "lod": self.spec.lod,
            "quant": self.spec.quant,
            "dtype": self.spec.dtype,
            "shards": self.job.shards,
            "num_gaussians": self.num_gaussians,
            "ship_bytes": self.ship_bytes,
            "residency": {
                "warm": self.warm,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "loaded_bytes": self.loaded_bytes,
            },
            "num_frames": self.num_frames,
            "num_workers": self.num_workers,
            "image_size": [self.frames[0].stats.width, self.frames[0].stats.height]
            if self.frames
            else [0, 0],
            "scene_scale": preset.scale,
            "wall_seconds": self.wall_seconds,
            "frames_per_second": self.frames_per_second,
            "p50_frame_ms": self.p50_ms,
            "p95_frame_ms": self.p95_ms,
            "counters": self.aggregate_counters(),
        }


@dataclass
class ShardRecord:
    """One rendered tile-range shard of a frame — the pool's partial result.

    Pickle-safe (image + stats + routing data only; the projected arrays
    never cross back over the process boundary).  ``num_shards`` sibling
    records merge into one :class:`FrameRecord` via
    :func:`merge_shard_records`.
    """

    index: int
    shard: ShardSpec
    image: np.ndarray
    stats: object
    render_ms: float


def render_unit(
    scene: GaussianScene,
    task: tuple[int, Camera],
    spec: FrameSpec,
    shard: ShardSpec | None = None,
) -> FrameRecord | ShardRecord:
    """Render and time one work unit — a whole frame, or one tile-range
    shard of it — on every scheduling path."""
    index, camera = task
    start = time.perf_counter()
    result = render_frame(
        scene, camera, spec, tile_shard=None if shard is None else shard.interval
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if shard is None:
        return FrameRecord(index, result.image, result.stats, elapsed_ms)
    return ShardRecord(index, shard, result.image, result.stats, elapsed_ms)


def merge_shard_records(records: list[ShardRecord]) -> FrameRecord:
    """Compose a frame's shard records into its whole-frame record.

    Pure and exact: image and statistics counters are bitwise identical to
    an unsharded render (see
    :func:`repro.render.tile_raster.compose_tile_shards`).  ``render_ms``
    is the *maximum* shard time — the frame's critical path when shards run
    on parallel workers — so per-frame latency percentiles report what a
    caller actually waited.
    """
    if not records:
        raise ValueError("merge_shard_records needs at least one shard record")
    index = records[0].index
    if any(r.index != index for r in records):
        raise ValueError("shard records belong to different frames")
    partials = [
        TileWiseResult(
            image=r.image, stats=r.stats, projected=None, tile_shard=r.shard.interval
        )
        for r in records
    ]
    merged = compose_tile_shards(partials)
    return FrameRecord(
        index=index,
        image=merged.image,
        stats=merged.stats,
        render_ms=max(r.render_ms for r in records),
    )
