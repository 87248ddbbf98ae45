"""The deterministic service-time model behind the scheduler's virtual clock."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.eval.scenes import eval_preset
from repro.gaussians.synthetic import scaled_image_size, scene_spec
from repro.sched.qos import Tier, tier_dtype
from repro.sched.workload import Request
from repro.store.codec import quant_spec
from repro.store.lod import DEFAULT_RATIO, lod_keep_count


@dataclass(frozen=True)
class ServiceModel:
    """Analytic per-job cost model driving the virtual clock.

    Costs are linear in the work the renderer actually does — Gaussians
    preprocessed per frame and pixels blended — plus a per-job dispatch
    overhead that scales with the *encoded* scene bytes the job's quant
    tier would ship to the farm.  The coefficients are fixed constants (not
    measured), which is deliberate: the model's job is to give the decision
    plane a replayable notion of time whose *shape* matches the real system
    (LOD halves render cost per level, quantization shrinks shipping), not
    to predict any one machine's milliseconds.

    Scene sizes are derived analytically from the preset tables
    (``base_num_gaussians x scale``, then the LOD keep-count rule), so
    costing a request against a built-in preset never builds a scene; the
    one exception is a store-backed preset (``preset.store`` set), whose
    size only the store knows — resolving it may build the base scene once,
    after which the store's cache and this model's memo both hold it.

    Per-(scene, quick, lod) results and whole job costs are memoised on the
    instance — the admission path costs the whole queue against the model
    on every arrival, and the underlying preset tables are stable for the
    model's lifetime, so the arithmetic is paid once per distinct job shape.
    """

    #: Fixed per-frame overhead (projection setup, sorting, traversal).
    frame_base_ms: float = 1.0
    #: Per-frame cost per thousand Gaussians at the request's LOD.
    ms_per_kgaussian: float = 1.0
    #: Per-frame cost per thousand rendered pixels.
    ms_per_kpixel: float = 0.05
    #: Per-job dispatch overhead on a *cold* tier: the first time a
    #: ``(scene, lod, quant)`` tier is dispatched the executor must encode
    #: the payload and the workers must decode it (plus the per-megabyte
    #: shipping term below) — the cost the seed farm paid on *every* job
    #: when it rebuilt its pool per dispatch.
    dispatch_cold_ms: float = 4.0
    #: Per-job dispatch overhead on a *warm* tier: queue pop and job build
    #: against already-resident worker scenes.  No shipping term applies.
    dispatch_warm_ms: float = 0.75
    #: Scene-shipping cost per megabyte of the quant tier's encoded payload
    #: (cold dispatches only — a warm tier is already resident).
    ship_ms_per_mb: float = 4.0
    #: Fixed overhead each *extra* tile-range shard of a frame adds on top
    #: of the frame base (every shard re-runs projection and pair building;
    #: the compositor merges the partials).  Zero-cost at ``shards=1``, so
    #: the pre-sharding model is reproduced exactly by default.
    shard_overhead_ms: float = 0.25
    #: Multiplier on the per-Gaussian and per-pixel *work* terms when a
    #: tier renders in float32 (the tile-wise fast path).  The frame base
    #: and dispatch overheads are dtype-independent.
    float32_work_factor: float = 0.6
    #: LOD keep ratio (level k retains ``lod_ratio**k`` of the scene).
    lod_ratio: float = DEFAULT_RATIO

    def __post_init__(self) -> None:
        # Instance-local memo (not a dataclass field: excluded from eq/hash
        # and from repr, and legal to mutate on a frozen instance).
        object.__setattr__(self, "_memo", {})

    def num_gaussians(self, scene: str, quick: bool, lod: int) -> int:
        """Gaussian count of ``scene``'s preset at detail level ``lod``."""
        key = ("gaussians", scene, quick, lod)
        cached = self._memo.get(key)
        if cached is None:
            preset = eval_preset(scene, quick=quick)
            if preset.store is not None:
                # Store-backed presets fix their own size; resolve through
                # the (cached) store rather than guessing from the scale
                # field.  This may build the base scene once.
                from repro.store.store import default_store

                base = default_store().get(preset.store).num_gaussians
            else:
                spec = scene_spec(preset.name)
                base = max(16, int(round(spec.base_num_gaussians * preset.scale)))
            cached = lod_keep_count(base, lod, self.lod_ratio)
            self._memo[key] = cached
        return cached

    def num_pixels(self, scene: str, quick: bool) -> int:
        """Pixels per frame of ``scene``'s preset."""
        key = ("pixels", scene, quick)
        cached = self._memo.get(key)
        if cached is None:
            preset = eval_preset(scene, quick=quick)
            width, height = scaled_image_size(
                scene_spec(preset.name), preset.image_scale
            )
            cached = width * height
            self._memo[key] = cached
        return cached

    def frame_ms(
        self,
        scene: str,
        quick: bool,
        lod: int,
        dtype: str = "float64",
        shards: int = 1,
    ) -> float:
        """Modeled render time of one frame work unit at detail ``lod``.

        With ``shards=1`` (the default) this is the whole frame, exactly as
        the pre-sharding model costed it.  With ``shards=s > 1`` it is the
        time of *one of the frame's s tile-range shards*: every shard pays
        the frame base (projection and pair building re-run per shard) plus
        a per-extra-shard coordination overhead, and does ``1/s`` of the
        blending work.  ``dtype="float32"`` scales the work terms by
        :attr:`float32_work_factor` (the fast path speeds up blending, not
        the fixed overheads).
        """
        shards = max(1, shards)
        key = ("frame_ms", scene, quick, lod, dtype, shards)
        cached = self._memo.get(key)
        if cached is None:
            work = (
                self.ms_per_kgaussian * self.num_gaussians(scene, quick, lod) / 1000.0
                + self.ms_per_kpixel * self.num_pixels(scene, quick) / 1000.0
            )
            if dtype == "float32":
                work *= self.float32_work_factor
            cached = (
                self.frame_base_ms
                + self.shard_overhead_ms * (shards - 1)
                + work / shards
            )
            self._memo[key] = cached
        return cached

    def dispatch_ms(self, request: Request, tier: Tier, quick: bool, warm: bool) -> float:
        """Modeled per-job dispatch overhead at ``tier``.

        A *cold* dispatch — the first touch of a ``(scene, lod, quant)``
        tier since the serving process started — pays the fixed cold
        overhead plus the tier's encoded-payload shipping cost; a *warm*
        dispatch runs against resident worker scenes and pays only the
        (much smaller) warm constant.
        """
        if warm:
            return self.dispatch_warm_ms
        ship_mb = self.ship_bytes(request.scene, quick, tier) / 1e6
        return self.dispatch_cold_ms + self.ship_ms_per_mb * ship_mb

    def ship_bytes(self, scene: str, quick: bool, tier: Tier) -> float:
        """Encoded payload bytes a *cold* dispatch of ``tier`` ships.

        This is the quantity cache-aware fleet routing minimises (and the
        per-tenant usage meter tallies): every first touch of a
        ``(scene, lod, quant)`` tier on an executor ships the tier's
        encoded scene; warm dispatches ship nothing.
        """
        lod, quant = tier[0], tier[1]
        gaussians = self.num_gaussians(scene, quick, lod)
        return quant_spec(quant).bytes_per_gaussian() * gaussians

    def job_ms(
        self,
        request: Request,
        tier: Tier,
        workers: int,
        quick: bool,
        warm: bool = False,
        shards: int = 1,
    ) -> float:
        """Modeled service time of ``request`` rendered at ``tier``.

        ``workers`` frame-parallel lanes render the job's work units —
        frames, or ``num_frames x shards`` tile-range shards when the
        dispatcher splits frames — in ``ceil(units / workers)`` waves on
        top of the warm/cold dispatch overhead (see :meth:`dispatch_ms`;
        ``warm=False`` is the conservative default and matches the
        pre-executor model, whose every dispatch was cold).  Sharding cuts
        the critical path of a job with fewer frames than lanes (the idle
        lanes take shards) at the cost of the per-shard overhead; at
        ``shards=1`` the pre-sharding cost is reproduced exactly.
        """
        shards = max(1, shards)
        # The cost depends on the request only through its scene and frame
        # count; the decision plane asks it two or three times per request.
        key = ("job_ms", request.scene, request.num_frames, tier, workers, quick, warm, shards)
        cached = self._memo.get(key)
        if cached is None:
            waves = math.ceil(request.num_frames * shards / max(1, workers))
            cached = self.dispatch_ms(request, tier, quick, warm) + waves * self.frame_ms(
                request.scene, quick, tier[0], dtype=tier_dtype(tier), shards=shards
            )
            self._memo[key] = cached
        return cached


__all__ = ["ServiceModel"]
