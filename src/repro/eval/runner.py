"""Cached execution of renders and accelerator simulations.

Several experiments need the same underlying artefacts (e.g. the tile-wise
render of Train feeds Figure 2, Table 1, Table 2, Figure 10 and Figure 12),
so this module memoises them per evaluation setup.  All functions are pure
with respect to their arguments; the memo store is a bounded
:class:`repro.store.cache.LRUCache` (so a long-lived process cannot grow it
without limit) and can be cleared with :func:`clear_cache`.

Single-frame rendering is delegated to :func:`repro.exec.frames.render_frame`
— the same primitive the render-farm and executor workers run — so a frame
produced here is bitwise identical to the farm's output for the same camera.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.gcc import GccAccelerator, GccConfig
from repro.arch.gscore import GScoreAccelerator, GScoreConfig
from repro.arch.report import SimulationReport
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianScene
from repro.gaussians.presets import eval_preset
from repro.gaussians.synthetic import make_camera, make_scene
from repro.render.gaussian_raster import GaussianWiseResult
from repro.render.tile_raster import TileWiseResult
from repro.exec.frames import FrameSpec, render_frame
from repro.store.cache import LRUCache
from repro.store.store import default_store

#: Bound on resident memoised artefacts.  A full six-scene evaluation
#: sweep keeps well under this; the bound exists so a long-running serving
#: process that touches many (setup, config) combinations cannot grow
#: without limit.
CACHE_MAXSIZE = 256

_CACHE = LRUCache(maxsize=CACHE_MAXSIZE)


@dataclass(frozen=True)
class EvalSetup:
    """Identifies one evaluation configuration of a scene."""

    scene: str
    quick: bool = False

    def preset(self):
        return eval_preset(self.scene, quick=self.quick)


def clear_cache(reset_stats: bool = False) -> None:
    """Drop every memoised scene, render and simulation.

    Hit/miss/eviction counters survive by default (lifetime telemetry);
    pass ``reset_stats=True`` to zero them too.
    """
    _CACHE.clear(reset_stats=reset_stats)


def cache() -> LRUCache:
    """The artifact cache itself (for inspection: size, hit rate, keys)."""
    return _CACHE


def _cached(key: tuple, factory):
    return _CACHE.get_or_create(key, factory)


def load_scene_and_camera(setup: EvalSetup) -> tuple[GaussianScene, Camera]:
    """Instantiate (and cache) the scene and camera for a setup.

    Presets that name a scene-store entry (``preset.store``) resolve the
    scene through :func:`repro.store.store.default_store` (the store's own
    LRU cache making the base build one-time); everything else regenerates
    the synthetic scene exactly as before.
    """
    preset = setup.preset()

    def build():
        if preset.store is not None:
            scene = default_store().get(preset.store)
        else:
            scene = make_scene(preset.name, scale=preset.scale)
        camera = make_camera(
            preset.name, view_index=preset.view_index, image_scale=preset.image_scale
        )
        return scene, camera

    return _cached(("scene", setup), build)


def _run_frame(setup: EvalSetup, spec: FrameSpec):
    """Render ``setup``'s frame under ``spec``, cached by the whole spec."""

    def build():
        scene, camera = load_scene_and_camera(setup)
        return render_frame(scene, camera, spec)

    return _cached(("frame", setup, spec), build)


def run_tilewise(
    setup: EvalSetup,
    tile_size: int = 16,
    obb_subtile_skip: bool = True,
    dtype: str = "float64",
) -> TileWiseResult:
    """Standard-dataflow render of a setup (cached).

    ``obb_subtile_skip`` toggles GSCore's OBB subtile test in the
    alpha-evaluation accounting (the image is unaffected).  ``dtype``
    selects the floating-point engine mode
    (:data:`repro.render.common.DTYPES`), so a float32 fast-path render
    never aliases the float64 artefact the accuracy experiments treat as
    the oracle.
    """
    spec = FrameSpec(
        dataflow="tilewise",
        tile_size=tile_size,
        obb_subtile_skip=obb_subtile_skip,
        dtype=dtype,
    )
    return _run_frame(setup, spec)


def run_gaussianwise(
    setup: EvalSetup,
    enable_cc: bool = True,
    block_size: int = 8,
    boundary_mode: str = "alpha",
) -> GaussianWiseResult:
    """GCC-dataflow render of a setup (cached)."""
    spec = FrameSpec(
        dataflow="gaussianwise",
        enable_cc=enable_cc,
        block_size=block_size,
        boundary_mode=boundary_mode,
    )
    return _run_frame(setup, spec)


def run_gscore_sim(setup: EvalSetup, config: GScoreConfig | None = None) -> SimulationReport:
    """GSCore accelerator simulation of a setup (cached per configuration).

    ``config`` participates in the cache key, so :class:`GScoreConfig` must
    stay hashable (it is a frozen dataclass); distinct configurations are
    memoised independently.
    """
    config = config or GScoreConfig()

    def build():
        scene, camera = load_scene_and_camera(setup)
        render = run_tilewise(setup, tile_size=config.tile_size)
        return GScoreAccelerator(config).simulate(scene, camera, render_result=render)

    return _cached(("gscore", setup, config), build)


def run_gcc_sim(setup: EvalSetup, config: GccConfig | None = None) -> SimulationReport:
    """GCC accelerator simulation of a setup (cached per configuration).

    As with :func:`run_gscore_sim`, ``config`` is part of the cache key and
    :class:`GccConfig` must stay hashable (frozen dataclass).
    """
    config = config or GccConfig()

    def build():
        scene, camera = load_scene_and_camera(setup)
        render = run_gaussianwise(
            setup,
            enable_cc=config.enable_cc,
            block_size=config.alpha_array_size,
            boundary_mode="alpha" if config.enable_alpha_boundary else "aabb",
        )
        return GccAccelerator(config).simulate(scene, camera, render_result=render)

    return _cached(("gcc", setup, config), build)
