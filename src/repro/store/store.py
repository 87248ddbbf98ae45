"""Scene registry: named scenes resolved lazily at a (lod, quant) tier.

A :class:`SceneStore` maps names to scene factories — the synthetic
benchmark zoo, in-memory scenes, or on-disk files — and resolves
``get(name, lod, quant)`` requests through a bounded
:class:`~repro.store.cache.LRUCache` keyed ``(name, lod, quant)``.  The base
scene is built at most once; each requested tier is derived from it (LOD
pruning, then a codec round-trip) and cached independently, so a serving
process that mixes quality tiers pays each preparation once.

:func:`default_store` is the process-wide registry pre-populated with the
synthetic zoo (every :data:`repro.gaussians.synthetic.SCENE_SPECS` preset at
its evaluation scale).  Evaluation presets reference entries by name via
``EvalScenePreset.store``, and the ``repro-serve`` CLI registers
``--scene-file`` scenes here under a ``file:`` prefix.

:func:`load_scene_auto` autodetects the three on-disk formats (lossless
``.npz`` archive, quantized store container, text exchange format) and fails
with an actionable error for anything else; :func:`derive_scene_spec` builds
an orbit-camera :class:`~repro.gaussians.synthetic.SceneSpec` for scenes
that arrive from disk without one, so trajectory expansion works for
file-backed scenes exactly as for the synthetic zoo.
"""

from __future__ import annotations

import threading
import zipfile
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.gaussians.io import load_scene_npz, load_scene_text, scene_from_text
from repro.gaussians.model import GaussianScene
from repro.gaussians.presets import EVAL_SCENES
from repro.gaussians.synthetic import SCENE_SPECS, SceneSpec, make_scene
from repro.store.cache import LRUCache
from repro.store.codec import (
    QUANT_SPECS,
    is_store_file,
    load_scene_store,
    quant_spec,
    roundtrip_scene,
)
from repro.store.lod import DEFAULT_RATIO, select_lod

#: Default bound on resident prepared scenes per store.  Each entry is a
#: full scene at one (lod, quant) tier; 64 comfortably covers the zoo at a
#: handful of tiers while bounding a long-lived server.
DEFAULT_STORE_CAPACITY = 64


class SceneStore:
    """Named scenes, lazily built and cached per ``(name, lod, quant)``.

    Parameters
    ----------
    capacity:
        Bound on resident prepared scenes, passed to the backing
        :class:`LRUCache`.
    lod_ratio:
        Keep ratio of the LOD ladder served by :meth:`get` (level ``k``
        retains ``lod_ratio**k`` of the scene).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_STORE_CAPACITY,
        lod_ratio: float = DEFAULT_RATIO,
    ) -> None:
        if not 0.0 < lod_ratio < 1.0:
            raise ValueError("lod_ratio must lie strictly between 0 and 1")
        self._factories: dict[str, Callable[[], GaussianScene]] = {}
        self._cache = LRUCache(maxsize=capacity)
        self.lod_ratio = lod_ratio

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable[[], GaussianScene],
        overwrite: bool = False,
    ) -> None:
        """Register ``factory`` as the builder of scene ``name`` (lazy)."""
        key = name.lower()
        if key in self._factories and not overwrite:
            raise ValueError(f"scene {name!r} is already registered")
        self._factories[key] = factory
        if overwrite:
            self.invalidate(key)

    def add_scene(self, name: str, scene: GaussianScene, overwrite: bool = False) -> None:
        """Register an already-built scene under ``name``."""
        self.register(name, lambda: scene, overwrite=overwrite)

    def register_file(self, name: str, path: str | Path, overwrite: bool = False) -> None:
        """Register the scene at ``path`` (format autodetected, loaded lazily)."""
        path = Path(path)
        self.register(name, lambda: load_scene_auto(path), overwrite=overwrite)

    def names(self) -> list[str]:
        """Sorted names of every registered scene."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._factories

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def get(self, name: str, lod: int = 0, quant: str = "lossless") -> GaussianScene:
        """The scene ``name`` prepared at detail level ``lod`` and tier ``quant``.

        The base scene (``lod=0, quant="lossless"``) is built by the
        registered factory at most once; other tiers derive from it.  Every
        tier is cached under ``(name, lod, quant)`` in the store's LRU cache.
        """
        key = name.lower()
        if key not in self._factories:
            raise KeyError(
                f"unknown store scene {name!r}; registered: {self.names()}"
            )
        if lod != int(lod):
            # A fractional lod would prune one Gaussian count but be cached
            # under the truncated integer key, poisoning later lookups.
            raise ValueError(f"lod must be an integer, got {lod!r}")
        lod = int(lod)
        if lod < 0:
            raise ValueError("lod must be non-negative")
        spec = quant_spec(quant)

        cache_key = (key, lod, spec.name)
        base_key = (key, 0, "lossless")
        if cache_key == base_key:
            return self._cache.get_or_create(base_key, self._factories[key])

        def build() -> GaussianScene:
            base = self._cache.get_or_create(base_key, self._factories[key])
            return roundtrip_scene(select_lod(base, lod, self.lod_ratio), spec)

        return self._cache.get_or_create(cache_key, build)

    def warm(
        self, name: str, tiers: "Iterable[tuple[int, str]]"
    ) -> dict[tuple[int, str], int]:
        """Pre-build and cache ``name`` at each ``(lod, quant)`` tier.

        A serving process that knows its quality ladder (e.g. the
        :mod:`repro.sched` scheduler's) can pay every tier's preparation
        cost up front instead of on the first request that lands on it —
        the difference between a predictable start-up and a latency spike
        mid-traffic.  Returns the Gaussian count per warmed tier.
        """
        return {
            (lod, quant): self.get(name, lod=lod, quant=quant).num_gaussians
            for lod, quant in tiers
        }

    def invalidate(self, name: str) -> None:
        """Drop every cached tier of ``name`` (factory stays registered)."""
        key = name.lower()
        for stale in [k for k in self._cache.keys() if k[0] == key]:
            self._cache.pop(stale)

    @property
    def cache(self) -> LRUCache:
        """The backing cache (size, hit/miss/eviction stats, keys)."""
        return self._cache


# ----------------------------------------------------------------------
# Default process-wide store
# ----------------------------------------------------------------------
_DEFAULT_STORE: SceneStore | None = None

#: Guards lazy creation of the process-wide store: the executor's
#: dispatcher thread (streaming frame callbacks), a scheduler thread and
#: the main thread may all resolve scenes concurrently, and two racing
#: first calls would otherwise build two zoos and cache into the loser.
_DEFAULT_STORE_LOCK = threading.Lock()


def _zoo_scale(name: str) -> float:
    """Generation scale of a zoo entry: the evaluation preset's scale."""
    if name in EVAL_SCENES:
        return EVAL_SCENES[name].scale
    return 1.0 if name == "smoke" else 0.05


def _zoo_factory(name: str) -> Callable[[], GaussianScene]:
    def build() -> GaussianScene:
        return make_scene(name, scale=_zoo_scale(name))

    return build


def default_store() -> SceneStore:
    """The process-wide store, created on first use with the synthetic zoo.

    Thread-safe: concurrent first calls (e.g. the executor's dispatcher
    thread racing the main thread) build exactly one store.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        with _DEFAULT_STORE_LOCK:
            if _DEFAULT_STORE is None:
                store = SceneStore()
                for name in SCENE_SPECS:
                    store.register(name, _zoo_factory(name))
                _DEFAULT_STORE = store
    return _DEFAULT_STORE


def reset_default_store() -> None:
    """Forget the process-wide store (tests; next use rebuilds the zoo)."""
    global _DEFAULT_STORE
    with _DEFAULT_STORE_LOCK:
        _DEFAULT_STORE = None


# ----------------------------------------------------------------------
# On-disk format autodetection
# ----------------------------------------------------------------------
def load_scene_auto(path: str | Path) -> GaussianScene:
    """Load a scene from ``path``, autodetecting the on-disk format.

    Recognised formats: the quantized store container and the lossless
    ``.npz`` archive (both zip-based, discriminated by their keys) and the
    ``# repro-gaussian-scene`` text exchange format.  Anything else raises
    ``ValueError`` naming the formats this build understands.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scene file not found: {path}")

    with path.open("rb") as handle:
        head = handle.read(4)
    if head[:2] == b"PK":  # zip container => one of the two .npz formats
        if is_store_file(path):
            return load_scene_store(path)
        try:
            return load_scene_npz(path)
        except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise ValueError(
                f"{path} is an .npz archive but not a recognised scene "
                f"container ({exc}); expected keys of "
                "repro.gaussians.io.save_scene_npz or "
                "repro.store.codec.save_scene_store"
            ) from exc

    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"unknown scene file format: {path} is neither an .npz scene "
            "container nor repro text; known formats: lossless .npz "
            "(save_scene_npz), quantized store .npz (save_scene_store), "
            "text (save_scene_text)"
        ) from exc
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    if first[:1] in set("#+-.0123456789"):
        return scene_from_text(text)
    raise ValueError(
        f"unknown scene file format: {path}; known formats: lossless .npz "
        "(save_scene_npz), quantized store .npz (save_scene_store), "
        "text (save_scene_text)"
    )


# ----------------------------------------------------------------------
# Camera geometry for file-backed scenes
# ----------------------------------------------------------------------
def derive_scene_spec(
    scene: GaussianScene,
    name: str,
    image_size: tuple[int, int] = (256, 256),
    fov_y_degrees: float = 50.0,
) -> SceneSpec:
    """Build an orbit-camera :class:`SceneSpec` for a scene loaded from disk.

    The extent is a robust radius of the Gaussian centres (90th percentile
    of the distance to their centroid), so a few outlier background splats
    cannot push the orbit camera out to where the scene is a speck; the
    remaining parameters follow the object-scene conventions of the
    synthetic zoo.  The spec drives camera placement and trajectory
    expansion only — it is never used to regenerate the scene.
    """
    if scene.num_gaussians == 0:
        extent = 1.0
    else:
        centred = scene.means - scene.means.mean(axis=0)
        radii = np.linalg.norm(centred, axis=1)
        extent = float(max(np.percentile(radii, 90.0), 1e-3))
    return SceneSpec(
        name=name,
        base_num_gaussians=max(1, scene.num_gaussians),
        extent=extent,
        num_clusters=1,
        cluster_sigma=0.1,
        background_fraction=0.0,
        opacity_beta=(2.0, 1.0),
        scale_lognormal=(-4.0, 0.6),
        camera_radius_factor=2.4,
        camera_height_factor=0.7,
        indoor=False,
        image_size=image_size,
        fov_y_degrees=fov_y_degrees,
    )


__all__ = [
    "DEFAULT_STORE_CAPACITY",
    "QUANT_SPECS",
    "SceneStore",
    "default_store",
    "derive_scene_spec",
    "load_scene_auto",
    "reset_default_store",
]
