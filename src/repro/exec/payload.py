"""Scene resolution and encoded-payload publication for the executor.

Two concerns live here, both shared by the in-process mode and the worker
pool so that their outputs stay *bitwise identical*:

* **Resolution** — turning a :class:`~repro.serve.trajectories.RenderJob`
  (or a caller-supplied scene) into the pruned LOD scene
  (:func:`resolve_lod_scene`) and the decoded render-ready scene at the
  job's quant tier (:func:`resolve_render_scene`).  Store-backed presets go
  through :func:`repro.store.store.default_store`, so repeated jobs at one
  tier reuse the store's cached preparation, exactly as the render farm
  always did.
* **Publication** — encoding the pruned scene once into an on-disk payload
  (:class:`SceneRef`) that workers load lazily: lossless tiers ship the
  bit-exact ``.npz`` archive, lossy tiers ship the quantized store
  container, so the bytes crossing the process boundary shrink with the
  tier.  Decoding is deterministic, which is what keeps the pool bitwise
  identical to the in-process mode at every tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.gaussians.io import save_scene_npz
from repro.gaussians.model import GaussianScene
from repro.gaussians.synthetic import make_scene
from repro.store.codec import QuantSpec, quant_spec, roundtrip_scene, save_scene_store
from repro.store.lod import select_lod
from repro.store.store import default_store


@dataclass(frozen=True)
class SceneRef:
    """One published scene payload a worker can load by path.

    ``key`` is the residency key — ``(scene, lod, quant)`` for jobs served
    from a named preset, or a unique ``("custom", n, lod, quant)`` key for
    caller-supplied scenes (which therefore never alias each other in a
    worker's resident cache).  ``fmt`` selects the worker-side loader and
    ``nbytes`` is the exact on-disk size, the unit of ship accounting.
    """

    key: tuple
    path: str
    fmt: str
    nbytes: int


def scene_key(job) -> tuple:
    """The resident-cache key of ``job``'s scene tier."""
    return (job.scene.lower(), job.lod, quant_spec(job.quant).name)


def resolve_lod_scene(job, scene: GaussianScene | None = None) -> GaussianScene:
    """The pruned (pre-quantization) scene ``job`` renders.

    A caller-supplied ``scene`` is LOD-pruned directly; a store-backed
    preset resolves (and caches) through the default scene store, honouring
    the store's own ``lod_ratio``; anything else is instantiated exactly as
    :mod:`repro.eval.runner` does (``make_scene(preset.name, scale=...)``)
    and pruned.
    """
    preset = job.preset()
    if scene is not None:
        return select_lod(scene, job.lod)
    if preset.store is not None:
        return default_store().get(preset.store, lod=job.lod)
    return select_lod(make_scene(preset.name, scale=preset.scale), job.lod)


def resolve_render_scene(job, scene: GaussianScene | None = None) -> GaussianScene:
    """The decoded, render-ready scene of ``job``'s full ``(lod, quant)`` tier.

    This is the in-process worker's loader (a cache miss calls it); the pool
    arrives at the *same bits* by decoding the published payload (the codec
    round-trip and the save/load trip are the same deterministic transform).
    """
    preset = job.preset()
    if scene is None and preset.store is not None:
        return default_store().get(preset.store, lod=job.lod, quant=job.quant)
    return roundtrip_scene(resolve_lod_scene(job, scene), quant_spec(job.quant))


def publish_payload(
    lod_scene: GaussianScene, key: tuple, directory: str | Path, tier: QuantSpec, serial: int
) -> SceneRef:
    """Encode ``lod_scene`` under ``key`` into ``directory`` and describe it.

    Lossless tiers ship the bit-exact ``.npz`` archive; lossy tiers ship the
    quantized store container so the payload crosses the process boundary
    at its compressed size.
    """
    path = Path(directory) / f"payload-{serial}.npz"
    if tier.is_lossless:
        fmt = "npz"
        save_scene_npz(lod_scene, path)
    else:
        fmt = "store"
        save_scene_store(lod_scene, path, tier)
    return SceneRef(key=key, path=str(path), fmt=fmt, nbytes=path.stat().st_size)
