"""Scene store subsystem: quantized codec, LOD pyramid and scene registry.

Three layers, each usable alone:

* :mod:`repro.store.codec` — per-attribute quantization behind a
  :class:`~repro.store.codec.QuantSpec` (named tiers ``lossless`` /
  ``fp16`` / ``compact``), a versioned on-disk ``.npz`` container, and exact
  byte accounting so compression ratios are measured, not estimated.
* :mod:`repro.store.lod` — an importance-ranked (opacity x projected
  footprint proxy) pruning ladder producing nested detail levels, each a
  valid scene, with PSNR/LPIPS-proxy quality scored against the full scene.
* :mod:`repro.store.store` — the :class:`~repro.store.store.SceneStore`
  registry resolving named scenes lazily at a ``(lod, quant)`` tier through
  a bounded LRU cache, plus on-disk format autodetection.

:mod:`repro.store.cache` holds that cache, :class:`~repro.store.cache.LRUCache`,
the one bounded memo shared by every layer above.

Quickstart::

    from repro.store import QUANT_SPECS, build_lod_pyramid, default_store

    scene = default_store().get("train", lod=1, quant="compact")
    pyramid = build_lod_pyramid(default_store().get("train"))
"""

from repro.store.codec import (
    QUANT_SPECS,
    QuantSpec,
    STORE_VERSION,
    compression_ratio,
    decode_payload,
    encode_scene,
    encoded_nbytes,
    fp32_nbytes,
    is_store_file,
    load_scene_store,
    payload_nbytes,
    quant_spec,
    roundtrip_scene,
    save_scene_store,
)
from repro.store.lod import (
    LodPyramid,
    build_lod_pyramid,
    importance_scores,
    level_quality,
    lod_keep_count,
    pyramid_quality,
    select_lod,
)
from repro.store.store import (
    DEFAULT_STORE_CAPACITY,
    SceneStore,
    default_store,
    derive_scene_spec,
    load_scene_auto,
    reset_default_store,
)

__all__ = [
    "DEFAULT_STORE_CAPACITY",
    "LodPyramid",
    "QUANT_SPECS",
    "QuantSpec",
    "STORE_VERSION",
    "SceneStore",
    "build_lod_pyramid",
    "compression_ratio",
    "decode_payload",
    "default_store",
    "derive_scene_spec",
    "encode_scene",
    "encoded_nbytes",
    "fp32_nbytes",
    "importance_scores",
    "is_store_file",
    "level_quality",
    "load_scene_auto",
    "load_scene_store",
    "lod_keep_count",
    "payload_nbytes",
    "pyramid_quality",
    "quant_spec",
    "reset_default_store",
    "roundtrip_scene",
    "save_scene_store",
    "select_lod",
]
