"""Evaluation scene presets: the scale each benchmark scene is rendered at.

The paper evaluates six scenes at full training scale (0.1 - 3.3 million
Gaussians, ~1 megapixel frames).  The presets below render each scene's
synthetic stand-in at a reduced scale so the whole reproduction runs on a
laptop; ``scale`` multiplies the paper-scale Gaussian count and
``image_scale`` multiplies the paper's image resolution.  The ratios the
paper reports (rendered fraction, per-Gaussian loads, DRAM traffic split,
speedups) are stable under this scaling; absolute FPS numbers are not
expected to match the 28 nm silicon.

The table lives beside :data:`~repro.gaussians.synthetic.SCENE_SPECS`
because every layer above resolves scenes through it: the scene store
builds its zoo at these scales, and the executor, the trajectories and the
scheduler's service model all expand a job through :func:`eval_preset`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EvalScenePreset:
    """How one benchmark scene is instantiated for the evaluation harness."""

    name: str
    #: Fraction of the paper-scale Gaussian count to generate.
    scale: float
    #: Fraction of the paper's image resolution to render.
    image_scale: float
    #: Which evaluation camera on the orbit/indoor path to use.
    view_index: int = 0
    #: Name of a :mod:`repro.store` scene-store entry supplying the scene.
    #: When set, the harness resolves the scene through
    #: ``repro.store.store.default_store().get(store)`` instead of
    #: regenerating it with ``make_scene(name, scale=scale)`` — ``scale``
    #: then has no effect (the store entry decides the scene's size), while
    #: ``name`` still selects the :class:`~repro.gaussians.synthetic.SceneSpec`
    #: used for camera placement and trajectory expansion.
    store: str | None = None


#: Default presets: 6k-14k Gaussians and 100-180 px images per scene.
EVAL_SCENES: dict[str, EvalScenePreset] = {
    "palace": EvalScenePreset("palace", scale=0.06, image_scale=0.18),
    "lego": EvalScenePreset("lego", scale=0.06, image_scale=0.18),
    "train": EvalScenePreset("train", scale=0.010, image_scale=0.18),
    "truck": EvalScenePreset("truck", scale=0.005, image_scale=0.18),
    "playroom": EvalScenePreset("playroom", scale=0.005, image_scale=0.12),
    "drjohnson": EvalScenePreset("drjohnson", scale=0.004, image_scale=0.12),
}


def quick_preset(preset: EvalScenePreset) -> EvalScenePreset:
    """Derive the reduced smoke-run variant of ``preset``.

    Uses :func:`dataclasses.replace` so every field other than the two
    scale factors (``view_index`` today, anything added later) carries over
    unchanged.
    """
    return replace(preset, scale=preset.scale * 0.25, image_scale=preset.image_scale * 0.6)


#: Reduced presets for fast smoke runs (tests and --quick benchmarking).
QUICK_SCENES: dict[str, EvalScenePreset] = {
    name: quick_preset(preset) for name, preset in EVAL_SCENES.items()
}

#: Presets registered at runtime (store-backed scenes, ``--scene-file`` CLI
#: loads).  Consulted by :func:`eval_preset` after the built-in tables.
_CUSTOM_PRESETS: dict[str, EvalScenePreset] = {}


def register_preset(preset: EvalScenePreset, overwrite: bool = False) -> None:
    """Register a runtime evaluation preset (e.g. for a file-backed scene).

    The preset's ``name`` must have a :class:`~repro.gaussians.synthetic.SceneSpec`
    (built-in or added via
    :func:`repro.gaussians.synthetic.register_scene_spec`) so cameras and
    trajectories can be expanded for it.  Built-in preset names cannot be
    shadowed; re-registering a custom name requires ``overwrite=True``.
    """
    key = preset.name.lower()
    if key in EVAL_SCENES:
        raise ValueError(f"cannot shadow built-in evaluation preset {preset.name!r}")
    if key in _CUSTOM_PRESETS and not overwrite:
        raise ValueError(f"preset {preset.name!r} is already registered")
    _CUSTOM_PRESETS[key] = preset


def eval_preset(name: str, quick: bool = False) -> EvalScenePreset:
    """Return the evaluation preset for ``name``.

    Runtime-registered presets (:func:`register_preset`) resolve after the
    built-in tables; their quick variant is derived with
    :func:`quick_preset` on demand (for store-backed presets only the
    ``image_scale`` reduction has an effect — the store entry fixes the
    Gaussian count).
    """
    table = QUICK_SCENES if quick else EVAL_SCENES
    key = name.lower()
    if key in table:
        return table[key]
    if key in _CUSTOM_PRESETS:
        preset = _CUSTOM_PRESETS[key]
        return quick_preset(preset) if quick else preset
    raise KeyError(
        f"unknown evaluation scene {name!r}; available: "
        f"{sorted(set(table) | set(_CUSTOM_PRESETS))}"
    )
