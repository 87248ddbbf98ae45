"""Level-of-detail pyramid: importance-ranked pruning of a Gaussian scene.

The paper reduces per-frame Gaussian traffic by skipping work the image
cannot see; a LOD pyramid reduces it by not *shipping* Gaussians a quality
tier does not need.  Each scene is ranked once by an importance proxy —

    importance_i = opacity_i * (second-largest scale_i) * (largest scale_i)

— opacity times the area of the ellipsoid's largest projected ellipse, a
camera-free stand-in for "expected contribution to any frame": a large,
opaque splat shapes every view it enters, while a tiny or near-transparent
one is the long tail the alpha-blend terminates on anyway.

Level ``k`` keeps the top ``ratio**k`` fraction of Gaussians under that
ranking (level 0 is the full scene, untouched).  Because every level is a
prefix of the same ranking, the levels are strictly **nested**: each level's
Gaussian set contains every coarser level, and each is a valid
:class:`~repro.gaussians.model.GaussianScene` preserving the original array
order (so level 0 is bit-identical to the input, and rendering a level is
deterministic).

Quality against the full scene is measured with the existing
:mod:`repro.render.metrics` (PSNR and the LPIPS proxy) via
:func:`level_quality` / :func:`pyramid_quality`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.gaussians.model import GaussianScene
from repro.render.metrics import lpips_proxy, psnr

#: Default number of pyramid levels (level 0 = full scene).
DEFAULT_NUM_LEVELS = 4

#: Default per-level keep ratio: level k retains ``ratio**k`` of the scene.
DEFAULT_RATIO = 0.5


def importance_scores(scene: GaussianScene) -> np.ndarray:
    """Per-Gaussian importance: opacity x projected-footprint area proxy.

    The footprint proxy is the product of the two largest per-axis scales —
    the area (up to a constant) of the largest ellipse the ellipsoid can
    project to, so the ranking is camera-free and can be computed once per
    scene rather than once per frame.
    """
    if scene.num_gaussians == 0:
        return np.zeros(0)
    top_two = np.sort(scene.scales, axis=1)[:, 1:]
    return scene.opacities * top_two[:, 0] * top_two[:, 1]


def lod_keep_count(num_gaussians: int, level: int, ratio: float = DEFAULT_RATIO) -> int:
    """Gaussians retained at ``level`` (at least 1 for a non-empty scene)."""
    if level < 0:
        raise ValueError("lod level must be non-negative")
    if not 0.0 < ratio < 1.0:
        raise ValueError("lod ratio must lie strictly between 0 and 1")
    if num_gaussians == 0 or level == 0:
        return num_gaussians
    return max(1, int(round(num_gaussians * ratio**level)))


def select_lod(
    scene: GaussianScene, level: int, ratio: float = DEFAULT_RATIO
) -> GaussianScene:
    """The ``level``-th detail level of ``scene``.

    Level 0 returns ``scene`` itself (same object, bit-identical arrays);
    deeper levels keep the top ``ratio**level`` fraction by
    :func:`importance_scores`, preserving the original Gaussian order so
    levels of the same scene are nested prefixes of one ranking.
    """
    count = lod_keep_count(scene.num_gaussians, level, ratio)
    if level == 0 or count == scene.num_gaussians:
        return scene
    order = np.argsort(-importance_scores(scene), kind="stable")
    keep = np.sort(order[:count])
    return scene.subset(keep)


@dataclass(frozen=True)
class LodPyramid:
    """K nested detail levels of one scene (level 0 = full detail)."""

    levels: tuple[GaussianScene, ...]
    ratio: float = field(default=DEFAULT_RATIO)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a pyramid needs at least one level")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def name(self) -> str:
        return self.levels[0].name

    def level(self, k: int) -> GaussianScene:
        """The ``k``-th level; raises ``IndexError`` beyond the pyramid."""
        if not 0 <= k < self.num_levels:
            raise IndexError(
                f"lod level {k} out of range for a {self.num_levels}-level pyramid"
            )
        return self.levels[k]

    def keep_fractions(self) -> list[float]:
        """Retained fraction of the full scene at each level."""
        total = self.levels[0].num_gaussians
        if total == 0:
            return [1.0] * self.num_levels
        return [lvl.num_gaussians / total for lvl in self.levels]


def build_lod_pyramid(
    scene: GaussianScene,
    num_levels: int = DEFAULT_NUM_LEVELS,
    ratio: float = DEFAULT_RATIO,
) -> LodPyramid:
    """Rank ``scene`` once and cut ``num_levels`` nested detail levels."""
    if num_levels < 1:
        raise ValueError("num_levels must be at least 1")
    levels = tuple(select_lod(scene, k, ratio) for k in range(num_levels))
    return LodPyramid(levels=levels, ratio=ratio)


def level_quality(reference_image: np.ndarray, level_image: np.ndarray) -> dict:
    """PSNR/LPIPS-proxy of one level's render against the full-scene render."""
    return {
        "psnr_db": psnr(reference_image, level_image),
        "lpips_proxy": lpips_proxy(reference_image, level_image),
    }


def pyramid_quality(
    pyramid: LodPyramid, render_fn: Callable[[GaussianScene], np.ndarray]
) -> list[dict]:
    """Render every level with ``render_fn`` and score it against level 0.

    ``render_fn`` maps a scene to an image (e.g. a closure over a fixed
    camera and :func:`repro.exec.frames.render_frame`); level 0 scores PSNR
    ``inf`` / LPIPS-proxy 0 by construction.
    """
    reference = render_fn(pyramid.level(0))
    report = []
    for k in range(pyramid.num_levels):
        level_scene = pyramid.level(k)
        image = reference if k == 0 else render_fn(level_scene)
        entry = {
            "level": k,
            "num_gaussians": level_scene.num_gaussians,
            "keep_fraction": pyramid.keep_fractions()[k],
        }
        entry.update(level_quality(reference, image))
        report.append(entry)
    return report
