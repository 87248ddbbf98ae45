"""The scene subsets the paper's evaluation studies.

The per-scene presets themselves (:data:`EVAL_SCENES`, :func:`eval_preset`,
...) live in :mod:`repro.gaussians.presets`, below every layer that
resolves a scene.
"""

from __future__ import annotations

# Re-imported: benchmarks/stack/stack_{canary,paper,serving}.py import it from here.
from repro.gaussians.presets import eval_preset  # noqa: F401
from repro.gaussians.synthetic import BENCHMARK_SCENES

#: The three scenes the paper uses for breakdown/ablation studies (Fig. 11, 15).
ABLATION_SCENES: tuple[str, ...] = ("palace", "train", "drjohnson")

#: The four real-capture scenes of Figure 2 and Table 1.
MOTIVATION_SCENES: tuple[str, ...] = ("train", "truck", "playroom", "drjohnson")


def all_benchmark_scenes() -> tuple[str, ...]:
    """Names of the six paper benchmark scenes, in the paper's order."""
    return BENCHMARK_SCENES
