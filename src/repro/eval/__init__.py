"""Experiment harness: cached runners and per-figure experiments.

Every table and figure of the paper's evaluation (Section 5) and discussion
(Section 6) has a corresponding function in :mod:`repro.eval.experiments`;
:mod:`repro.eval.reporting` renders the results as text tables in the same
shape as the paper, and the ``benchmarks/`` directory wires each experiment
into ``pytest-benchmark``.  The per-scene presets the runners resolve live
in :mod:`repro.gaussians.presets`, below every layer that resolves a scene.
"""

from repro.eval.runner import EvalSetup, clear_cache, load_scene_and_camera

__all__ = [
    "EvalSetup",
    "clear_cache",
    "load_scene_and_camera",
]
