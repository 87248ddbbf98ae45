"""Experiment harness: cached runners and per-figure experiments.

Every table and figure of the paper's evaluation (Section 5) and discussion
(Section 6) has a corresponding function in :mod:`repro.eval.experiments`;
:mod:`repro.eval.ledger` runs them all once beside the paper's numbers and
claims, and ``benchmarks/bench_paper_figures.py`` commits that ledger as
``BENCH_paper_figures.json``.  :mod:`repro.eval.reporting` holds the one
text-table formatter.  The per-scene presets the runners resolve live
in :mod:`repro.gaussians.presets`, below every layer that resolves a scene.
"""

from repro.eval.runner import EvalSetup, clear_cache, load_scene_and_camera

__all__ = [
    "EvalSetup",
    "clear_cache",
    "load_scene_and_camera",
]
