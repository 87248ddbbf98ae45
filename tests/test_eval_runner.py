"""The evaluation runner's cached simulations equal a direct simulate.

``run_gcc_sim`` / ``run_gscore_sim`` render through the runner's cached
frames and hand them to the accelerator; a direct ``simulate`` renders with
the accelerator's own configuration.  Every configuration field that reaches
the render must reach it the same way on both paths.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.gcc import GccAccelerator, GccConfig
from repro.arch.gscore import GScoreAccelerator, GScoreConfig
from repro.eval.runner import EvalSetup, load_scene_and_camera, run_gcc_sim, run_gscore_sim

SETUP = EvalSetup("train", quick=True)


def assert_reports_equal(runner, direct):
    for f in dataclasses.fields(runner):
        assert getattr(runner, f.name) == getattr(direct, f.name), f.name


@pytest.mark.parametrize(
    "config",
    [
        GccConfig(),
        GccConfig(enable_cc=False),
        GccConfig(alpha_array_size=4),
        GccConfig(enable_alpha_boundary=False),
    ],
    ids=["default", "no-cc", "array-4", "aabb-boundary"],
)
def test_run_gcc_sim_matches_direct_simulate(config):
    scene, camera = load_scene_and_camera(SETUP)
    direct = GccAccelerator(config).simulate(scene, camera)
    assert_reports_equal(run_gcc_sim(SETUP, config), direct)


@pytest.mark.parametrize("dram", ["LPDDR4-3200", "LPDDR5-6400"])
def test_run_gscore_sim_matches_direct_simulate(dram):
    config = GScoreConfig(dram=dram)
    scene, camera = load_scene_and_camera(SETUP)
    direct = GScoreAccelerator(config).simulate(scene, camera)
    assert_reports_equal(run_gscore_sim(SETUP, config), direct)
