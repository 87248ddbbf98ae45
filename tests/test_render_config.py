"""The paper's thresholds and GSCore's tile are constants, not knobs.

``alpha_min``, ``alpha_max``, ``transmittance_eps``, ``depth_near``,
``sh_degree`` and ``group_capacity`` are fixed by the paper, and the
standard dataflow is GSCore's (a 16x16 tile, 8x8 OBB subtile accounting, a
black background), so all of them are read-only class attributes bound to
the :mod:`repro.render.common` constants: every instance reads them and no
constructor sets them.  This pins the settable field set of
``RenderConfig`` and of every caller that used to forward the tile size or
the subtile rule, so a new knob is a deliberate edit here.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.arch.gscore import GScoreConfig
from repro.eval.runner import run_tilewise
from repro.exec.frames import FrameSpec
from repro.render.common import (
    ALPHA_MAX,
    ALPHA_MIN,
    BACKGROUND,
    DEPTH_NEAR,
    GROUP_CAPACITY,
    SH_DEGREE,
    TILE_SIZE,
    TRANSMITTANCE_EPS,
    RenderConfig,
)
from repro.render.tile_raster import render_tilewise

KNOBS = {"block_size", "radius_rule", "dtype"}

CONSTANTS = {
    "alpha_min": ALPHA_MIN,
    "alpha_max": ALPHA_MAX,
    "transmittance_eps": TRANSMITTANCE_EPS,
    "depth_near": DEPTH_NEAR,
    "sh_degree": SH_DEGREE,
    "group_capacity": GROUP_CAPACITY,
    "tile_size": TILE_SIZE,
    "background": BACKGROUND,
}


def test_settable_fields_are_the_three_knobs():
    assert {f.name for f in dataclasses.fields(RenderConfig)} == KNOBS


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_paper_constants_are_readable_and_not_settable(name):
    # The stack benchmark reads alpha_min, alpha_max and transmittance_eps
    # off an instance.
    assert getattr(RenderConfig(), name) == CONSTANTS[name]
    with pytest.raises(TypeError):
        RenderConfig(**{name: CONSTANTS[name]})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(RenderConfig(), name, CONSTANTS[name])


def test_gscore_subtile_is_half_a_tile(monkeypatch):
    assert RenderConfig().subtile_size == TILE_SIZE // 2 == 8
    monkeypatch.setattr(RenderConfig, "tile_size", 24)
    assert RenderConfig().subtile_size == 12


def test_frame_spec_has_eight_fields():
    assert [f.name for f in dataclasses.fields(FrameSpec)] == [
        "dataflow",
        "backend",
        "enable_cc",
        "block_size",
        "boundary_mode",
        "lod",
        "quant",
        "dtype",
    ]


def test_tile_wise_entry_points_take_no_tile_or_subtile_option():
    assert list(inspect.signature(render_tilewise).parameters) == [
        "scene",
        "camera",
        "config",
        "tile_shard",
    ]
    assert list(inspect.signature(run_tilewise).parameters) == ["setup", "dtype"]
    assert "tile_size" not in {f.name for f in dataclasses.fields(GScoreConfig)}
