"""The paper's thresholds are constants, not ``RenderConfig`` knobs.

``alpha_min``, ``alpha_max``, ``transmittance_eps``, ``depth_near``,
``sh_degree`` and ``group_capacity`` are fixed by the paper, so they are
read-only class attributes bound to the :mod:`repro.render.common`
constants: every instance reads them and no constructor sets them.  This
pins the settable field set, so a new knob is a deliberate edit here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.render.common import (
    ALPHA_MAX,
    ALPHA_MIN,
    DEPTH_NEAR,
    GROUP_CAPACITY,
    SH_DEGREE,
    TRANSMITTANCE_EPS,
    RenderConfig,
)

KNOBS = {"tile_size", "block_size", "radius_rule", "background", "backend", "dtype"}

CONSTANTS = {
    "alpha_min": ALPHA_MIN,
    "alpha_max": ALPHA_MAX,
    "transmittance_eps": TRANSMITTANCE_EPS,
    "depth_near": DEPTH_NEAR,
    "sh_degree": SH_DEGREE,
    "group_capacity": GROUP_CAPACITY,
}


def test_settable_fields_are_the_six_knobs():
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
