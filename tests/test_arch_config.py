"""The accelerator configs hold only what an experiment varies.

Figures 13 and 14 (and ``examples/edge_deployment.py``) sweep GCC's PE
array, Image Buffer and DRAM preset, and Figure 11 ablates its two
switches; Figure 14 sweeps GSCore's DRAM preset.  Every other number of
either design is a row of its unit table or a constant beside it, so a new
knob is a deliberate edit here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.gcc import GccConfig
from repro.arch.gscore import GScoreConfig

GCC_KNOBS = {"alpha_array_size", "image_buffer_bytes", "dram", "enable_cc", "enable_alpha_boundary"}
GSCORE_KNOBS = {"dram"}


@pytest.mark.parametrize(
    "config, knobs", [(GccConfig, GCC_KNOBS), (GScoreConfig, GSCORE_KNOBS)], ids=["gcc", "gscore"]
)
def test_settable_fields_are_the_varied_knobs(config, knobs):
    assert {f.name for f in dataclasses.fields(config)} == knobs

