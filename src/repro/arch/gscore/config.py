"""Configuration of the GSCore baseline model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import DEFAULT_DRAM


@dataclass(frozen=True)
class GScoreConfig:
    """What an experiment varies of the GSCore baseline: its DRAM preset.

    The fixed hardware (the published configuration) is the unit table
    beside :class:`~repro.arch.gscore.accelerator.GScoreAccelerator`; the
    tile and subtile are the renderer's fixed ones
    (``RenderConfig.tile_size``).
    """

    #: DRAM preset name (see :data:`repro.arch.params.DRAM_PRESETS`).
    dram: str = DEFAULT_DRAM
