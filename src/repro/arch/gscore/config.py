"""Configuration of the GSCore baseline model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.params import DEFAULT_DRAM, EnergyParams, TechnologyParams


@dataclass(frozen=True)
class GScoreConfig:
    """Architectural parameters of the GSCore baseline.

    Defaults follow the published GSCore configuration: four-way culling,
    conversion and SH units (the parallelism the GCC paper says its balanced
    dataflow lets it cut to 2-way/1-way), a 16-element bitonic sorter, a
    16x16-pixel volume rendering unit with 8x8 subtile skipping, 272 KB of
    on-chip SRAM, and an LPDDR4-3200 interface.  The tile and subtile are
    the renderer's fixed ones (``RenderConfig.tile_size``), not settings.
    """

    #: Parallel culling-and-conversion lanes (projection parallelism).
    preprocess_units: int = 4
    #: Cycles one lane needs per projected Gaussian.
    projection_cycles_per_gaussian: float = 1.0
    #: Parallel SH evaluation lanes.
    sh_units: int = 4
    #: Cycles per Gaussian per SH lane (16 coefficients per channel).
    sh_cycles_per_gaussian: float = 16.0
    #: Bitonic sorting network width.
    sort_width: int = 16
    #: Volume Rendering Unit PE count (alpha/blend lanes).
    vru_pes: int = 256
    #: Fixed per-pair overhead in the VRU (fetch + setup), cycles.
    vru_pair_overhead: float = 2.0
    #: Bytes of the 2D (projected) Gaussian record exchanged with DRAM.
    bytes_2d_gaussian: int = 80
    #: Bytes per Gaussian-tile key-value pair.
    bytes_key_value: int = 8
    #: On-chip SRAM capacity in bytes (272 KB).
    sram_bytes: int = 272 * 1024
    #: Bytes of accumulation state per pixel in the tile buffer.
    bytes_per_pixel: int = 16
    #: DRAM preset name.
    dram: str = DEFAULT_DRAM
    #: Technology (clock) parameters.
    tech: TechnologyParams = field(default_factory=TechnologyParams)
    #: Energy constants.
    energy: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self) -> None:
        if self.preprocess_units <= 0 or self.sh_units <= 0:
            raise ValueError("unit counts must be positive")
        if self.vru_pes <= 0:
            raise ValueError("vru_pes must be positive")
