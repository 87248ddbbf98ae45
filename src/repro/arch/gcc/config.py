"""Configuration of the GCC accelerator model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.params import DEFAULT_DRAM, EnergyParams, TechnologyParams


@dataclass(frozen=True)
class GccConfig:
    """Architectural parameters of the GCC accelerator.

    Defaults reproduce the configuration of Table 4: two projection units,
    one SH unit, a 16-element bitonic sorter, an 8x8 alpha/blending PE array,
    a 128 KB image buffer (enough for a 128x128 FP32 RGBA sub-view at half
    precision accumulation; full frames larger than that trigger
    Compatibility Mode), and an LPDDR4-3200 memory interface.
    """

    #: Depth-grouping comparator lanes (RCA instances).
    rca_units: int = 4
    #: Gaussians compared per RCA lane per cycle.
    rca_throughput_per_unit: float = 2.0
    #: Shared-MVM lanes used for Stage I depth computation.
    depth_mvm_units: int = 4
    #: Projection Unit instances (Stage II parallelism; the paper uses 2).
    projection_units: int = 2
    #: Cycles one Projection Unit needs per Gaussian (pipelined: 1/cycle).
    projection_cycles_per_gaussian: float = 1.0
    #: SH Unit instances (the paper uses 1, one SHE per colour channel).
    sh_units: int = 1
    #: Cycles the SH Unit needs per Gaussian (16 coefficients per channel).
    sh_cycles_per_gaussian: float = 16.0
    #: Width of the bitonic sorting network.
    sort_width: int = 16
    #: Edge length of the Alpha/Blending PE array (n x n PEs, paper n = 8).
    alpha_array_size: int = 8
    #: Per-Gaussian latency of the Alpha Unit front-end (cycles).
    alpha_gaussian_latency: int = 14
    #: Maximum Gaussians whose status map / queue are preloaded.
    alpha_preload_depth: int = 16
    #: Image-buffer capacity in bytes (Table 4: 4 x 32 KB banks).
    image_buffer_bytes: int = 128 * 1024
    #: Bytes of accumulation state per pixel (RGB + transmittance, FP32).
    bytes_per_pixel: int = 16
    #: Sub-view edge length used when Compatibility Mode engages.
    cmode_subview: int = 128
    #: DRAM preset name (see :data:`repro.arch.params.DRAM_PRESETS`).
    dram: str = DEFAULT_DRAM
    #: Enable cross-stage conditional processing (disable for the GW-only
    #: ablation of Figure 11).
    enable_cc: bool = True
    #: Enable alpha-based boundary identification (disable to fall back to
    #: bounding-box block coverage, the Figure 11c computation ablation).
    enable_alpha_boundary: bool = True
    #: Technology (clock) parameters.
    tech: TechnologyParams = field(default_factory=TechnologyParams)
    #: Energy constants.
    energy: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self) -> None:
        if self.alpha_array_size <= 0:
            raise ValueError("alpha_array_size must be positive")
        if self.image_buffer_bytes <= 0:
            raise ValueError("image_buffer_bytes must be positive")
        if self.projection_units <= 0 or self.sh_units <= 0:
            raise ValueError("unit counts must be positive")
        if self.cmode_subview <= 0:
            raise ValueError("cmode_subview must be positive")

    @property
    def alpha_array_pes(self) -> int:
        """Number of PEs in the Alpha (and Blending) array."""
        return self.alpha_array_size * self.alpha_array_size

    def max_resident_pixels(self) -> int:
        """Largest pixel count whose accumulation state fits the image buffer."""
        return self.image_buffer_bytes // self.bytes_per_pixel
