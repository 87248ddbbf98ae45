"""Configuration of the GCC accelerator model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.memory import PIXEL_STATE_BYTES
from repro.arch.params import DEFAULT_DRAM


@dataclass(frozen=True)
class GccConfig:
    """What an experiment varies of the GCC accelerator.

    Defaults are Table 4's configuration; the fixed hardware (unit counts,
    latencies, sorter width) is the unit table beside
    :class:`~repro.arch.gcc.accelerator.GccAccelerator`.  Figures 13 and 14
    sweep the PE array, the Image Buffer and the DRAM preset; Figure 11
    ablates the two switches.
    """

    #: Edge length of the Alpha/Blending PE array (n x n PEs, paper n = 8);
    #: the renderer's block is the same size.
    alpha_array_size: int = 8
    #: Image-buffer capacity in bytes (Table 4: 4 x 32 KB banks).  At
    #: ``PIXEL_STATE_BYTES`` (16) a pixel it holds 8,192 pixels, half of a
    #: 128 x 128 sub-view; ROADMAP item 15 settles the pixel state width.
    image_buffer_bytes: int = 128 * 1024
    #: DRAM preset name (see :data:`repro.arch.params.DRAM_PRESETS`).
    dram: str = DEFAULT_DRAM
    #: Enable cross-stage conditional processing (disable for the GW-only
    #: ablation of Figure 11).
    enable_cc: bool = True
    #: Enable alpha-based boundary identification (disable to fall back to
    #: bounding-box block coverage, the Figure 11c computation ablation).
    enable_alpha_boundary: bool = True

    def __post_init__(self) -> None:
        if self.alpha_array_size <= 0:
            raise ValueError("alpha_array_size must be positive")
        if self.image_buffer_bytes <= 0:
            raise ValueError("image_buffer_bytes must be positive")

    @property
    def alpha_array_pes(self) -> int:
        """Number of PEs in the Alpha (and Blending) array."""
        return self.alpha_array_size * self.alpha_array_size

    def max_resident_pixels(self) -> int:
        """Largest pixel count whose accumulation state fits the image buffer."""
        return self.image_buffer_bytes // PIXEL_STATE_BYTES
