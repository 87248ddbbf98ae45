"""Off-chip DRAM model and the on-chip pixel-state width.

The DRAM model is a bandwidth/traffic model: each traffic class (3D Gaussian
attributes, 2D projected attributes, key-value pairs, frame buffer spills)
accumulates bytes, and the time cost of the total traffic is
``bytes / peak_bandwidth``.  This matches the paper's methodology (Micron
LPDDR4-3200 with 51.2 GB/s peak) and is what produces the memory-bound to
compute-bound crossover of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.params import DEFAULT_DRAM, TECHNOLOGY, DramPreset, dram_preset

#: Bytes of accumulation state per pixel (RGB + transmittance, FP32) in
#: GCC's Image Buffer and GSCore's tile buffer alike.
PIXEL_STATE_BYTES = 16


@dataclass
class TrafficCounter:
    """Byte counters split by traffic class."""

    #: Full 3D Gaussian attribute loads (59 floats or subsets thereof).
    gaussian_3d: int = 0
    #: Projected 2D Gaussian attribute traffic (means, conics, colours).
    gaussian_2d: int = 0
    #: Gaussian-tile key-value pair traffic (tile-wise dataflow only).
    key_value: int = 0
    #: Grouping metadata traffic (depth/ID spills of GCC's Stage I).
    grouping: int = 0
    #: Frame/image buffer spills to DRAM (Compatibility-Mode sub-view swaps).
    framebuffer: int = 0

    @property
    def total(self) -> int:
        """Total bytes moved across all classes."""
        return (
            self.gaussian_3d
            + self.gaussian_2d
            + self.key_value
            + self.grouping
            + self.framebuffer
        )

    def as_dict(self) -> dict[str, int]:
        """Return the per-class byte counts as a plain dictionary."""
        return {
            "gaussian_3d": self.gaussian_3d,
            "gaussian_2d": self.gaussian_2d,
            "key_value": self.key_value,
            "grouping": self.grouping,
            "framebuffer": self.framebuffer,
            "total": self.total,
        }


@dataclass
class DramModel:
    """Bandwidth-limited off-chip memory.

    Parameters
    ----------
    preset:
        One of :data:`repro.arch.params.DRAM_PRESETS` (or a custom
        :class:`DramPreset`).  Transfer time becomes cycles at the shared
        clock, :data:`repro.arch.params.TECHNOLOGY`.
    """

    preset: DramPreset = field(default_factory=lambda: dram_preset(DEFAULT_DRAM))
    traffic: TrafficCounter = field(default_factory=TrafficCounter)

    @property
    def bytes_per_cycle(self) -> float:
        """Peak bytes the interface can transfer per accelerator clock cycle."""
        return self.preset.bandwidth_gbps * 1.0e9 / TECHNOLOGY.clock_hz

    def record(self, traffic_class: str, num_bytes: int) -> None:
        """Add ``num_bytes`` of traffic to the named class."""
        if num_bytes < 0:
            raise ValueError("traffic bytes must be non-negative")
        if not hasattr(self.traffic, traffic_class):
            raise KeyError(f"unknown traffic class {traffic_class!r}")
        setattr(
            self.traffic, traffic_class, getattr(self.traffic, traffic_class) + int(num_bytes)
        )


def image_buffer_bytes(width: int, height: int, bytes_per_pixel: int = PIXEL_STATE_BYTES) -> int:
    """On-chip image-buffer working set for a ``width x height`` view.

    Each pixel holds accumulated RGB plus transmittance (4 values); the GCC
    architecture stores them at FP32 (16 bytes/pixel), so a 128x128 sub-view
    needs 256 KB of accumulation state split across the banked Image Buffer.
    """
    return width * height * bytes_per_pixel
