"""Technology, memory and energy constants used by the hardware models.

The per-operation and per-access energies are representative published
figures for a 28 nm process (the paper's implementation node) and LPDDR
DRAM; the paper's own absolute silicon numbers (area, power) come from its
Table 4 and are kept in :mod:`repro.arch.area`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramPreset:
    """One off-chip memory configuration."""

    name: str
    #: Peak bandwidth in GB/s.
    bandwidth_gbps: float
    #: Access energy in picojoules per byte.
    energy_pj_per_byte: float


#: Off-chip memory configurations evaluated in Figure 14.  LPDDR4-3200 is the
#: default (matching GSCore's 51.2 GB/s configuration).
DRAM_PRESETS: dict[str, DramPreset] = {
    "LPDDR4-3200": DramPreset("LPDDR4-3200", 51.2, 20.0),
    "LPDDR4X-4266": DramPreset("LPDDR4X-4266", 68.3, 17.0),
    "LPDDR5-6400": DramPreset("LPDDR5-6400", 102.4, 14.0),
    "LPDDR5X-8533": DramPreset("LPDDR5X-8533", 136.5, 12.0),
    "LPDDR6-14400": DramPreset("LPDDR6-14400", 230.4, 10.0),
}

DEFAULT_DRAM = "LPDDR4-3200"


@dataclass(frozen=True)
class TechnologyParams:
    """Process and clock parameters shared by GCC and GSCore models."""

    #: Clock frequency in Hz (both designs run at 1 GHz).
    clock_hz: float = 1.0e9

    @property
    def cycle_time_s(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0 / self.clock_hz


@dataclass(frozen=True)
class EnergyParams:
    """Per-access / per-operation dynamic energy constants (picojoules).

    Values are representative 28 nm figures: an FP16/FP32 fused multiply-add
    costs on the order of 1-2 pJ, small SRAM accesses below 1 pJ/byte, and
    LPDDR4 DRAM access roughly 20 pJ/byte (the dearest per byte; DRAM energy
    is the :class:`DramPreset`'s).  With these constants off-chip energy is
    GSCore's largest Figure 12 term on every scene but not GCC's (see
    :mod:`repro.arch.energy`).
    """

    #: Fused multiply-add (FP) energy per operation.
    fma_pj: float = 1.5
    #: Special-function (EXP LUT, divide/sqrt iteration) energy per operation.
    sfu_pj: float = 2.0
    #: Comparator / integer op energy per operation.
    cmp_pj: float = 0.2
    #: On-chip SRAM energy per byte accessed.
    sram_pj_per_byte: float = 0.6
    #: Static (leakage + clock) power in watts charged for the frame duration.
    static_power_w: float = 0.05


#: The technology and energy constants every model charges (both designs run
#: at 1 GHz in the same 28 nm process).
TECHNOLOGY = TechnologyParams()
ENERGY = EnergyParams()


def dram_preset(name: str) -> DramPreset:
    """Look up a DRAM preset by name (case-sensitive, as printed in Fig. 14)."""
    if name not in DRAM_PRESETS:
        raise KeyError(f"unknown DRAM preset {name!r}; available: {sorted(DRAM_PRESETS)}")
    return DRAM_PRESETS[name]
