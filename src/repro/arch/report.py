"""Simulation result container shared by the GCC, GSCore and GPU models."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.energy import compute_energy_breakdown
from repro.arch.memory import DramModel, TrafficCounter
from repro.arch.params import ENERGY, TECHNOLOGY


@dataclass
class SimulationReport:
    """Cycle, traffic and energy accounting of one simulated frame.

    All energies are in picojoules unless the field name says otherwise; the
    convenience properties convert to the units the paper's figures use
    (FPS, mJ/frame, FPS/mm^2).
    """

    #: Accelerator name ("GCC", "GSCore", ...).
    accelerator: str
    #: Scene name the frame came from.
    scene: str
    #: Clock frequency in Hz.
    clock_hz: float
    #: Total cycles for the frame.
    total_cycles: float
    #: Cycles per pipeline stage / bottleneck component.
    stage_cycles: dict[str, float] = field(default_factory=dict)
    #: Off-chip traffic breakdown.
    dram_traffic: TrafficCounter = field(default_factory=TrafficCounter)
    #: Total on-chip SRAM bytes accessed.
    sram_bytes: int = 0
    #: Arithmetic operation counts by kind ("fma", "sfu", "cmp").
    compute_ops: dict[str, float] = field(default_factory=dict)
    #: Energy breakdown in picojoules ("dram", "sram", "compute", "static").
    energy_pj: dict[str, float] = field(default_factory=dict)
    #: Total silicon area used for normalisation (mm^2).
    area_mm2: float = 1.0
    #: Free-form extra measurements (ablation counters, Cmode factors, ...).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def frame_time_s(self) -> float:
        """Frame latency in seconds."""
        return self.total_cycles / self.clock_hz

    @property
    def fps(self) -> float:
        """Frames per second (one-frame steady-state throughput)."""
        if self.total_cycles <= 0:
            return float("inf")
        return self.clock_hz / self.total_cycles

    @property
    def fps_per_mm2(self) -> float:
        """Area-normalised throughput, the paper's primary metric (Fig. 10a)."""
        return self.fps / self.area_mm2

    @property
    def total_energy_pj(self) -> float:
        """Total per-frame energy in picojoules."""
        return float(sum(self.energy_pj.values()))

    @property
    def energy_mj_per_frame(self) -> float:
        """Per-frame energy in millijoules (the unit of Figure 12)."""
        return self.total_energy_pj * 1.0e-9

    @property
    def energy_per_area(self) -> float:
        """mJ per frame per mm^2 (used by the Figure 13 design-space plots)."""
        return self.energy_mj_per_frame / self.area_mm2

    def summary(self) -> dict[str, float]:
        """Compact scalar summary used by the reporting helpers."""
        return {
            "total_cycles": self.total_cycles,
            "fps": self.fps,
            "fps_per_mm2": self.fps_per_mm2,
            "dram_bytes": float(self.dram_traffic.total),
            "sram_bytes": float(self.sram_bytes),
            "energy_mj": self.energy_mj_per_frame,
        }


def frame_report(
    accelerator: str,
    scene: str,
    total_cycles: float,
    stage_cycles: dict[str, float],
    dram: DramModel,
    sram_bytes: int,
    compute_ops: dict[str, float],
    area_mm2: float,
    extra: dict[str, float],
) -> SimulationReport:
    """The report of one simulated frame, its energy charged at the shared constants."""
    frame_time_s = total_cycles / TECHNOLOGY.clock_hz
    energy = compute_energy_breakdown(
        dram_bytes=dram.traffic.total,
        sram_bytes=sram_bytes,
        compute_ops=compute_ops,
        frame_time_s=frame_time_s,
        energy=ENERGY,
        dram=dram.preset,
    )
    return SimulationReport(
        accelerator=accelerator,
        scene=scene,
        clock_hz=TECHNOLOGY.clock_hz,
        total_cycles=total_cycles,
        stage_cycles=stage_cycles,
        dram_traffic=dram.traffic,
        sram_bytes=sram_bytes,
        compute_ops=compute_ops,
        energy_pj=energy,
        area_mm2=area_mm2,
        extra=extra,
    )
