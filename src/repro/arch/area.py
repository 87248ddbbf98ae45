"""Published area and power breakdowns (Table 4 of the paper).

The paper implements GCC in SystemVerilog and synthesises it with a
commercial 28 nm library; the resulting module-level area/power are published
in Table 4, alongside GSCore's totals.  We reproduce that table verbatim here
and use the totals for area-normalised throughput/energy (Figures 10 and 13
and Table 3), because those silicon numbers cannot be regenerated without the
proprietary toolchain — see DESIGN.md for the substitution note.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModuleArea:
    """Area/power/configuration of one hardware module."""

    name: str
    area_mm2: float
    power_mw: float
    configuration: str


#: GCC compute-unit breakdown (Table 4, upper half).
GCC_COMPUTE_MODULES: tuple[ModuleArea, ...] = (
    ModuleArea("RCA", 0.010, 2.0, "4 units"),
    ModuleArea("Projection Unit", 0.358, 147.0, "2 units"),
    ModuleArea("SH Unit", 0.339, 141.0, "1 units"),
    ModuleArea("Sorting Unit", 0.010, 11.0, "1 units"),
    ModuleArea("Alpha Unit", 0.576, 266.0, "64 PEs"),
    ModuleArea("Blending Unit", 0.382, 172.0, "64 PEs"),
)

#: GCC on-chip buffer breakdown (Table 4, lower half).
GCC_BUFFER_MODULES: tuple[ModuleArea, ...] = (
    ModuleArea("Shared Buffer", 0.019, 3.0, "2 x 1 x 6 KB"),
    ModuleArea("SH Buffer", 0.116, 10.0, "2 x 3 x 8 KB"),
    ModuleArea("Sorted Buffer", 0.029, 1.0, "2 x 1 x 1 KB"),
    ModuleArea("Image Buffer", 0.872, 37.0, "1 x 4 x 32 KB"),
)



def _module_area(name: str) -> float:
    """Table 4 area of the GCC module called ``name``."""
    for module in GCC_COMPUTE_MODULES + GCC_BUFFER_MODULES:
        if module.name == name:
            return module.area_mm2
    raise KeyError(f"no GCC module named {name!r} in Table 4")


#: The Table 4 areas the Figure 13 design-space scaling is anchored to: the
#: 128 KB Image Buffer and the 8x8 (64 PE) Alpha + Blending arrays.
IMAGE_BUFFER_AREA_MM2 = _module_area("Image Buffer")
ALPHA_BLEND_AREA_MM2 = _module_area("Alpha Unit") + _module_area("Blending Unit")

#: GCC totals (Table 4).
GCC_TOTAL_AREA_MM2 = 2.711
GCC_TOTAL_POWER_MW = 790.0
GCC_COMPUTE_AREA_MM2 = 1.675
GCC_COMPUTE_POWER_MW = 739.0
GCC_BUFFER_AREA_MM2 = 1.036
GCC_BUFFER_POWER_MW = 51.0
GCC_SRAM_KB = 190

#: GSCore totals (Table 4 / Table 3).
GSCORE_TOTAL_AREA_MM2 = 3.95
GSCORE_TOTAL_POWER_MW = 870.0
GSCORE_COMPUTE_AREA_MM2 = 2.70
GSCORE_COMPUTE_POWER_MW = 830.0
GSCORE_BUFFER_AREA_MM2 = 1.25
GSCORE_BUFFER_POWER_MW = 40.0
GSCORE_SRAM_KB = 272


def gcc_area_table() -> list[dict[str, object]]:
    """Return Table 4 (GCC breakdown + GSCore totals) as a list of rows."""

    def row(component, area_mm2, power_mw, configuration, kind):
        return {
            "component": component,
            "area_mm2": area_mm2,
            "power_mw": power_mw,
            "configuration": configuration,
            "kind": kind,
        }

    def modules(table, kind):
        return [row(m.name, m.area_mm2, m.power_mw, m.configuration, kind) for m in table]

    return [
        *modules(GCC_COMPUTE_MODULES, "compute"),
        row("Compute Total", GCC_COMPUTE_AREA_MM2, GCC_COMPUTE_POWER_MW, "-", "compute"),
        *modules(GCC_BUFFER_MODULES, "buffer"),
        row("Buffer Total", GCC_BUFFER_AREA_MM2, GCC_BUFFER_POWER_MW, f"{GCC_SRAM_KB} KB", "buffer"),
        row("GCC Total", GCC_TOTAL_AREA_MM2, GCC_TOTAL_POWER_MW, "-", "total"),
        row("GSCore Total", GSCORE_TOTAL_AREA_MM2, GSCORE_TOTAL_POWER_MW, f"{GSCORE_SRAM_KB} KB", "total"),
    ]


def scaled_image_buffer_area(capacity_bytes: int) -> float:
    """Estimate Image Buffer area (mm^2) for a different capacity.

    Used by the design-space exploration of Figure 13(a): SRAM area scales
    roughly linearly with capacity at fixed banking, anchored to the paper's
    128 KB Image Buffer.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    return IMAGE_BUFFER_AREA_MM2 * capacity_bytes / (128 * 1024)


def scaled_alpha_blend_area(array_size: int) -> float:
    """Estimate combined Alpha+Blending Unit area for an ``n x n`` PE array.

    Anchored to the paper's 8x8 (64 PE) configuration.  PE-array area
    scales with the number of PEs.
    """
    if array_size <= 0:
        raise ValueError("array_size must be positive")
    return ALPHA_BLEND_AREA_MM2 * (array_size * array_size) / 64
