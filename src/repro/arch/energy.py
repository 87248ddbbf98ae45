"""Energy accounting shared by the accelerator models.

The paper's Figure 12 splits per-frame energy into off-chip (DRAM) access,
on-chip (SRAM) access and computation.  The paper has DRAM dominating both
designs; these models do not.  At default scale DRAM is GSCore's largest
term on every scene, but on-chip access is GCC's largest on train, truck,
playroom and drjohnson, and GCC's on-chip energy is 1.04x (drjohnson) to
2.8x (lego; palace 2.7x) GSCore's.  GCC's lower total comes from its cut in
DRAM traffic, which outweighs that on-chip increase.  This module turns the
traffic/operation counters collected by the models into that three-way
breakdown, plus a static term proportional to the frame time.
"""

from __future__ import annotations

from repro.arch.params import DramPreset, EnergyParams


def compute_energy_breakdown(
    dram_bytes: int,
    sram_bytes: int,
    compute_ops: dict[str, float],
    frame_time_s: float,
    energy: EnergyParams,
    dram: DramPreset,
) -> dict[str, float]:
    """Return the per-frame energy breakdown in picojoules.

    Parameters
    ----------
    dram_bytes:
        Total off-chip bytes moved.
    sram_bytes:
        Total on-chip buffer bytes accessed.
    compute_ops:
        Operation counts keyed by kind: ``"fma"``, ``"sfu"`` and ``"cmp"``.
        Unknown kinds are charged at the FMA rate.
    frame_time_s:
        Frame latency, used for the static (leakage/clock) term.
    energy:
        Per-access energy constants.
    dram:
        The DRAM preset, whose per-byte energy the off-chip term is charged
        at (newer LPDDR generations are cheaper per byte, which Figure 14's
        bandwidth sweep indirectly assumes).
    """
    per_op = {"fma": energy.fma_pj, "sfu": energy.sfu_pj, "cmp": energy.cmp_pj}
    compute_pj = sum(
        count * per_op.get(kind, energy.fma_pj) for kind, count in compute_ops.items()
    )
    static_pj = energy.static_power_w * frame_time_s * 1.0e12
    return {
        "dram": dram_bytes * dram.energy_pj_per_byte,
        "sram": sram_bytes * energy.sram_pj_per_byte,
        "compute": compute_pj,
        "static": static_pj,
    }
