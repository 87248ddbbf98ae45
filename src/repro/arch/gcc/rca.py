"""Reconfigurable Comparator Array (RCA) — Stage I grouping hardware.

Section 4.2: at the start of each frame the shared MVM lanes compute every
Gaussian's view-space depth, and the RCA bins the surviving Gaussians into
coarse depth groups with a cascaded comparator/adder tree, recursively
subdividing bins larger than ``N`` (256).  The depth values and sorted IDs
are spilled back to DRAM through the shared buffer for reuse by the
rendering pipeline.
"""

from __future__ import annotations

from repro.arch.gcc.config import GccConfig
from repro.arch.units import PipelinedUnit
from repro.render.grouping import grouping_comparison_count


def make_depth_mvm(config: GccConfig) -> PipelinedUnit:
    """The Stage-I reuse of the shared matrix-vector multipliers.

    Each lane produces one depth (a 4-wide dot product) per cycle; the paper
    instantiates four lanes for this phase.
    """
    return PipelinedUnit(
        name="depth-mvm",
        items_per_cycle=float(config.depth_mvm_units),
        latency_cycles=4,
        ops_per_item=4.0,  # one 4-element dot product per Gaussian
    )


def make_rca(config: GccConfig) -> PipelinedUnit:
    """The comparator array performing coarse binning and subdivision."""
    return PipelinedUnit(
        name="rca",
        items_per_cycle=config.rca_units * config.rca_throughput_per_unit,
        latency_cycles=8,
        ops_per_item=2.0,  # comparator + adder-tree update per Gaussian
    )


def grouping_cycles(
    config: GccConfig,
    num_total: int,
    num_passed: int,
    num_coarse_bins: int = 64,
) -> tuple[float, dict[str, float]]:
    """Cycles for the whole Stage-I pass, plus per-unit detail.

    ``num_total`` Gaussians have their depth computed; ``num_passed`` survive
    the near-plane pivot and go through binning.  The two units operate
    back-to-back within the stage, so their cycles add.
    """
    mvm = make_depth_mvm(config)
    rca = make_rca(config)
    mvm_cycles = mvm.process(num_total)
    comparisons = grouping_comparison_count(num_passed, num_coarse_bins=num_coarse_bins)
    rca_cycles = rca.process(comparisons)
    detail = {
        "depth_mvm": mvm_cycles,
        "rca": rca_cycles,
        "depth_mvm_ops": mvm.activity.ops,
        "rca_ops": rca.activity.ops,
    }
    return mvm_cycles + rca_cycles, detail
