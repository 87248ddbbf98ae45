"""The pipelined compute-unit model and the operation costs both designs charge.

Every GCC/GSCore hardware module (Projection Unit, SH Unit, Alpha Unit, ...)
is modelled as a pipelined unit characterised by:

* ``items_per_cycle`` — steady-state throughput once the pipeline is full,
* ``latency_cycles`` — pipeline depth (paid once per batch of work),
* ``ops_per_item`` — arithmetic operations per item, used for energy.

This matches the paper's methodology: each module performs functionally
correct computation while tracking the cycle-level cost of each operation,
validated against the HDL at the cycle level.  Here the functional
computation lives in :mod:`repro.render`; the unit model turns the collected
work counts into cycles and operation counts.  Each design lists its units
in one table beside its accelerator (``gcc_units``, ``gscore_units``); the
per-operation constants below are the ones both tables charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gaussians.sh import count_sh_flops

#: Approximate FMA operations per Gaussian for the full Stage-II transform:
#: view transform (9), perspective + NDC (8), covariance reconstruction
#: R S S^T R^T (~45), Jacobian build (6), J W Sigma W^T J^T (~40), 2x2
#: inversion + eigenvalues (~12).
PROJECTION_FMA_PER_GAUSSIAN = 120.0
#: Special-function operations per projected Gaussian (divide / sqrt
#: iterations).
PROJECTION_SFU_PER_GAUSSIAN = 8.0

#: FLOPs of one Gaussian's degree-3 SH colour (16 coefficients per channel).
SH_FMA_PER_GAUSSIAN = float(count_sh_flops(1))
#: Special-function operations per SH evaluation: the view-direction
#: normalisation, which reuses the projection's fused divide/sqrt design.
SH_SFU_PER_GAUSSIAN = 3.0

#: Operations per pixel for one alpha evaluation: Mahalanobis quadratic form
#: (3 multiplies + 2 adds folded into FMAs) plus the EXP LUT interpolation.
ALPHA_FMA_PER_PIXEL = 4.0
ALPHA_SFU_PER_PIXEL = 1.0

#: FMA operations per blended pixel: transmittance update (1) plus three
#: colour-channel accumulations (3).
BLEND_FMA_PER_PIXEL = 4.0

#: Width of the bitonic sorting network; GCC reuses GSCore's 16-element one.
SORTER_WIDTH = 16

#: Fixed per-frame control overhead in cycles (configuration load, pipeline
#: fill and drain, final image read-out), the same in both designs.
FRAME_OVERHEAD_CYCLES = 2000.0


@dataclass(frozen=True)
class Unit:
    """A throughput/latency model of one pipelined hardware module."""

    name: str
    #: Items retired per cycle in steady state (may be fractional, e.g. a
    #: unit needing 4 cycles per item has throughput 0.25).
    items_per_cycle: float
    #: Pipeline fill latency charged once per invocation batch.
    latency_cycles: int = 0
    #: Arithmetic operations performed per item (for energy accounting).
    ops_per_item: float = 1.0

    def __post_init__(self) -> None:
        if self.items_per_cycle <= 0:
            raise ValueError("items_per_cycle must be positive")
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be non-negative")

    def cycles(self, items: int, batches: int = 1) -> float:
        """Cycles to process ``items`` items split over ``batches`` batches."""
        if items < 0:
            raise ValueError("items must be non-negative")
        if items == 0:
            return 0.0
        return items / self.items_per_cycle + self.latency_cycles * max(batches, 1)

    def ops(self, items: int) -> float:
        """Arithmetic operations for ``items`` items."""
        if items < 0:
            raise ValueError("items must be non-negative")
        return items * self.ops_per_item


def bitonic_passes(group_size: int, width: int) -> float:
    """Network passes needed to sort ``group_size`` elements with a ``width`` sorter."""
    if group_size <= 1:
        return 0.0
    stages = math.ceil(math.log2(group_size))
    total_stage_passes = stages * (stages + 1) / 2
    elements_per_pass = max(width, 1)
    return total_stage_passes * group_size / elements_per_pass


def bitonic_sorter(group_size: int) -> Unit:
    """The sorting network as per-element throughput for ``group_size`` lists.

    A bitonic merge network of width ``w`` consumes ``n / w`` passes per
    ``log^2`` stage; the per-element cost folds the stage count for a full
    list of ``group_size`` elements.
    """
    per_element_cycles = bitonic_passes(group_size, SORTER_WIDTH) / group_size
    return Unit(
        "sort",
        items_per_cycle=1.0 / max(per_element_cycles, 1e-9),
        latency_cycles=4,
        ops_per_item=max(per_element_cycles, 1.0),
    )
