"""Sort Unit — intra-group bitonic sorting (Stage III).

GCC reuses GSCore's 16-element bitonic sorting network, but only to order
Gaussians *within* a depth group (at most 256 elements) rather than to sort
per-tile lists for every tile.  A bitonic merge network of width ``w``
consumes ``n / w`` passes per ``log^2`` stage; the constant below folds the
stage count for 256-element groups into a per-element cost.
"""

from __future__ import annotations

import math

from repro.arch.gcc.config import GccConfig
from repro.arch.units import PipelinedUnit
from repro.render.common import GROUP_CAPACITY


def bitonic_passes(group_size: int, width: int) -> float:
    """Network passes needed to sort ``group_size`` elements with a ``width`` sorter."""
    if group_size <= 1:
        return 0.0
    stages = math.ceil(math.log2(group_size))
    total_stage_passes = stages * (stages + 1) / 2
    elements_per_pass = max(width, 1)
    return total_stage_passes * group_size / elements_per_pass


def make_sort_unit(config: GccConfig) -> PipelinedUnit:
    """The bitonic sorter modelled as per-element throughput for full groups."""
    per_element_cycles = bitonic_passes(GROUP_CAPACITY, config.sort_width) / GROUP_CAPACITY
    return PipelinedUnit(
        name="sort",
        items_per_cycle=1.0 / max(per_element_cycles, 1e-9),
        latency_cycles=4,
        ops_per_item=max(per_element_cycles, 1.0),
    )


def sort_cycles(config: GccConfig, num_elements: int, num_groups: int) -> tuple[float, dict[str, float]]:
    """Cycles for sorting ``num_elements`` across ``num_groups`` groups."""
    unit = make_sort_unit(config)
    cycles = unit.process(num_elements, batches=max(num_groups, 1))
    detail = {"sort": cycles, "sort_cmp_ops": unit.activity.ops}
    return cycles, detail
