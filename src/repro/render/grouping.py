"""Depth grouping (Stage I of the GCC dataflow).

Gaussians are assigned to depth bins, front-to-back, so that the Gaussian-wise
pipeline can process whole groups in order and skip the remaining (deeper)
groups once rendering has terminated.  The paper uses a two-level scheme: a
coarse pass through the Reconfigurable Comparator Array (RCA) splits the depth
range into bins, and any bin holding more than ``N`` Gaussians (N = 256) is
recursively subdivided so no group exceeds the on-chip sort capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.common import GROUP_CAPACITY


@dataclass(frozen=True)
class DepthGroup:
    """One depth group: indices into the caller's arrays plus its depth span."""

    indices: np.ndarray
    depth_min: float
    depth_max: float

    @property
    def size(self) -> int:
        """Number of Gaussians in the group."""
        return int(self.indices.size)


def group_by_depth(
    depths: np.ndarray,
    capacity: int = GROUP_CAPACITY,
    num_coarse_bins: int = 64,
) -> list[DepthGroup]:
    """Partition Gaussians into front-to-back depth groups of at most ``capacity``.

    Parameters
    ----------
    depths:
        ``(K,)`` view-space depths of the Gaussians that passed the Stage I
        near-plane cull.
    capacity:
        Maximum group size (the paper's N = 256).
    num_coarse_bins:
        Number of equal-width coarse bins over the depth range (the RCA's
        pivot count).  Bins exceeding ``capacity`` are subdivided by sorting
        and chunking, mirroring the recursive subdivision in Section 4.2.

    Returns
    -------
    Groups ordered front-to-back; every depth in group ``k`` is <= every depth
    in group ``k + 1`` (up to the subdivision chunk boundaries, which are
    exactly depth-sorted).  The union of all group indices is exactly
    ``range(len(depths))``.
    """
    depths = np.asarray(depths, dtype=np.float64)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if num_coarse_bins <= 0:
        raise ValueError("num_coarse_bins must be positive")
    count = depths.size
    if count == 0:
        return []

    d_min, d_max = float(depths.min()), float(depths.max())
    if d_max <= d_min:
        # All Gaussians at the same depth: chunk arbitrarily.
        order = np.arange(count)
        return [
            DepthGroup(order[start : start + capacity], d_min, d_max)
            for start in range(0, count, capacity)
        ]

    edges = np.linspace(d_min, d_max, num_coarse_bins + 1)
    bin_ids = np.clip(np.digitize(depths, edges[1:-1]), 0, num_coarse_bins - 1)

    groups: list[DepthGroup] = []
    for bin_id in range(num_coarse_bins):
        members = np.nonzero(bin_ids == bin_id)[0]
        if members.size == 0:
            continue
        if members.size <= capacity:
            member_depths = depths[members]
            groups.append(
                DepthGroup(members, float(member_depths.min()), float(member_depths.max()))
            )
            continue
        # Recursive subdivision: sort within the bin and chunk.
        order = members[np.argsort(depths[members], kind="stable")]
        for start in range(0, order.size, capacity):
            chunk = order[start : start + capacity]
            chunk_depths = depths[chunk]
            groups.append(
                DepthGroup(chunk, float(chunk_depths.min()), float(chunk_depths.max()))
            )
    return groups


def grouping_comparison_count(
    num_gaussians: int, num_coarse_bins: int = 64, capacity: int = GROUP_CAPACITY
) -> int:
    """Approximate comparator operations the RCA performs for grouping.

    The coarse pass compares each Gaussian against ``log2(num_coarse_bins)``
    pivots (a binary search through the cascaded comparator tree); the
    subdivision pass is bounded by a bitonic-style ``n log^2 n`` term on the
    (rare) oversized bins, approximated here by one extra pass.
    """
    if num_gaussians <= 0:
        return 0
    coarse = num_gaussians * max(int(np.ceil(np.log2(num_coarse_bins))), 1)
    subdivision = num_gaussians * max(int(np.ceil(np.log2(capacity))), 1) // 4
    return coarse + subdivision
