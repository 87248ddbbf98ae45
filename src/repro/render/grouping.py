"""Depth grouping (Stage I of the GCC dataflow).

Gaussians are assigned to depth bins, front-to-back, so that the Gaussian-wise
pipeline can process whole groups in order and skip the remaining (deeper)
groups once rendering has terminated.  The paper uses a two-level scheme: a
coarse pass through the Reconfigurable Comparator Array (RCA) splits the depth
range into bins, and any bin holding more than ``N`` Gaussians (N = 256) is
recursively subdivided so no group exceeds the on-chip sort capacity.
"""

from __future__ import annotations

import numpy as np

from repro.render.common import GROUP_CAPACITY

#: Equal-width coarse bins over the depth range (the RCA's pivot count).
COARSE_BINS = 64


def group_by_depth(
    depths: np.ndarray, capacity: int = GROUP_CAPACITY
) -> tuple[np.ndarray, np.ndarray]:
    """Partition Gaussians into front-to-back depth groups of at most ``capacity``.

    Parameters
    ----------
    depths:
        ``(K,)`` view-space depths of the Gaussians that passed the Stage I
        near-plane cull.
    capacity:
        Maximum group size (the paper's N = 256).  Coarse bins holding more
        are cut into chunks of ``capacity`` in depth order, mirroring the
        recursive subdivision in Section 4.2.

    Returns
    -------
    ``(order, starts)``: ``order`` is the stable depth argsort of ``depths``
    (ties in index order), and group ``k`` is
    ``order[starts[k] : starts[k + 1]]``, the last one running to the end.
    A group starts where the coarse bin changes and every ``capacity``
    positions inside a bin.
    """
    depths = np.asarray(depths, dtype=np.float64)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    order = np.argsort(depths, kind="stable")
    if order.size == 0:
        return order, np.zeros(0, dtype=order.dtype)
    ordered = depths[order]
    # With all depths equal every edge is that depth and one bin holds all.
    edges = np.linspace(ordered[0], ordered[-1], COARSE_BINS + 1)
    bins = np.digitize(ordered, edges[1:-1])
    bin_starts = np.flatnonzero(np.diff(bins, prepend=-1))
    # Each position's offset from the start of its bin.
    offsets = np.arange(order.size) - np.repeat(bin_starts, np.diff(bin_starts, append=order.size))
    return order, np.flatnonzero(offsets % capacity == 0)


def grouping_comparison_count(num_gaussians: int, capacity: int = GROUP_CAPACITY) -> int:
    """Approximate comparator operations the RCA performs for grouping.

    The coarse pass compares each Gaussian against ``log2(COARSE_BINS)``
    pivots (a binary search through the cascaded comparator tree); the
    subdivision pass is bounded by a bitonic-style ``n log^2 n`` term on the
    (rare) oversized bins, approximated here by one extra pass.
    """
    if num_gaussians <= 0:
        return 0
    coarse = num_gaussians * max(int(np.ceil(np.log2(COARSE_BINS))), 1)
    subdivision = num_gaussians * max(int(np.ceil(np.log2(capacity))), 1) // 4
    return coarse + subdivision
