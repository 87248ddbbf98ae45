"""Alpha-based Gaussian boundary identification (Algorithm 1 of the paper).

Starting from the pixel block containing the Gaussian's projected centre, a
breadth-first traversal explores outward.  A block is added to the influence
set when the elliptical alpha condition holds at one of its pixels; because
the footprint is convex, traversal can stop expanding past any block that
fails the condition, so only the footprint plus a one-block boundary ring is
ever evaluated.  :func:`identify_influence_blocks` is the block-level version
implemented by GCC's Alpha Unit (an ``n x n`` PE array evaluates a whole
block at once and the identifier controller decides which neighbouring
blocks to enqueue).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.gaussians.covariance import mahalanobis_sq
from repro.render.common import ALPHA_MIN


def _alpha_chi2(opacity: float, alpha_min: float) -> float | None:
    """The Mahalanobis^2 threshold for ``alpha >= alpha_min`` (None if empty)."""
    if opacity < alpha_min:
        return None
    return 2.0 * float(np.log(opacity / alpha_min))


def _clamp_to_bounds(value: float, upper: int) -> int:
    """Clamp a float coordinate to the integer range ``[0, upper - 1]``.

    Uses ``floor`` so that an in-bounds coordinate maps to the pixel (or
    block) *containing* it, matching Algorithm 1's "start from the pixel
    containing the projected centre".  Rounding instead can start the
    traversal one pixel past the containing one (e.g. x = 10.7 -> pixel 11),
    which at block granularity can begin the search in a block the footprint
    never touches and miss it entirely.
    """
    return int(min(max(np.floor(value), 0), upper - 1))


@dataclass
class BlockTraversalResult:
    """Outcome of a block-level boundary identification for one Gaussian."""

    #: Blocks (by, bx) whose pixels must be alpha-evaluated, in traversal order.
    blocks: list[tuple[int, int]]
    #: Number of blocks visited (evaluated or rejected); each visit costs one
    #: pass of the n x n PE array in hardware.
    blocks_visited: int
    #: Number of blocks skipped because the transmittance mask marked them
    #: saturated before this Gaussian was processed.
    blocks_skipped_tmask: int


def identify_influence_blocks(
    mean2d: np.ndarray,
    conic: np.ndarray,
    opacity: float,
    width: int,
    height: int,
    block_size: int = 8,
    alpha_min: float = ALPHA_MIN,
    saturated_blocks: np.ndarray | None = None,
) -> BlockTraversalResult:
    """Block-level boundary identification as performed by the Alpha Unit.

    Parameters
    ----------
    saturated_blocks:
        Optional boolean array of shape ``(blocks_y, blocks_x)``; blocks
        marked ``True`` have every pixel's transmittance below the early
        termination threshold (the paper's ``T_mask``) and are skipped without
        evaluation.

    Returns
    -------
    A :class:`BlockTraversalResult`.  A block is included when at least one of
    its pixels satisfies the alpha condition; traversal expands from any
    included block to its 4-neighbours, which (by convexity of the footprint)
    reaches every influenced block while evaluating only a one-block ring
    beyond the footprint.
    """
    blocks_x = (width + block_size - 1) // block_size
    blocks_y = (height + block_size - 1) // block_size
    result_blocks: list[tuple[int, int]] = []
    if blocks_x <= 0 or blocks_y <= 0:
        return BlockTraversalResult(result_blocks, 0, 0)

    chi2 = _alpha_chi2(opacity, alpha_min)
    if chi2 is None:
        return BlockTraversalResult(result_blocks, 0, 0)

    conic = np.asarray(conic, dtype=np.float64)
    cx = _clamp_to_bounds(float(mean2d[0]), width)
    cy = _clamp_to_bounds(float(mean2d[1]), height)
    start = (cy // block_size, cx // block_size)

    visited = np.zeros((blocks_y, blocks_x), dtype=bool)
    skipped_tmask = 0
    blocks_visited = 0

    def block_influence_mask(by: int, bx: int) -> np.ndarray:
        """Per-pixel alpha-condition mask of block (by, bx).

        In hardware this is exactly one pass of the n x n PE array; the
        identifier controller then reads the boundary rows/columns of the
        mask to decide which neighbouring blocks to enqueue, so rejected
        directions never cost an extra array pass.
        """
        x0 = bx * block_size
        y0 = by * block_size
        x1 = min(x0 + block_size, width)
        y1 = min(y0 + block_size, height)
        xs = np.arange(x0, x1, dtype=np.float64) - float(mean2d[0])
        ys = np.arange(y0, y1, dtype=np.float64) - float(mean2d[1])
        dx, dy = np.meshgrid(xs, ys)
        maha = mahalanobis_sq(conic[None, :], dx, dy)
        return maha <= chi2

    queue: deque[tuple[int, int]] = deque()
    visited[start] = True
    blocks_visited += 1
    start_mask = block_influence_mask(*start)
    start_saturated = saturated_blocks is not None and bool(saturated_blocks[start])
    if bool(np.any(start_mask)):
        queue.append(start)
        _masks = {start: start_mask}
        if start_saturated:
            skipped_tmask += 1
        else:
            result_blocks.append(start)
    else:
        _masks = {}

    # Directional expansion: a neighbour is enqueued only when the current
    # block's boundary pixels facing it contain at least one influenced pixel
    # (the paper's directional early termination, valid by convexity).
    while queue:
        by, bx = queue.popleft()
        mask = _masks.pop((by, bx))
        edges = (
            ((by, bx + 1), mask[:, -1]),  # right
            ((by, bx - 1), mask[:, 0]),   # left
            ((by + 1, bx), mask[-1, :]),  # down
            ((by - 1, bx), mask[0, :]),   # up
        )
        for (ny, nx), edge in edges:
            if not (0 <= ny < blocks_y and 0 <= nx < blocks_x):
                continue
            if visited[ny, nx] or not bool(np.any(edge)):
                continue
            visited[ny, nx] = True
            blocks_visited += 1
            neighbour_mask = block_influence_mask(ny, nx)
            if not bool(np.any(neighbour_mask)):
                continue
            queue.append((ny, nx))
            _masks[(ny, nx)] = neighbour_mask
            if saturated_blocks is not None and saturated_blocks[ny, nx]:
                skipped_tmask += 1
            else:
                result_blocks.append((ny, nx))
    return BlockTraversalResult(result_blocks, blocks_visited, skipped_tmask)
