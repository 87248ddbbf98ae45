"""Batched rasterisation kernels of the two rendering engines.

The reference renderers in :mod:`repro.render.reference` are deliberate
per-Gaussian/per-block Python loops that mirror the hardware pipelines one
operation at a time.  This module provides the batched equivalents
:mod:`repro.render.tile_raster` and :mod:`repro.render.gaussian_raster`
render with (the reference imports nothing from here):

* :func:`cull_level` / :func:`footprint_block_spans` /
  :func:`ellipse_meets_blocks` — the tile-wise engine's exact dead-pair
  cull: which of a tile's Gaussians can change a pixel or a counter of one
  of its blocks at all, from a conservative box and the ellipse's minimum.
* :class:`BlockFrame` / :func:`rank_layers` / :func:`blend_layers` — the
  one Stage IV of both engines: whole block runs blended on a block-major
  frame in rank layers that are contiguous prefixes of the blocks (longest
  run first), fed windows of ranks of the tile lists by the tile-wise
  engine and one depth group at a time by :func:`blend_group_layers`.
* :func:`identify_group_blocks` — footprint bits of every ``(Gaussian,
  candidate block)`` pair of a window of :data:`GROUP_WINDOW` depth groups
  in one pass over a pixel-major form (the pair axis innermost), and
  Algorithm 1's traversal as a reachability fixpoint.
* :func:`batched_tile_alpha` / :func:`sequential_blend` — the former
  per-tile kernels, off the engine path, timed by the benchmark's canary.

Every kernel is *observationally equivalent* to the reference loops: the
per-pixel arithmetic uses identical elementwise operations in the same
order — colour included, which both engines accumulate in the reference's
order — so all statistics counters (pairs processed, alpha evaluations,
pixels blended, blocks visited/skipped, ...) are integer-identical and
images, like the transmittance state behind them, are bitwise-identical.
"""

from __future__ import annotations

import numpy as np

from repro.render.blending import alpha_from_maha

#: Ranks of the tiles' live lists the tile-wise Stage IV blends per window.
#: A tile whose last block saturates inside a window leaves the next one,
#: so a wider window wastes more rows past early exits and a narrower one
#: pays more per-window and per-layer calls.
RANK_WINDOW = 32

#: ``(row, block)`` entries per tile-wise layer chunk: bounds the
#: ``(entries, bs * bs)`` temporaries of :func:`blend_layers`.
LAYER_CHUNK = 768


# ----------------------------------------------------------------------
# Stage-level span hook
# ----------------------------------------------------------------------
class NullStageHook:
    """Default no-op stage hook: ``stage()`` returns a shared null CM.

    The render path calls ``stage_hook().stage(name)`` around its pipeline
    stages (tile-wise ``project`` / ``pair_build`` / ``blend``; Gaussian-wise
    ``project`` / ``boundary`` / ``sh`` / ``blend``).  By default that is this
    do-nothing hook (one attribute lookup and a pre-built context
    manager — no timing, no allocation), so rendering pays essentially
    nothing when observability is off.  ``repro.obs.TracerStageHook``
    swaps in real span recording via :func:`set_stage_hook`.
    """

    class _NullContext:
        __slots__ = ()

        def __enter__(self):
            return None

        def __exit__(self, exc_type, exc, tb):
            return False

    _NULL = _NullContext()

    def stage(self, name, **attrs):
        return self._NULL


_stage_hook = NullStageHook()


def stage_hook():
    """The currently installed stage hook (never None)."""
    return _stage_hook


def set_stage_hook(hook):
    """Install ``hook`` (``None`` restores the no-op); returns the previous.

    Process-global by design: worker processes install their own hook
    bound to their private tracer, and the executor's in-process mode
    installs/restores one around each job.
    """
    global _stage_hook
    previous = _stage_hook
    _stage_hook = hook if hook is not None else NullStageHook()
    return previous


# ----------------------------------------------------------------------
# Tile-wise (standard dataflow) kernels
# ----------------------------------------------------------------------
def shard_intervals(num_tiles: int, num_shards: int) -> list[tuple[int, int]]:
    """Split the tile-id range ``[0, num_tiles)`` into contiguous shards.

    Returns exactly ``num_shards`` half-open ``(lo, hi)`` intervals that
    partition ``[0, num_tiles)`` in order, each of size
    ``floor(num_tiles / num_shards)`` or one more.  When ``num_shards``
    exceeds ``num_tiles`` the trailing intervals are empty — rendering an
    empty shard is a no-op and the compositor ignores it, so any shard
    count is valid.
    """
    if num_tiles < 0:
        raise ValueError("num_tiles must be non-negative")
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    bounds = [(i * num_tiles) // num_shards for i in range(num_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)]


def tile_interval_slice(tile_ids: np.ndarray, lo: int, hi: int) -> slice:
    """Slice of a tile-id-sorted array (the pair stream, sorted by (tile,
    depth)) whose ids lie in ``[lo, hi)``: a shard's pairs, by binary search."""
    if lo > hi:
        raise ValueError(f"empty-ordered tile interval: [{lo}, {hi})")
    start = int(np.searchsorted(tile_ids, lo, side="left"))
    stop = int(np.searchsorted(tile_ids, hi, side="left"))
    return slice(start, stop)


def cull_level(
    means2d: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
    alpha_min: float,
    width: int,
    height: int,
) -> np.ndarray:
    """Per Gaussian, the Mahalanobis^2 level its footprint is culled at.

    Outside the ellipse ``maha <= max(9, 2 ln(opacity / alpha_min))`` a
    Gaussian's alpha is below ``alpha_min`` (zeroed) *and* its Mahalanobis^2
    exceeds the 3-sigma subtile test, so a pixel it cannot reach changes no
    pixel value and no counter.  The level is computed in float64 from the
    arrays the kernels read (float32 views included) and inflated by a bound
    on the rounding error of evaluating the form in that dtype anywhere on
    the ``width x height`` image, so this holds for the *computed* values.
    """
    eps = np.finfo(means2d.dtype).eps
    mx, my = np.asarray(means2d, dtype=np.float64).T
    a, b, c = np.asarray(conics, dtype=np.float64).T
    with np.errstate(divide="ignore", invalid="ignore"):
        level = np.maximum(9.0, 2.0 * np.log(np.asarray(opacities, dtype=np.float64) / alpha_min))
        # Largest value any partial sum of the form can take on the image.
        far_x = np.maximum(np.abs(mx), np.abs(width - 1 - mx))
        far_y = np.maximum(np.abs(my), np.abs(height - 1 - my))
        magnitude = np.abs(a) * far_x**2 + 2.0 * np.abs(b) * far_x * far_y + np.abs(c) * far_y**2
    return level * (1.0 + 1.0e-6) + 16.0 * eps * magnitude


def footprint_block_spans(
    frame: BlockFrame, means2d: np.ndarray, conics: np.ndarray, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per Gaussian, ``(x_first, x_last, y_first, y_last)``: the inclusive
    ranges of ``frame``'s block columns and rows with a pixel centre in the
    bounding box of the ellipse ``maha <= level`` (:func:`cull_level`),
    empty (``first > last``) when it misses the image.  A degenerate conic
    (NaN or infinite half-widths) spans every block."""
    mx, my = np.asarray(means2d, dtype=np.float64).T
    a, b, c = np.asarray(conics, dtype=np.float64).T
    bs = frame.block_size

    def span(centre, half, extent):
        first, last = np.ceil(centre - half), np.floor(centre + half)
        first[~(first >= 0)] = 0
        last[~(last <= extent - 1)] = extent - 1
        empty = first > last
        first[empty], last[empty] = 0, -bs
        return first.astype(np.int32) // bs, last.astype(np.int32) // bs

    with np.errstate(divide="ignore", invalid="ignore"):
        det = a * c - b * b
        return (
            *span(mx, np.sqrt(level * c / det), frame.width),
            *span(my, np.sqrt(level * a / det), frame.height),
        )


def ellipse_meets_blocks(
    frame: BlockFrame, blk: np.ndarray, means2d: np.ndarray, conics: np.ndarray, level: np.ndarray
) -> np.ndarray:
    """Per ``(block, Gaussian)`` entry (the arrays are the entries' rows),
    whether the ellipse ``maha <= level`` (:func:`cull_level`) can reach a
    pixel centre of the block.  The form's minimum over the block's
    pixel-centre rectangle is exact: zero when the mean lies inside, else
    the least of its four edges' minima (the form is convex), in float64,
    whose rounding the level's inflation absorbs.  Forms that are not
    positive definite always reach."""
    bs = frame.block_size
    block_y, block_x = np.divmod(blk, frame.blocks_x)
    mx, my = np.asarray(means2d, dtype=np.float64).T
    a, b, c = np.asarray(conics, dtype=np.float64).T
    u0, v0 = block_x * bs - mx, block_y * bs - my
    u1 = np.minimum(block_x * bs + bs, frame.width) - 1 - mx
    v1 = np.minimum(block_y * bs + bs, frame.height) - 1 - my

    def edge(a, b, c, u, v_lo, v_hi):
        """Minimum of ``a u^2 + 2 b u v + c v^2`` over ``v`` in ``[v_lo, v_hi]``."""
        v = np.clip(-b * u / c, v_lo, v_hi)
        return (a * u + 2.0 * b * v) * u + c * v * v

    with np.errstate(divide="ignore", invalid="ignore"):
        least = np.minimum(
            np.minimum(edge(a, b, c, u0, v0, v1), edge(a, b, c, u1, v0, v1)),
            np.minimum(edge(c, b, a, v0, u0, u1), edge(c, b, a, v1, u0, u1)),
        )
        out_of_reach = (least > level) & (a > 0.0) & (a * c - b * b > 0.0)
    return ~out_of_reach | ((u0 <= 0.0) & (u1 >= 0.0) & (v0 <= 0.0) & (v1 >= 0.0))


def batched_tile_alpha(
    means2d: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
    x0: int,
    y0: int,
    x1: int,
    y1: int,
    alpha_min: float,
    alpha_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Alpha and Mahalanobis^2 of ``K`` Gaussians over one pixel tile,
    ``(K, y1 - y0, x1 - x0)`` each, in ``means2d``'s dtype: the form is
    :func:`_maha_grid`'s and the clamp and threshold are
    :func:`~repro.render.blending.alpha_from_maha`'s, so the values are the
    reference loop's bit for bit.  Off the engine path (like
    :func:`sequential_blend`): the benchmark's kernel canary times it.
    """
    dtype = means2d.dtype
    dx = np.arange(x0, x1, dtype=dtype) - means2d[:, 0, None]
    dy = np.arange(y0, y1, dtype=dtype) - means2d[:, 1, None]
    maha = _maha_grid(conics[:, None, None], dx[:, None, :], dy[:, :, None])
    alpha = alpha_from_maha(
        maha,
        opacities[:, None, None],
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        out=np.empty_like(maha),
    )
    return alpha, maha


def _maha_grid(conics: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Mahalanobis^2 over pixel grids, shaped as ``dx`` and ``dy`` broadcast.

    ``dx`` and ``dy`` are pixel offsets from the means along one axis each,
    laid out so that they broadcast to the grid (the row axis of ``dx`` and
    the column axis of ``dy`` of length 1); the packed ``conics`` ``(..., 3)``
    broadcast against them.  The values are
    :func:`~repro.gaussians.covariance.mahalanobis_sq`'s bit for bit: the
    three terms of the quadratic form are built per axis — ``a dx dx`` and
    ``2b dx`` only depend on the column, ``c dy dy`` on the row — and summed
    in the reference's association into one output array in place (the
    first addition commuted, which IEEE addition allows exactly), so the
    grid costs one full-size array and no full-size temporary.  This is the
    one place the form is restated.
    """
    a, b, c = conics[..., 0], conics[..., 1], conics[..., 2]
    maha = ((2.0 * b) * dx) * dy
    maha += (a * dx) * dx
    maha += (c * dy) * dy
    return maha


def sequential_blend(
    tile_color: np.ndarray,
    tile_trans: np.ndarray,
    alphas: np.ndarray,
    colors: np.ndarray,
    transmittance_eps: float,
) -> tuple[int, np.ndarray]:
    """Blend a depth-ordered chunk of ``K`` Gaussians into a tile, in place.

    ``tile_color`` ``(P, 3)`` and ``tile_trans`` ``(P,)`` are updated with
    ``alphas`` ``(K, P)`` and ``colors`` ``(K, 3)`` exactly as the reference
    loop would (the recurrence row by row, a pixel frozen at its first
    transmittance at or below ``transmittance_eps``, colour as a left fold).
    Returns how many leading Gaussians the reference would process before
    its all-saturated exit, and per Gaussian the pixels it contributed to.
    Off the engine path: the benchmark's kernel canary times it.
    """
    num, pixels = alphas.shape
    # trans_seq[i] is the transmittance before Gaussian i (ignoring the freeze).
    trans_seq = np.empty((num + 1, pixels), dtype=tile_trans.dtype)
    trans_seq[0] = tile_trans
    np.subtract(1.0, alphas, out=trans_seq[1:])
    seq_rows = list(trans_seq)
    for before, after in zip(seq_rows, seq_rows[1:]):
        after *= before

    unsaturated = trans_seq > transmittance_eps
    first_sat = np.add.reduce(unsaturated, axis=0, dtype=np.intp)
    num_processed = int(min(num, first_sat.max())) if pixels else num

    active = unsaturated[:num_processed] & (alphas[:num_processed] > 0.0)
    weights = trans_seq[:num_processed] * alphas[:num_processed]
    weights *= active
    # A left fold seeded with the tile colour: numpy sums an outer axis in
    # order (an inner one pairwise, which is not the reference's order).
    contributions = np.empty((num_processed + 1, 3, pixels), dtype=tile_color.dtype)
    contributions[0] = tile_color.T
    np.multiply(weights[:, None, :], colors[:num_processed, :, None], out=contributions[1:])
    tile_color[:] = np.add.reduce(contributions, axis=0).T

    tile_trans[:] = trans_seq[np.minimum(first_sat, num_processed), np.arange(pixels)]
    counts = np.add.reduce(active, axis=1, dtype=np.intp)
    return num_processed, counts


# ----------------------------------------------------------------------
# Gaussian-wise (GCC dataflow) kernels
# ----------------------------------------------------------------------
#: ``(Gaussian, block)`` pairs blended per Stage IV chunk of whole blocks:
#: bounds the ``(pairs, bs * bs)`` temporaries (~1 MB each at 8x8 blocks)
#: when a group of screen-filling Gaussians has tens of thousands of blocks.
GROUP_PAIR_CHUNK = 2048

#: Candidate pairs per footprint-bits chunk of :func:`identify_group_blocks`
#: (a ``(bs, bs, pairs)`` form, 0.5 MB at 8x8 blocks).  Peak of one quick
#: Gaussian-wise frame, train / drjohnson: 1.92 / 2.17 MB at 1024 pairs;
#: 2.14 / 3.49 MB at 2048, over the memory guard of its tests.
FOOTPRINT_CHUNK = 1024

#: Depth groups whose Algorithm 1 traversal runs as one batch: it does not
#: depend on the render state, so one call serves consecutive groups.  When
#: cross-stage termination lands inside a window, its later groups were
#: projected and traversed for nothing: at most ``GROUP_WINDOW - 1`` groups'
#: Stage II and boundary work, host time only.  Sweep on the default
#: palace / train / drjohnson ablation frames (median of 7 interleaved
#: rounds, 2-CPU x86 box): windows of 3, 4 and 6 ran within noise of each
#: other and ~1.15x faster per frame than 1; 8 lost on drjohnson, where CC
#: skips 49 of 75 groups, and one window of every group ran 1.7x slower
#: there.  Re-swept with window-wide Stage II and pixel-major footprint
#: bits: 2 ran 0.91x of 4; 6 and 8 ran 1.01-1.06x, within noise and not
#: faster on drjohnson, so 4 stays.
GROUP_WINDOW = 4


class BlockFrame:
    """Block-major frame state of both engines' Stage IV.

    The image is padded to whole blocks and stored one block per row, so a
    set of distinct blocks is gathered and scattered with a plain row index
    and no validity mask.  Padding pixels start at transmittance 0: they are
    never active, never counted and cannot hold a block's maximum above the
    saturation threshold, so they are invisible to every result.
    """

    def __init__(self, width: int, height: int, block_size: int, dtype=np.float64) -> None:
        self.width, self.height, self.block_size = width, height, block_size
        self.blocks_x, self.blocks_y = -(-width // block_size), -(-height // block_size)
        in_x = (np.arange(self.blocks_x * block_size) < width).reshape(-1, block_size)
        in_y = (np.arange(self.blocks_y * block_size) < height).reshape(-1, block_size)
        valid = in_y[:, None, :, None] & in_x[None, :, None, :]
        valid = valid.reshape(self.blocks_x * self.blocks_y, block_size * block_size)
        #: ``(num_blocks, bs * bs)`` transmittance, ``(num_blocks, 3, bs * bs)``
        #: colour: one plane per channel inside each block.
        self.transmittance = valid.astype(dtype)
        self.color = np.zeros((len(valid), 3, valid.shape[1]), dtype=dtype)
        #: The T_mask: every image pixel of the block has terminated.
        self.saturated = np.zeros(len(valid), dtype=bool)
        #: Image pixels per block (fewer on partial edge blocks).
        self.valid_pixels = np.count_nonzero(valid, axis=1)

    def unblocked(self, blocked: np.ndarray) -> np.ndarray:
        """Image-layout ``(H, W, ...)`` form of a ``(num_blocks, bs * bs, ...)`` array."""
        bs, tail = self.block_size, blocked.shape[2:]
        grid = blocked.reshape((self.blocks_y, self.blocks_x, bs, bs) + tail).swapaxes(1, 2)
        grid = grid.reshape((self.blocks_y * bs, self.blocks_x * bs) + tail)
        return grid[: self.height, : self.width]


def _block_maha(
    frame: BlockFrame, means2d, conics, block_x, block_y, offsets, pixel_major: bool = False
) -> np.ndarray:
    """Mahalanobis^2 of ``n`` (Gaussian, block) pairs at the block pixels
    ``offsets x offsets``, ``(n, len(offsets), len(offsets))``, or with
    ``pixel_major`` ``(len(offsets), len(offsets), n)``: the pair axis
    innermost, so every elementwise loop over the grid is ``n`` long.

    ``means2d``/``conics`` hold one row per pair; the form is
    :func:`_maha_grid`'s, in their dtype.  On a partial edge block, pixels
    off the image repeat its last column (row): an "any" over them is the
    reference's over the image pixels.
    """
    per_pair = (None, slice(None)) if pixel_major else (slice(None), None)
    pixels = offsets[per_pair[::-1]]
    bs, dtype = frame.block_size, means2d.dtype
    dx = np.minimum(block_x[per_pair] * bs + pixels, frame.width - 1).astype(dtype)
    dy = np.minimum(block_y[per_pair] * bs + pixels, frame.height - 1).astype(dtype)
    dx -= means2d[:, 0][per_pair]
    dy -= means2d[:, 1][per_pair]
    if pixel_major:
        return _maha_grid(conics, dx[None], dy[:, None])
    return _maha_grid(conics[:, None, None], dx[:, None, :], dy[:, :, None])


def _block_range(centre, half, num_blocks: int, block_size: int):
    """Inclusive range of blocks meeting ``centre +- half`` on a grid of
    ``num_blocks`` (empty when ``hi < lo``)."""
    lo = np.maximum(np.floor_divide(centre - half, block_size), 0).astype(np.intp)
    hi = np.minimum(np.floor_divide(centre + half, block_size), num_blocks - 1).astype(np.intp)
    return lo, hi


def _locate(pair, ends, count, rect_w):
    """``(gaussian, local_y, local_x)`` of flat pair indices: pairs are laid
    out Gaussian-major (``g`` owns ``[ends[g] - count[g], ends[g])``) and
    row-major inside each block rectangle of width ``rect_w[g]``."""
    gaussian = np.searchsorted(ends, pair, side="right")
    local_y, local_x = np.divmod(pair - (ends - count)[gaussian], rect_w[gaussian])
    return gaussian, local_y, local_x


def identify_group_blocks(
    frame: BlockFrame,
    means2d: np.ndarray,
    conics: np.ndarray,
    cov2d: np.ndarray,
    opacities: np.ndarray,
    alpha_min: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 for every Gaussian of a depth group at once.

    Returns ``(gaussian, block, visited)``: the influence pairs —
    ``gaussian`` indexes the input rows and is non-decreasing, ``block`` is
    the row-major block id — and, per input row, how many blocks the
    traversal visits: what :func:`~repro.render.reference.identify_influence_blocks`
    finds without a saturation mask (the mask never steers the traversal, it
    only relabels influence blocks as skipped), as a set — nothing observes
    the breadth-first order.

    Candidates are the blocks meeting the bounding box of the chi^2 ellipse
    (plus the clamped start block); outside it every pixel fails the alpha
    condition.  Each candidate's per-pixel condition is reduced to five bits
    — any pixel inside, and any inside on its right / left / bottom / top
    pixel column or row — in chunks of :data:`FOOTPRINT_CHUNK` pairs, each a
    ``(bs, bs, pairs)`` form reduced by ``np.fmin`` to its least value per
    column, block and edge row.  The traversal is a reachability fixpoint
    over the bits: a block is *visited* when it is the start or the in-grid
    neighbour of an *enqueued* block across an edge whose bit is set, and
    *enqueued* when visited with a pixel inside.
    """
    num, bs = means2d.shape[0], frame.block_size
    mx, my = means2d[:, 0], means2d[:, 1]
    start_x = np.clip(np.floor(mx), 0, frame.width - 1).astype(np.intp) // bs
    start_y = np.clip(np.floor(my), 0, frame.height - 1).astype(np.intp) // bs
    # reference._alpha_chi2, vectorized (bit-equal; pinned by a test).
    present = ~(opacities < alpha_min)
    chi2 = np.full(num, -1.0)
    chi2[present] = 2.0 * np.log(opacities[present] / alpha_min)
    # Largest |dx| (|dy|) on the ellipse is sqrt(chi2 * Sigma_xx (Sigma_yy));
    # the hair of slack keeps a pixel the *computed* form puts inside from
    # landing outside the box through rounding.
    reach = np.maximum(chi2, 0.0) * (1.0 + 1.0e-6)
    half_x = np.sqrt(reach * np.maximum(cov2d[:, 0, 0], 0.0))
    half_y = np.sqrt(reach * np.maximum(cov2d[:, 1, 1], 0.0))
    bx_lo, bx_hi = _block_range(mx, half_x, frame.blocks_x, bs)
    by_lo, by_hi = _block_range(my, half_y, frame.blocks_y, bs)
    bx_lo, bx_hi = np.minimum(bx_lo, start_x), np.maximum(bx_hi, start_x)
    by_lo, by_hi = np.minimum(by_lo, start_y), np.maximum(by_hi, start_y)
    rect_w, rect_h = bx_hi - bx_lo + 1, by_hi - by_lo + 1
    count = rect_w * rect_h * present
    ends = np.cumsum(count)
    total = int(count.sum())

    # (1) Footprint bits of every candidate — any pixel inside, and any on
    # its right / left / bottom / top pixel column or row — from the form
    # laid out pixel-major.  ``fmin`` skips NaN and an all-NaN line stays
    # NaN, so "least <= chi^2" is "any pixel <= chi^2" for every input.
    bits = np.empty((5, total), dtype=bool)
    offsets = np.arange(bs)
    for lo in range(0, total, FOOTPRINT_CHUNK):
        hi = min(lo + FOOTPRINT_CHUNK, total)
        gaussian, local_y, local_x = _locate(np.arange(lo, hi), ends, count, rect_w)
        block_x, block_y = bx_lo[gaussian] + local_x, by_lo[gaussian] + local_y
        maha = _block_maha(
            frame, means2d[gaussian], conics[gaussian], block_x, block_y, offsets, pixel_major=True
        )
        column = np.fmin.reduce(maha, axis=0)
        edge_rows = np.fmin.reduce(maha[[-1, 0]], axis=1)
        least = np.concatenate([np.fmin.reduce(column, axis=0)[None], column[[-1, 0]], edge_rows])
        np.less_equal(least, chi2[gaussian], out=bits[:, lo:hi])
    block_any = bits[0]

    # (2) Reachability fixpoint.  Within one direction distinct frontier
    # blocks have distinct neighbours, and ``visited`` is updated between
    # directions, so a frontier never holds a block twice.
    visited = np.zeros(total, dtype=bool)
    enqueued = np.zeros(total, dtype=bool)
    frontier = (ends - count + (start_y - by_lo) * rect_w + start_x - bx_lo)[present]
    visited[frontier] = True
    frontier = frontier[block_any[frontier]]
    while frontier.size:
        enqueued[frontier] = True
        gaussian, local_y, local_x = _locate(frontier, ends, count, rect_w)
        width = rect_w[gaussian]
        reached = []
        for edge, step, in_rect in (
            (bits[1], 1, local_x + 1 < width),
            (bits[2], -1, local_x > 0),
            (bits[3], width, local_y + 1 < rect_h[gaussian]),
            (bits[4], -width, local_y > 0),
        ):
            neighbour = (frontier + step)[edge[frontier] & in_rect]
            neighbour = neighbour[~visited[neighbour]]
            visited[neighbour] = True
            reached.append(neighbour[block_any[neighbour]])
        frontier = np.concatenate(reached)

    seen = np.zeros(num, dtype=np.intp)
    seen[count > 0] = np.add.reduceat(visited, (ends - count)[count > 0], dtype=np.intp)
    pair = np.flatnonzero(enqueued)
    gaussian, local_y, local_x = _locate(pair, ends, count, rect_w)
    block_x, block_y = bx_lo[gaussian] + local_x, by_lo[gaussian] + local_y
    # A probe from an enqueued block that leaves the rectangle but stays on
    # the grid lands on a block with no pixel inside: visited, never
    # enqueued, and reachable from that one block only (it has no other
    # neighbour inside the rectangle), so each such probe is one more visit.
    for edge, leaves_rect, in_grid in (
        (bits[1], local_x + 1 == rect_w[gaussian], block_x + 1 < frame.blocks_x),
        (bits[2], local_x == 0, block_x > 0),
        (bits[3], local_y + 1 == rect_h[gaussian], block_y + 1 < frame.blocks_y),
        (bits[4], local_y == 0, block_y > 0),
    ):
        seen += np.bincount(gaussian[edge[pair] & leaves_rect & in_grid], minlength=num)
    return gaussian, block_y * frame.blocks_x + block_x, seen


def radius_box_blocks(
    frame: BlockFrame, means2d: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every block under each Gaussian's bounding-radius box (the ``"aabb"``
    boundary ablation), as ``(gaussian, block)`` pairs like
    :func:`identify_group_blocks`'s."""
    bx_lo, bx_hi = _block_range(means2d[:, 0], radii, frame.blocks_x, frame.block_size)
    by_lo, by_hi = _block_range(means2d[:, 1], radii, frame.blocks_y, frame.block_size)
    rect_w = np.maximum(bx_hi - bx_lo + 1, 0)
    count = rect_w * np.maximum(by_hi - by_lo + 1, 0)
    gaussian, local_y, local_x = _locate(np.arange(count.sum()), np.cumsum(count), count, rect_w)
    return gaussian, (by_lo[gaussian] + local_y) * frame.blocks_x + bx_lo[gaussian] + local_x


def rank_layers(run: np.ndarray):
    """Layer-major layout of block runs ordered longest first: layer ``r``
    holds the ``r``-th pair of each of the first ``sizes[r]`` blocks.
    Returns ``(sizes, layer_start, rank, local)``: per layer its size and
    start, per pair its rank in its block's run and its block's position."""
    sizes = run.size - np.cumsum(np.bincount(run))[:-1]
    layer_start = np.cumsum(sizes) - sizes
    rank = np.repeat(np.arange(sizes.size), sizes)
    return sizes, layer_start, rank, np.arange(rank.size) - layer_start[rank]


def layer_chunks(run: np.ndarray, chunk: int):
    """``(start, stop)`` slices of whole blocks (runs ordered longest first),
    each of at most ``chunk`` pairs unless one block alone holds more."""
    ends = np.cumsum(run)
    start = 0
    while start < run.size:
        limit = ends[start] - run[start] + chunk
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        yield start, stop
        start = stop


def blend_layers(
    frame: BlockFrame,
    blk: np.ndarray,
    run: np.ndarray,
    layers,
    rows: np.ndarray,
    means2d: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
    colors: np.ndarray,
    config,
    footprint: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stage IV of whole block runs in rank layers, in place on ``frame``.

    ``blk`` lists distinct blocks ordered by run length ``run``, longest
    first, ``layers`` is :func:`rank_layers` of ``run`` and ``rows`` indexes
    the per-Gaussian arrays for each pair in that layer-major order (depth
    order within a block); ``config`` is the
    :class:`~repro.render.common.RenderConfig`.  The alphas and the frame
    state are gathered once; the layer loop only does contiguous-slice work.
    The recurrence runs unfrozen: each pixel's sequence is non-increasing,
    so its active entries are a prefix and its frozen transmittance is its
    first entry at or below ``eps``.  Each pixel receives the reference's
    operations in the reference's order, in the frame's dtype; an inactive
    pixel adds ``+0.0`` to accumulators that are never ``-0.0``.

    Returns, per pair, the pixels it contributed to; per block, the number
    of leading pairs after which all its pixels had terminated (above
    ``run`` when they never do, 0 when they already had); and with
    ``footprint``, per pair, whether a pixel of its block is within GSCore's
    3-sigma subtile test (``maha <= 9``).
    """
    bs, eps = frame.block_size, config.transmittance_eps
    sizes, layer_start, rank, local = layers
    m, n = blk.size, rows.size
    # Entry e of block j's transmittance sequence (entry 0 the state at
    # entry, e the state after its pair of rank e - 1) is row
    # entry_start[e] + j of ``seq``.
    entry_start = np.concatenate([[0], m + layer_start])
    alphas = entry_maha(frame, blk[local], rows, means2d, conics)
    inside = np.minimum.reduce(alphas, axis=1) <= 9.0 if footprint else None
    alpha_from_maha(alphas, opacities[rows, None], config.alpha_min, config.alpha_max, out=alphas)
    seq = np.empty((m + n, bs * bs), dtype=alphas.dtype)
    seq[:m] = frame.transmittance[blk]
    np.subtract(1.0, alphas, out=seq[m:])
    bounds = list(zip(entry_start[:-1].tolist(), entry_start[1:].tolist(), sizes.tolist()))
    for before, after, size in bounds:
        seq[after : after + size] *= seq[before : before + size]

    # A pair is active on a pixel where it enters unsaturated with a
    # non-zero alpha: exactly where its weight T * alpha (>= eps / 255) is
    # non-zero once masked by the entry test.
    weights = seq[entry_start[rank] + local]
    active = weights > eps
    weights *= alphas
    weights *= active
    unsaturated = seq > eps
    crossed = unsaturated[:m].astype(np.intp)
    color = frame.color[blk]
    tint = colors[rows][:, :, None]
    for (_, after, size), lo in zip(bounds, layer_start.tolist()):
        color[:size] += weights[lo : lo + size, None] * tint[lo : lo + size]
        crossed[:size] += unsaturated[after : after + size]

    # Entry ``crossed`` is each pixel's first at or below eps (the frozen
    # value), or one past its last when it never crosses.
    entry = np.minimum(crossed, run[:, None])
    frame.transmittance[blk] = seq[entry_start[entry] + np.arange(m)[:, None], np.arange(bs * bs)]
    frame.color[blk] = color
    return np.count_nonzero(weights, axis=1), crossed.max(axis=1), inside


def entry_maha(frame: BlockFrame, blk, rows, means2d, conics) -> np.ndarray:
    """Mahalanobis^2 of ``(block, row)`` entries over their block's pixels,
    ``(entries, bs * bs)``, in the rows' dtype (:func:`_block_maha`)."""
    block_y, block_x = np.divmod(blk, frame.blocks_x)
    span = np.arange(frame.block_size)
    maha = _block_maha(frame, means2d[rows], conics[rows], block_x, block_y, span)
    return maha.reshape(rows.size, -1)


def blend_group_layers(
    frame: BlockFrame,
    gaussian: np.ndarray,
    block: np.ndarray,
    means2d: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
    colors: np.ndarray,
    config,
    use_tmask: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Stage IV for the influence pairs of one depth group, in rank layers.

    ``gaussian`` (non-decreasing depth positions) and ``block`` list the
    pairs; the per-Gaussian arrays are in depth order; ``config`` is the
    :class:`~repro.render.common.RenderConfig`.  A block's pixels are touched
    only by the pairs on that block, and its T_mask bit depends only on its
    own pixels, so the group factorises per block: chunks of whole blocks,
    longest run first, go through :func:`blend_layers`.  With ``use_tmask``
    the pairs of a block past its saturation point are skipped, exactly when
    the reference skips them (its T_mask bit is set exactly when all its
    pixels have terminated); such a pair changes only the counters.

    Returns, per Gaussian, how many of its pairs were blended rather than
    skipped and how many pixels they contributed to, and the total number of
    alpha evaluations performed.
    """
    num = means2d.shape[0]
    # Stable sort on the block keeps depth order inside each block's run.
    by_block = np.argsort(block, kind="stable")
    ids, runs = np.unique(block, return_counts=True)
    firsts = np.cumsum(runs) - runs
    longest = np.argsort(-runs, kind="stable")
    ids, runs, firsts = ids[longest], runs[longest], firsts[longest]
    evaluated = np.zeros(num, dtype=np.intp)
    pixels = np.zeros(num, dtype=np.intp)
    alpha_evaluations = 0
    for start, stop in layer_chunks(runs, GROUP_PAIR_CHUNK):
        blk, run = ids[start:stop], runs[start:stop]
        layers = rank_layers(run)
        rank, local = layers[2:]
        rows = gaussian[by_block[firsts[start:stop][local] + rank]]
        counts, saturates_at, _ = blend_layers(
            frame, blk, run, layers, rows, means2d, conics, opacities, colors, config
        )
        frame.saturated[blk] |= saturates_at <= run
        blended = np.minimum(saturates_at, run) if use_tmask else run
        evaluated += np.bincount(rows[rank < blended[local]], minlength=num)
        pixels += np.bincount(rows, weights=counts, minlength=num).astype(np.intp)
        alpha_evaluations += int(frame.valid_pixels[blk] @ blended)
    return evaluated, pixels, alpha_evaluations

