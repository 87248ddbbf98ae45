"""Batched rasterisation kernels of the two rendering engines.

The reference renderers in :mod:`repro.render.reference` are deliberate
per-Gaussian/per-block Python loops that mirror the hardware pipelines one
operation at a time.  This module provides the batched equivalents
:mod:`repro.render.tile_raster` and :mod:`repro.render.gaussian_raster`
render with (the reference imports nothing from here):

* :func:`tile_cull_bounds` / :func:`live_tile_rows` — the exact dead-pair
  cull: which of a tile's depth-ordered Gaussians can change a pixel or a
  counter at all, decided from a conservative footprint box.
* :func:`batched_tile_alpha` — alpha/Mahalanobis evaluation of a whole chunk
  of depth-ordered Gaussians over a full tile at once.
* :func:`sequential_blend` — front-to-back blending of a depth-ordered chunk
  with the exact freeze-after-saturation semantics of
  :func:`repro.render.blending.blend_pixels`, implemented as a running
  product over the Gaussian axis.
* :func:`subtile_evaluation_count` — the GSCore OBB subtile-skip statistic
  computed for a chunk of Gaussians in one reduction.
* :class:`BlockFrame` / :func:`identify_group_blocks` /
  :func:`blend_group_layers` — the Gaussian-wise engine: footprint bits of
  every ``(Gaussian, candidate block)`` pair of a window of
  :data:`GROUP_WINDOW` depth groups in one pass, Algorithm 1's traversal as
  a reachability fixpoint over them, and Stage IV of one group blended on a
  block-major frame in rank layers that are contiguous prefixes of its
  blocks (longest run first).

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

#: Depth-ordered Gaussians evaluated per tile chunk: the first chunk takes
#: the first entry, the next the second, ... and the last entry repeats.
#: Small first chunks keep a tile that saturates early from paying for rows
#: its early exit never consumes; the cap bounds the chunk temporaries.
TILE_CHUNK_SCHEDULE: tuple[int, ...] = (64, 128)


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
    """Slice of a tile-id-sorted array whose ids lie in ``[lo, hi)``.

    ``tile_ids`` must be sorted ascending (the (tile, depth) radix sort of
    the standard pipeline guarantees this for the pair stream, and
    ``np.unique`` for the occupied-tile list), so a shard's pairs are one
    contiguous slice recovered by binary search — the tile-range entry
    point of the kernels layer.
    """
    if lo > hi:
        raise ValueError(f"empty-ordered tile interval: [{lo}, {hi})")
    start = int(np.searchsorted(tile_ids, lo, side="left"))
    stop = int(np.searchsorted(tile_ids, hi, side="left"))
    return slice(start, stop)


def tile_cull_bounds(
    means2d: np.ndarray,
    conics: np.ndarray,
    opacities: np.ndarray,
    alpha_min: float,
    width: int,
    height: int,
) -> np.ndarray:
    """Conservative screen-space footprint box of every Gaussian, ``(M, 4)``.

    Row ``i`` is ``(x_lo, x_hi, y_lo, y_hi)``: the axis-aligned bounding box
    of the ellipse ``maha <= max(9, 2 ln(opacity / alpha_min))`` of the
    quadratic form the kernels evaluate.  Outside that ellipse a Gaussian's
    alpha is below ``alpha_min`` (zeroed, so transmittance and colour are
    untouched) *and* its Mahalanobis^2 exceeds the 3-sigma subtile test, so
    a ``(Gaussian, tile)`` pair whose tile rectangle misses the box changes
    no pixel and no counter except the processed-pair position, which
    :func:`live_tile_rows`' caller restores (see ``_render_tile_vectorized``).

    The box is computed in float64 from the arrays the kernels will read
    (the float32 views included), and the ellipse level is inflated by a
    bound on the rounding error of evaluating the form in that dtype
    anywhere on the ``width x height`` image, so "outside the box" holds for
    the *computed* values, not only the exact ones.  A degenerate conic
    yields NaN/inf bounds, which never compare as a miss.
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
        level = level * (1.0 + 1.0e-6) + 16.0 * eps * magnitude
        det = a * c - b * b
        half_x = np.sqrt(level * c / det)
        half_y = np.sqrt(level * a / det)
    return np.stack([mx - half_x, mx + half_x, my - half_y, my + half_y], axis=1)


def live_tile_rows(
    bounds: np.ndarray, rows: np.ndarray, x0: int, y0: int, x1: int, y1: int
) -> np.ndarray:
    """Positions in ``rows`` whose footprint box meets the pixel tile.

    ``bounds`` is :func:`tile_cull_bounds`' array, ``rows`` indexes into it
    and the tile covers pixel centres ``[x0, x1) x [y0, y1)``.  Every
    position *not* returned is a dead pair: all-zero alpha, no 3-sigma
    subtile.
    """
    box = bounds[rows]
    dead = (
        (box[:, 1] < x0) | (box[:, 0] > x1 - 1) | (box[:, 3] < y0) | (box[:, 2] > y1 - 1)
    )
    return np.flatnonzero(~dead)


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
    """Alpha and Mahalanobis^2 of ``K`` Gaussians over one pixel tile.

    Returns ``(alpha, maha)`` of shape ``(K, y1 - y0, x1 - x0)``.  The
    elementwise operations match :func:`repro.render.blending.compute_alpha`
    exactly, so the values are bitwise-identical to the reference loop: the
    form is :func:`_maha_grid`'s and the clamp and threshold are
    :func:`~repro.render.blending.alpha_from_maha` itself, run in place.
    The pixel grid inherits the dtype of ``means2d``, keeping the float32
    engine mode in single precision without a separate kernel.
    """
    dtype = means2d.dtype
    dx = np.arange(x0, x1, dtype=dtype) - means2d[:, 0, None]
    dy = np.arange(y0, y1, dtype=dtype) - means2d[:, 1, None]
    maha = _maha_grid(conics, dx, dy)
    alpha = alpha_from_maha(
        maha,
        opacities[:, None, None],
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        out=np.empty_like(maha),
    )
    return alpha, maha


def _maha_grid(conics: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Mahalanobis^2 of ``n`` Gaussians over per-row pixel grids, ``(n, Y, X)``.

    ``dx`` ``(n, X)`` and ``dy`` ``(n, Y)`` are each row's pixel offsets from
    its mean along one axis.  The values are
    :func:`~repro.gaussians.covariance.mahalanobis_sq`'s bit for bit: the
    three terms of the quadratic form are built per axis — ``a dx dx`` and
    ``2b dx`` only depend on the column, ``c dy dy`` on the row — and summed
    in the reference's association into one output array in place (the
    first addition commuted, which IEEE addition allows exactly), so the
    grid costs one full-size array and no full-size temporary.  This is the
    one place the form is restated.
    """
    maha = np.empty((dx.shape[0], dy.shape[1], dx.shape[1]), dtype=dx.dtype)
    np.multiply(((2.0 * conics[:, 1, None]) * dx)[:, None, :], dy[:, :, None], out=maha)
    maha += ((conics[:, 0, None] * dx) * dx)[:, None, :]
    maha += ((conics[:, 2, None] * dy) * dy)[:, :, None]
    return maha


def sequential_blend(
    tile_color: np.ndarray,
    tile_trans: np.ndarray,
    alphas: np.ndarray,
    colors: np.ndarray,
    transmittance_eps: float,
) -> tuple[int, np.ndarray]:
    """Blend a depth-ordered chunk of Gaussians into a tile, in place.

    Parameters
    ----------
    tile_color:
        ``(P, 3)`` accumulated colour (modified in place).
    tile_trans:
        ``(P,)`` accumulated transmittance (modified in place).
    alphas:
        ``(K, P)`` per-Gaussian, per-pixel alpha, front-to-back order.
    colors:
        ``(K, 3)`` per-Gaussian RGB.

    Returns
    -------
    ``(num_processed, counts)`` where ``num_processed`` is how many leading
    Gaussians of the chunk the reference loop would have processed before its
    all-pixels-saturated early exit, and ``counts[i]`` is the number of
    pixels Gaussian ``i`` contributed to (only the first ``num_processed``
    entries are meaningful).

    The recurrence ``T <- T * (1 - alpha)`` is evaluated row by row with the
    initial transmittance as the first factor, which is the same
    left-to-right association as the reference loop; a pixel whose
    transmittance crosses ``transmittance_eps`` keeps its crossing value
    (the reference freezes saturated pixels), which is recovered exactly
    because the sequence is non-increasing.  Colour is a left fold over the
    Gaussians seeded with ``tile_color``: the reference loop's additions in
    its order, so the result is bitwise the reference's whatever the chunks.
    """
    num, pixels = alphas.shape
    # trans_seq[i] is the transmittance before Gaussian i (ignoring the
    # freeze).  One in-place row product per Gaussian: each is a full-width
    # vector operation, where an axis-0 ``cumprod`` walks the array column
    # by column and needs a second array.
    trans_seq = np.empty((num + 1, pixels), dtype=tile_trans.dtype)
    trans_seq[0] = tile_trans
    np.subtract(1.0, alphas, out=trans_seq[1:])
    seq_rows = list(trans_seq)
    for before, after in zip(seq_rows, seq_rows[1:]):
        after *= before

    # Each pixel's sequence is non-increasing, so its unsaturated entries
    # are a prefix: their count is the first crossing below eps, which is
    # both the frozen value and the point after which nothing is active.
    unsaturated = trans_seq > transmittance_eps
    first_sat = np.add.reduce(unsaturated, axis=0, dtype=np.intp)
    num_processed = int(min(num, first_sat.max())) if pixels else num

    active = unsaturated[:num_processed] & (alphas[:num_processed] > 0.0)
    weights = trans_seq[:num_processed] * alphas[:num_processed]
    weights *= active
    # Left fold seeded with the tile colour, in (3, P) channel planes: row 0
    # is the colour so far, row i + 1 Gaussian i's contribution (+0 where
    # inactive).  The pixels, not 3 channels, are numpy's inner loop; the
    # reduced axis must stay outer, as numpy sums an inner one pairwise (a
    # (3, K + 1, P) layout at P = 1), which is not the reference's order.
    contributions = np.empty((num_processed + 1, 3, pixels), dtype=tile_color.dtype)
    contributions[0] = tile_color.T
    np.multiply(weights[:, None, :], colors[:num_processed, :, None], out=contributions[1:])
    tile_color[:] = np.add.reduce(contributions, axis=0).T

    tile_trans[:] = trans_seq[np.minimum(first_sat, num_processed), np.arange(pixels)]
    counts = np.add.reduce(active, axis=1, dtype=np.intp)
    return num_processed, counts


def _any_over_axis1(block: np.ndarray) -> np.ndarray:
    """``block.any(axis=1)`` of a boolean array by repeated halving.

    Each step ORs the leading and trailing halves (overlapping in the
    middle element when the length is odd, which an OR does not mind), so
    the work runs as a few wide vector operations instead of a reduction
    with a short inner loop.
    """
    length = block.shape[1]
    while length > 1:
        half = (length + 1) // 2
        block = block[:, :half] | block[:, length - half : length]
        length = half
    return block[:, 0]


def subtile_evaluation_count(maha: np.ndarray, subtile: int) -> int:
    """GSCore subtile-skip alpha-evaluation count for a chunk of Gaussians.

    Mirrors the reference double loop: a subtile is evaluated when the
    minimum Mahalanobis^2 inside it is within the 3-sigma footprint (<= 9)
    — equivalently when any of its pixels is — and then contributes its
    full pixel count (edge subtiles of a partial tile are smaller).
    """
    num, th, tw = maha.shape
    if num == 0:
        return 0
    inside = maha <= 9.0
    evaluated = 0
    for sy in range(0, th, subtile):
        band = _any_over_axis1(inside[:, sy : sy + subtile])
        band_height = min(subtile, th - sy)
        for sx in range(0, tw, subtile):
            hits = int(np.count_nonzero(_any_over_axis1(band[:, sx : sx + subtile])))
            evaluated += hits * band_height * min(subtile, tw - sx)
    return evaluated


# ----------------------------------------------------------------------
# Gaussian-wise (GCC dataflow) kernels
# ----------------------------------------------------------------------
#: ``(Gaussian, block)`` pairs evaluated per chunk: bounds the
#: ``(pairs, bs, bs)`` temporaries (~1 MB each at 8x8 blocks) when a group
#: of screen-filling Gaussians has tens of thousands of candidate blocks.
GROUP_PAIR_CHUNK = 2048

#: Depth groups whose Algorithm 1 traversal runs as one batch: it does not
#: depend on the render state, so one call serves consecutive groups.  When
#: cross-stage termination lands inside a window, its later groups were
#: projected and traversed for nothing: at most ``GROUP_WINDOW - 1`` groups'
#: Stage II and boundary work, host time only.  Sweep on the default
#: palace / train / drjohnson ablation frames (median of 7 interleaved
#: rounds, 2-CPU x86 box): windows of 3, 4 and 6 ran within noise of each
#: other and ~1.15x faster per frame than 1; 8 lost on drjohnson, where CC
#: skips 49 of 75 groups, and one window of every group ran 1.7x slower
#: there.
GROUP_WINDOW = 4


class BlockFrame:
    """Block-major frame state of the Gaussian-wise engine.

    The image is padded to whole blocks and stored one block per row, so a
    set of distinct blocks is gathered and scattered with a plain row index
    and no validity mask.  Padding pixels start at transmittance 0: they are
    never active, never counted and cannot hold a block's maximum above the
    saturation threshold, so they are invisible to every result.
    """

    def __init__(self, width: int, height: int, block_size: int) -> None:
        self.width, self.height, self.block_size = width, height, block_size
        self.blocks_x, self.blocks_y = -(-width // block_size), -(-height // block_size)
        in_x = (np.arange(self.blocks_x * block_size) < width).reshape(-1, block_size)
        in_y = (np.arange(self.blocks_y * block_size) < height).reshape(-1, block_size)
        valid = in_y[:, None, :, None] & in_x[None, :, None, :]
        valid = valid.reshape(self.blocks_x * self.blocks_y, block_size * block_size)
        #: ``(num_blocks, bs * bs)`` transmittance, ``(num_blocks, 3, bs * bs)``
        #: colour: one plane per channel inside each block.
        self.transmittance = valid.astype(np.float64)
        self.color = np.zeros((len(valid), 3, valid.shape[1]))
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


def _block_maha(frame: BlockFrame, means2d, conics, block_x, block_y, offsets) -> np.ndarray:
    """Mahalanobis^2 of ``n`` (Gaussian, block) pairs at the block pixels
    ``offsets x offsets``, ``(n, len(offsets), len(offsets))``.

    ``means2d``/``conics`` hold one row per pair; the form is
    :func:`_maha_grid`'s.  On a partial edge block, pixels off the image
    repeat its last column (row): an "any" over them is the reference's over
    the image pixels.
    """
    px = np.minimum(block_x[:, None] * frame.block_size + offsets, frame.width - 1)
    py = np.minimum(block_y[:, None] * frame.block_size + offsets, frame.height - 1)
    return _maha_grid(conics, px - means2d[:, 0, None], py - means2d[:, 1, None])


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
    pixel column or row — and the traversal is a reachability fixpoint over
    them: a block is *visited* when it is the start or the in-grid neighbour
    of an *enqueued* block across an edge whose bit is set, and *enqueued*
    when visited with a pixel inside.
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

    # (1) Footprint bits of every candidate: any / right / left / down / up.
    # A block with its four corner pixels inside has all five (the corners
    # lie on the edges); the others are evaluated pixel by pixel.
    bits = np.empty((5, total), dtype=bool)
    offsets = np.arange(bs)
    for lo in range(0, total, GROUP_PAIR_CHUNK):
        pair = np.arange(lo, min(lo + GROUP_PAIR_CHUNK, total))
        gaussian, local_y, local_x = _locate(pair, ends, count, rect_w)
        block_x, block_y = bx_lo[gaussian] + local_x, by_lo[gaussian] + local_y
        mean, conic, limit = means2d[gaussian], conics[gaussian], chi2[gaussian, None, None]
        corners = _block_maha(frame, mean, conic, block_x, block_y, offsets[[0, -1]]) <= limit
        bits[:, pair] = full = corners.all(axis=(1, 2))
        pair, rest = pair[~full], np.flatnonzero(~full)
        inside = _block_maha(frame, mean[rest], conic[rest], block_x[rest], block_y[rest], offsets)
        inside = inside <= limit[rest]
        in_col = _any_over_axis1(inside)
        bits[0, pair] = _any_over_axis1(in_col)
        bits[1, pair], bits[2, pair] = in_col[:, -1], in_col[:, 0]
        bits[3, pair] = _any_over_axis1(inside[:, -1])
        bits[4, pair] = _any_over_axis1(inside[:, 0])
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
    own pixels, so the group factorises per block: pairs are ranked by depth
    within their block, and blocks are ordered by run length (their number
    of pairs), longest first, so that rank layer ``r`` is exactly the first
    ``n_r`` blocks.  Chunks of whole blocks are therefore independent; per
    chunk the alphas and the frame state are gathered once and the layer
    loop only does contiguous-slice work: the transmittance recurrence, the
    colour fold and a per-pixel count of unsaturated entries.

    As in :func:`sequential_blend`, the recurrence runs unfrozen: each
    pixel's sequence is non-increasing, so its active entries are a prefix,
    its frozen transmittance is its first entry at or below ``eps`` and a
    block saturates at the pair where its last pixel crosses.  Each pixel
    receives the reference's operations in the reference's order; an
    inactive pixel adds ``+0.0`` to accumulators that are never ``-0.0``.
    With ``use_tmask`` the pairs of a block past its saturation point are
    skipped, exactly when the reference skips them; such a pair changes no
    pixel, only the counters.  This relies on the frame's invariant that a
    block's T_mask bit is set exactly when all its pixels have terminated.

    Returns, per Gaussian, how many of its pairs were blended rather than
    skipped and how many pixels they contributed to, and the total number of
    alpha evaluations performed.
    """
    bs, eps = frame.block_size, config.transmittance_eps
    num = means2d.shape[0]
    # Stable sort on the block keeps depth order inside each block's run.
    by_block = np.argsort(block, kind="stable")
    ids, runs = np.unique(block, return_counts=True)
    firsts = np.cumsum(runs) - runs
    longest = np.argsort(-runs, kind="stable")
    ids, runs, firsts = ids[longest], runs[longest], firsts[longest]
    ends = np.cumsum(runs)
    evaluated = np.zeros(num, dtype=np.intp)
    pixels = np.zeros(num, dtype=np.intp)
    alpha_evaluations = 0
    span, span_pixels = np.arange(bs), np.arange(bs * bs)

    start = 0
    while start < ids.size:
        # Whole blocks, up to GROUP_PAIR_CHUNK pairs and at least one block.
        limit = ends[start] - runs[start] + GROUP_PAIR_CHUNK
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        blk, run, first = ids[start:stop], runs[start:stop], firsts[start:stop]
        start, m = stop, stop - start
        # Layer r holds the first sizes[r] blocks; pairs are stored layer by
        # layer, and entry e of block j's transmittance sequence (entry 0
        # the state at entry, e the state after its pair of rank e - 1) is
        # row entry_start[e] + j of ``seq``.
        sizes = m - np.cumsum(np.bincount(run))[:-1]
        layer_start = np.cumsum(sizes) - sizes
        rank = np.repeat(np.arange(sizes.size), sizes)
        local = np.arange(rank.size) - layer_start[rank]
        rows = gaussian[by_block[first[local] + rank]]
        entry_start = np.concatenate([[0], m + layer_start])

        block_y, block_x = np.divmod(blk[local], frame.blocks_x)
        alphas = _block_maha(frame, means2d[rows], conics[rows], block_x, block_y, span)
        alphas = alphas.reshape(rows.size, bs * bs)
        alpha_from_maha(
            alphas, opacities[rows, None], config.alpha_min, config.alpha_max, out=alphas
        )
        seq = np.empty((m + rows.size, bs * bs))
        seq[:m] = frame.transmittance[blk]
        np.subtract(1.0, alphas, out=seq[m:])
        layers = list(zip(entry_start[:-1].tolist(), entry_start[1:].tolist(), sizes.tolist()))
        for before, after, n in layers:
            seq[after : after + n] *= seq[before : before + n]

        weights = seq[entry_start[rank] + local]
        active = weights > eps
        active &= alphas > 0.0
        weights *= alphas
        weights *= active
        unsaturated = seq > eps
        crossed = unsaturated[:m].astype(np.intp)
        color = frame.color[blk]
        tint = colors[rows][:, :, None]
        for (_, after, n), lo in zip(layers, layer_start.tolist()):
            color[:n] += weights[lo : lo + n, None] * tint[lo : lo + n]
            crossed[:n] += unsaturated[after : after + n]

        # Entry ``crossed`` is each pixel's first at or below eps (the frozen
        # value), or one past its last when it never crosses.
        entry = np.minimum(crossed, run[:, None])
        frame.transmittance[blk] = seq[entry_start[entry] + np.arange(m)[:, None], span_pixels]
        frame.color[blk] = color
        saturates_at = crossed.max(axis=1)
        frame.saturated[blk] |= saturates_at <= run
        blended = np.minimum(saturates_at, run) if use_tmask else run
        evaluated += np.bincount(rows[rank < blended[local]], minlength=num)
        counts = np.count_nonzero(active, axis=1)
        pixels += np.bincount(rows, weights=counts, minlength=num).astype(np.intp)
        alpha_evaluations += int(frame.valid_pixels[blk] @ blended)

    return evaluated, pixels, alpha_evaluations
