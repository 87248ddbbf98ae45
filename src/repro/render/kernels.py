"""Batched rasterisation kernels shared by the vectorized render backends.

The reference renderers in :mod:`repro.render.tile_raster` and
:mod:`repro.render.gaussian_raster` are deliberate per-Gaussian/per-block
Python loops that mirror the hardware pipelines one operation at a time.
This module provides the batched equivalents used by
``RenderConfig(backend="vectorized")``:

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
* :func:`compute_footprint_region` / :func:`traverse_region_blocks` — the
  Gaussian-wise footprint evaluated once per Gaussian over a pixel region,
  with Algorithm 1's block traversal replayed over precomputed block/edge
  occupancy bits instead of one PE-array pass per visited block.
* :func:`blend_region_blocks` — Stage IV alpha computation and blending for
  all influence blocks of one Gaussian in a single gather/scatter.

Every kernel is *observationally equivalent* to the reference loops: the
per-pixel arithmetic uses identical elementwise operations in the same
order, so all statistics counters (pairs processed, alpha evaluations,
pixels blended, blocks visited/skipped, ...) are integer-identical and the
transmittance state evolves bitwise-identically.  The tile-wise kernels also
accumulate colour in the reference's order (a left fold), so their images
are bitwise-identical too; the Gaussian-wise block kernels batch the colour
sum, which keeps their images within ``atol=1e-9`` of the reference.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.render.blending import alpha_from_maha
from repro.render.boundary import BlockTraversalResult, _alpha_chi2, _clamp_to_bounds

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

    The render path calls ``stage_hook().stage("project"|"pair_build"|
    "blend")`` around its pipeline stages.  By default that is this
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
    bound to their private tracer, and the executor's sequential path
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
    exactly, so the values are bitwise-identical to the reference loop:
    the three terms of the quadratic form are built per axis — ``a dx dx``
    and ``2b dx`` only depend on the column, ``c dy dy`` on the row — and
    combined over the tile in the reference's association, which leaves
    three full-size operations instead of nine.  This is the one place the
    form of :func:`repro.gaussians.covariance.mahalanobis_sq` is restated;
    the clamp and threshold are :func:`~repro.render.blending.alpha_from_maha`
    itself, run in place.  The pixel grid inherits
    the dtype of ``means2d``, keeping the float32 engine mode in single
    precision without a separate kernel.
    """
    dtype = means2d.dtype
    dx = np.arange(x0, x1, dtype=dtype) - means2d[:, 0, None]
    dy = np.arange(y0, y1, dtype=dtype) - means2d[:, 1, None]
    a_dx_dx = conics[:, 0, None] * dx
    a_dx_dx *= dx
    b2_dx = (2.0 * conics[:, 1, None]) * dx
    c_dy_dy = conics[:, 2, None] * dy
    c_dy_dy *= dy

    maha = np.empty((means2d.shape[0], y1 - y0, x1 - x0), dtype=dtype)
    np.multiply(b2_dx[:, None, :], dy[:, :, None], out=maha)
    maha += a_dx_dx[:, None, :]
    maha += c_dy_dy[:, :, None]

    alpha = alpha_from_maha(
        maha,
        opacities[:, None, None],
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        out=np.empty_like(maha),
    )
    return alpha, maha


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
    because the sequence is non-increasing.  Colour is accumulated as a left
    fold over the Gaussians, seeded with ``tile_color``: the additions the
    reference loop performs, in its order, so the result is bitwise the
    reference's and does not depend on how the list was chunked.
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
    # Left fold seeded with the tile colour: row 0 is the colour so far and
    # row i + 1 Gaussian i's contribution (exactly +0 where it is inactive),
    # and a reduction over the leading axis adds the rows one after another
    # — the reference loop's own sequence of additions, whatever the chunks.
    contributions = np.empty((num_processed + 1, pixels, 3), dtype=tile_color.dtype)
    contributions[0] = tile_color
    np.multiply(weights[:, :, None], colors[:num_processed, None, :], out=contributions[1:])
    np.add.reduce(contributions, axis=0, out=tile_color)

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
@dataclass
class FootprintRegion:
    """Precomputed screen-space footprint of one Gaussian.

    The region is a block-aligned pixel rectangle that covers the alpha
    (chi^2) ellipse plus a one-block ring, the clamped start block, and —
    when requested — the bounding-radius box, clamped to the image.  All the
    per-block quantities Algorithm 1 needs (occupancy and boundary-edge
    bits) are reduced from one vectorized Mahalanobis evaluation instead of
    one PE-array pass per visited block.
    """

    #: Pixel origin (x, y) of the region; always block-aligned.
    px0: int
    py0: int
    #: Mahalanobis^2 over the region pixels, shape ``(rh, rw)``.
    maha: np.ndarray
    #: chi^2 threshold for the alpha condition, or None when the opacity
    #: cannot reach ``alpha_min`` anywhere.
    chi2: float | None
    #: Global block index (by, bx) of the region's top-left block.
    block_origin: tuple[int, int]
    #: Per-block any-influence bits as nested Python lists (None if no
    #: chi2); plain lists keep the traversal's inner loop off numpy scalar
    #: indexing, which dominates at this grain.
    block_any: list[list[bool]] | None
    #: Per-block boundary-edge any-influence bits keyed right/left/down/up.
    edges: dict[str, list[list[bool]]] | None
    #: Clamped start block (by, bx) in global block coordinates.
    start_block: tuple[int, int]


def compute_footprint_region(
    mean2d: np.ndarray,
    conic: np.ndarray,
    cov2d: np.ndarray,
    opacity: float,
    width: int,
    height: int,
    block_size: int,
    alpha_min: float,
    extra_radius: float = 0.0,
) -> FootprintRegion:
    """Evaluate one Gaussian's footprint over a block-aligned pixel region.

    ``extra_radius`` additionally grows the region to cover the
    bounding-radius box (needed by the ``"aabb"`` boundary ablation, whose
    block set is derived from the radius rather than the alpha ellipse).
    """
    blocks_x = (width + block_size - 1) // block_size
    blocks_y = (height + block_size - 1) // block_size
    mx, my = float(mean2d[0]), float(mean2d[1])
    # Same containing-pixel clamp as boundary._clamp_to_bounds, inlined with
    # math.floor to avoid per-Gaussian numpy scalar overhead.
    cx = int(min(max(math.floor(mx), 0), width - 1))
    cy = int(min(max(math.floor(my), 0), height - 1))
    start = (cy // block_size, cx // block_size)

    chi2 = _alpha_chi2(opacity, alpha_min)
    chi2_span = max(chi2, 0.0) if chi2 is not None else 0.0
    # Maximum |dx| (|dy|) over the chi^2 ellipse is sqrt(chi2 * Sigma_xx).
    half_x = max(float(np.sqrt(chi2_span * max(cov2d[0, 0], 0.0))), extra_radius)
    half_y = max(float(np.sqrt(chi2_span * max(cov2d[1, 1], 0.0))), extra_radius)

    # The pixel region covers exactly the blocks intersecting the ellipse
    # bounding box (plus the clamped start block).  Any pixel outside that
    # box is outside the ellipse, so the one-block traversal ring around it
    # carries all-False occupancy bits and needs no pixel evaluation; it is
    # synthesised below by list padding.
    bx_lo = min(max(int(math.floor((mx - half_x) / block_size)), 0), start[1])
    bx_hi = max(min(int(math.floor((mx + half_x) / block_size)), blocks_x - 1), start[1])
    by_lo = min(max(int(math.floor((my - half_y) / block_size)), 0), start[0])
    by_hi = max(min(int(math.floor((my + half_y) / block_size)), blocks_y - 1), start[0])

    px0, py0 = bx_lo * block_size, by_lo * block_size
    px1 = min((bx_hi + 1) * block_size, width)
    py1 = min((by_hi + 1) * block_size, height)
    dx = np.arange(px0, px1, dtype=np.float64) - mx
    dy = np.arange(py0, py1, dtype=np.float64) - my
    dx, dy = dx[None, :], dy[:, None]
    # Inlined mahalanobis_sq with scalar coefficients: identical elementwise
    # operations and order, without per-Gaussian array-wrapping overhead.
    a, b, c = float(conic[0]), float(conic[1]), float(conic[2])
    maha = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy

    block_any = None
    edges = None
    if chi2 is not None:
        nby, nbx = by_hi - by_lo + 1, bx_hi - bx_lo + 1
        padded = np.zeros((nby * block_size, nbx * block_size), dtype=bool)
        padded[: maha.shape[0], : maha.shape[1]] = maha <= chi2
        blocks = padded.reshape(nby, block_size, nbx, block_size)
        # Padded rows/columns are all-False; an edge facing the padding is
        # only ever consulted for an in-grid neighbour, in which case the
        # block is full in that direction and the padding does not alias.
        # The down/up (right/left) edge bits are slices of the per-row
        # (per-column) occupancy reduction, so three reductions cover all
        # five bit planes.
        row_hits = blocks.any(axis=3)  # (nby, bs, nbx)
        col_hits = blocks.any(axis=1)  # (nby, nbx, bs)

        def ring_pad(rows: list[list[bool]]) -> list[list[bool]]:
            false_row = [False] * (nbx + 2)
            return (
                [false_row]
                + [[False] + row + [False] for row in rows]
                + [false_row]
            )

        block_any = ring_pad(row_hits.any(axis=1).tolist())
        edges = {
            "right": ring_pad(col_hits[:, :, -1].tolist()),
            "left": ring_pad(col_hits[:, :, 0].tolist()),
            "down": ring_pad(row_hits[:, -1, :].tolist()),
            "up": ring_pad(row_hits[:, 0, :].tolist()),
        }
    return FootprintRegion(
        px0=px0,
        py0=py0,
        maha=maha,
        chi2=chi2,
        block_origin=(by_lo - 1, bx_lo - 1),
        block_any=block_any,
        edges=edges,
        start_block=start,
    )


def traverse_region_blocks(
    region: FootprintRegion,
    width: int,
    height: int,
    block_size: int,
    saturated_set: set[tuple[int, int]] | None = None,
) -> BlockTraversalResult:
    """Replay Algorithm 1's block traversal over a precomputed region.

    Produces a :class:`BlockTraversalResult` identical (including the block
    order and the visited/skipped counters) to
    :func:`repro.render.boundary.identify_influence_blocks`; the per-block
    PE-array passes are replaced by reads of the precomputed occupancy bits.

    Parameters
    ----------
    saturated_set:
        Set of saturated ``(by, bx)`` blocks in global block coordinates —
        the T_mask kept as a Python set so membership tests stay cheap at
        per-block grain.  ``None`` disables the mask (CC off).
    """
    if region.chi2 is None:
        return BlockTraversalResult([], 0, 0)
    blocks_x = (width + block_size - 1) // block_size
    blocks_y = (height + block_size - 1) // block_size
    if blocks_x <= 0 or blocks_y <= 0:
        return BlockTraversalResult([], 0, 0)

    by0, bx0 = region.block_origin
    block_any = region.block_any
    edges = region.edges
    nby = len(block_any)
    nbx = len(block_any[0])
    visited = [[False] * nbx for _ in range(nby)]

    result_blocks: list[tuple[int, int]] = []
    skipped_tmask = 0
    start = region.start_block
    ly, lx = start[0] - by0, start[1] - bx0
    visited[ly][lx] = True
    blocks_visited = 1
    queue: deque[tuple[int, int]] = deque()
    if block_any[ly][lx]:
        queue.append((ly, lx))
        if saturated_set is not None and start in saturated_set:
            skipped_tmask += 1
        else:
            result_blocks.append(start)

    edge_right, edge_left = edges["right"], edges["left"]
    edge_down, edge_up = edges["down"], edges["up"]
    # Probe order matches identify_influence_blocks: right, left, down, up.
    # The region already clamps to the block grid, so a local index is
    # in-bounds iff the global one is.
    while queue:
        ly, lx = queue.popleft()
        gy, gx = ly + by0, lx + bx0
        for ny, nx, gny, gnx, edge_hit in (
            (ly, lx + 1, gy, gx + 1, edge_right[ly][lx]),
            (ly, lx - 1, gy, gx - 1, edge_left[ly][lx]),
            (ly + 1, lx, gy + 1, gx, edge_down[ly][lx]),
            (ly - 1, lx, gy - 1, gx, edge_up[ly][lx]),
        ):
            if not (0 <= gny < blocks_y and 0 <= gnx < blocks_x):
                continue
            if visited[ny][nx] or not edge_hit:
                continue
            visited[ny][nx] = True
            blocks_visited += 1
            if not block_any[ny][nx]:
                continue
            queue.append((ny, nx))
            if saturated_set is not None and (gny, gnx) in saturated_set:
                skipped_tmask += 1
            else:
                result_blocks.append((gny, gnx))
    return BlockTraversalResult(result_blocks, blocks_visited, skipped_tmask)


def blend_region_blocks(
    color_flat: np.ndarray,
    trans_flat: np.ndarray,
    region: FootprintRegion,
    blocks: list[tuple[int, int]],
    color: np.ndarray,
    opacity: float,
    width: int,
    height: int,
    block_size: int,
    alpha_min: float,
    alpha_max: float,
    transmittance_eps: float,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Alpha-evaluate and blend all influence blocks of one Gaussian at once.

    Parameters
    ----------
    color_flat, trans_flat:
        ``(H * W, 3)`` and ``(H * W,)`` flattened image state (modified in
        place).  Blocks are disjoint pixel sets, so a single gather/scatter
        is equivalent to the reference per-block loop.

    Returns
    -------
    ``(counts, pixel_evaluations, block_trans_max)`` where ``counts[i]`` is
    the number of pixels block ``i`` contributed, ``pixel_evaluations`` is
    the total per-pixel alpha evaluations (the sum of valid block pixels)
    and ``block_trans_max[i]`` is the post-blend maximum transmittance of
    block ``i`` (used to update the T_mask exactly as the reference does).
    """
    barr = np.asarray(blocks, dtype=np.int64)
    offsets = np.arange(block_size, dtype=np.int64)
    ys = barr[:, 0, None] * block_size + offsets[None, :]
    xs = barr[:, 1, None] * block_size + offsets[None, :]
    valid = (ys < height)[:, :, None] & (xs < width)[:, None, :]
    ys = np.minimum(ys, height - 1)
    xs = np.minimum(xs, width - 1)

    row_idx = (ys - region.py0)[:, :, None]
    col_idx = (xs - region.px0)[:, None, :]
    maha = region.maha[row_idx, col_idx]
    alpha = alpha_from_maha(maha, opacity, alpha_min=alpha_min, alpha_max=alpha_max)

    flat_idx = (ys[:, :, None] * width + xs[:, None, :])[valid]
    alpha_v = alpha[valid]
    trans_v = trans_flat[flat_idx]
    active = (alpha_v > 0.0) & (trans_v > transmittance_eps)

    active_idx = flat_idx[active]
    weight = trans_v[active] * alpha_v[active]
    color_flat[active_idx] += weight[:, None] * color[None, :]
    trans_after = np.where(active, trans_v * (1.0 - alpha_v), trans_v)
    trans_flat[flat_idx] = trans_after

    active_grid = np.zeros(valid.shape, dtype=bool)
    active_grid[valid] = active
    counts = np.count_nonzero(active_grid, axis=(1, 2))

    trans_grid = np.full(valid.shape, -np.inf)
    trans_grid[valid] = trans_after
    block_trans_max = trans_grid.max(axis=(1, 2))
    return counts, int(np.count_nonzero(valid)), block_trans_max
