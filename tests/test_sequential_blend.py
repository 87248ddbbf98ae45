"""``kernels.sequential_blend`` against the reference's per-row blend loop.

The tile-wise engine blends a tile's depth list in chunks with
:func:`~repro.render.kernels.sequential_blend`; the reference blends it one
Gaussian at a time with :func:`~repro.render.blending.blend_pixels` and stops
once every pixel has saturated.  The kernel must return the same colour and
transmittance bits, the same number of processed Gaussians and the same
per-Gaussian pixel counts, at every tile width (a 1x1 corner tile up to a
full 16x16 tile), in both engine dtypes, and whatever the chunk boundaries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.blending import blend_pixels
from repro.render.common import RenderConfig
from repro.render.kernels import sequential_blend

EPS = RenderConfig.transmittance_eps


def make_chunk(seed: int, num: int, pixels: int, dtype, opaque_rows: int):
    """A depth-ordered chunk as the engine produces it: alphas are 0 or in
    ``[alpha_min, alpha_max]``; ``opaque_rows`` rows near the middle are at
    ``alpha_max`` everywhere, so the tile saturates inside the chunk; the
    tile starts from earlier chunks' colour and partly saturated
    transmittance."""
    rng = np.random.default_rng(seed)
    alphas = rng.random((num, pixels)) ** 3 * RenderConfig.alpha_max
    alphas[alphas < RenderConfig.alpha_min] = 0.0
    middle = num // 2
    alphas[middle : middle + opaque_rows] = RenderConfig.alpha_max
    colors = rng.random((num, 3))
    tile_color = rng.random((pixels, 3)) * 0.2
    saturated = rng.random(pixels) < 0.1
    tile_trans = np.where(saturated, EPS * rng.random(pixels), 1.0 - 0.5 * rng.random(pixels))
    return tuple(a.astype(dtype) for a in (tile_color, tile_trans, alphas, colors))


def reference_blend(tile_color, tile_trans, alphas, colors):
    """The reference's loop: one ``blend_pixels`` per Gaussian, stopping
    before the first Gaussian that finds every pixel saturated."""
    counts = []
    for alpha, color in zip(alphas, colors):
        if np.all(tile_trans <= EPS):
            break
        counts.append(blend_pixels(tile_color, tile_trans, alpha, color, EPS))
    return len(counts), counts


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


chunk = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 48),  # Gaussians in the chunk
    st.one_of(st.integers(1, 8), st.integers(1, 256)),  # pixels: corner tiles to full tiles
    st.sampled_from([np.float64, np.float32]),
    st.sampled_from([0, 0, 1, 3]),  # opaque rows: none, or saturate mid-chunk
)


@settings(max_examples=150, deadline=None)
@given(chunk=chunk)
def test_matches_the_per_row_reference_loop(chunk):
    tile_color, tile_trans, alphas, colors = make_chunk(*chunk)
    ref_color, ref_trans = tile_color.copy(), tile_trans.copy()
    ref_processed, ref_counts = reference_blend(ref_color, ref_trans, alphas, colors)

    processed, counts = sequential_blend(tile_color, tile_trans, alphas, colors, EPS)
    assert processed == ref_processed
    assert counts[:processed].tolist() == ref_counts
    assert_same_bits(tile_color, ref_color)
    assert_same_bits(tile_trans, ref_trans)


@settings(max_examples=100, deadline=None)
@given(chunk=chunk, split=st.floats(0.0, 1.0))
def test_split_chunks_blend_like_the_whole(chunk, split):
    """Blending ``[:j]`` then, unless the tile stopped, ``[j:]`` is blending
    the whole chunk: the engine's chunk schedule cannot move a bit."""
    tile_color, tile_trans, alphas, colors = make_chunk(*chunk)
    whole_color, whole_trans = tile_color.copy(), tile_trans.copy()
    processed, counts = sequential_blend(whole_color, whole_trans, alphas, colors, EPS)

    j = int(split * alphas.shape[0])
    first, first_counts = sequential_blend(tile_color, tile_trans, alphas[:j], colors[:j], EPS)
    parts = [first_counts[:first]]
    if first == j and not np.all(tile_trans <= EPS):
        rest, rest_counts = sequential_blend(tile_color, tile_trans, alphas[j:], colors[j:], EPS)
        first += rest
        parts.append(rest_counts[:rest])
    assert first == processed
    assert np.concatenate(parts).tolist() == counts[:processed].tolist()
    assert_same_bits(tile_color, whole_color)
    assert_same_bits(tile_trans, whole_trans)
