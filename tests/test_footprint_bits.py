"""Algorithm 1's footprint bits against the per-Gaussian traversal.

:func:`repro.render.kernels.identify_group_blocks` reduces each candidate
block to five bits — any pixel inside the alpha ellipse, and any on its
right / left / bottom / top edge — computed on a pixel-major form (the pair
axis innermost) with ``np.fmin`` reductions.  Here the pairs it returns and
the blocks it visits are checked against
:func:`repro.render.reference.identify_influence_blocks` under a random
transmittance mask (influence blocks, visits and T_mask skips), on images
whose sides are not multiples of the block, with centres on and off the
screen, and on crafted rows whose form is NaN or infinite on some pixels:
``fmin`` skips NaN where ``np.minimum`` would propagate it, and an all-NaN
line must still read "no pixel inside".
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gauss_group_kernels import splats

from repro.render import kernels
from repro.render.common import ALPHA_MIN
from repro.render.reference import identify_influence_blocks

#: A covariance whose candidate box spans any test image: a crafted form
#: is then tested on every block the per-Gaussian traversal can reach.
HUGE_COV = np.diag([1.0e12, 1.0e12])

#: Packed conics ``(a, b, c)`` whose form is NaN on the pixels of the
#: mean's row or column (``inf * 0``) and +-inf elsewhere.
CRAFTED_CONICS = (
    (-np.inf, 0.0, 0.05),  # -inf (inside) off the mean's column, NaN on it
    (0.05, np.inf, 0.05),  # -inf in two quadrants, NaN on the mean's row/column
    (0.05, -np.inf, 0.05),  # the other two quadrants
    (np.inf, 0.0, 0.05),  # inf or NaN everywhere: nothing inside
    (0.05, 0.0, np.nan),  # NaN everywhere
    (0.05, 0.0, -np.inf),  # -inf off the mean's row, NaN on it
)

side = st.one_of(
    st.integers(1, 70).filter(lambda n: n % 8),  # partial edge blocks
    st.sampled_from([8, 16, 64]),
)
# Centres relative to the image: a fraction of a side, a pixel offset from
# the far edge (partial blocks' clamped pixels), or far off the screen.
placement = st.one_of(
    st.tuples(st.just("fraction"), st.floats(-0.2, 1.2)),
    st.tuples(st.just("edge"), st.floats(-3.0, 3.0)),
    st.tuples(st.just("edge"), st.integers(-3, 3).map(float)),
    st.tuples(st.just("far"), st.floats(-4000.0, 4000.0)),
)
ordinary = st.tuples(
    st.just("ordinary"),
    placement,
    placement,
    st.one_of(st.floats(0.12, 3.0), st.floats(3.0, 60.0)),
    st.one_of(st.floats(0.12, 3.0), st.floats(3.0, 60.0)),
    st.floats(0.0, np.pi),
    st.one_of(st.floats(1.0e-4, 0.05), st.floats(0.05, 1.0), st.just(ALPHA_MIN)),
)
crafted = st.tuples(
    st.just("crafted"),
    placement,
    placement,
    st.sampled_from(range(len(CRAFTED_CONICS))),
    st.booleans(),  # centre on a pixel centre (so the NaN row/column is sampled)
    st.floats(2.0 * ALPHA_MIN, 1.0),
)


def place(where, extent: int) -> float:
    kind, value = where
    if kind == "fraction":
        return value * extent
    if kind == "edge":
        return extent - 1 + value
    return value


def build_rows(rows, width: int, height: int) -> dict[str, np.ndarray]:
    means, sigmas, thetas, opacities, special = [], [], [], [], {}
    for i, row in enumerate(rows):
        x, y = place(row[1], width), place(row[2], height)
        if row[0] == "ordinary":
            means.append((x, y))
            sigmas.append(row[3:5])
            thetas.append(row[5])
            opacities.append(row[6])
        else:
            conic, on_pixel, opacity = row[3:]
            means.append((np.floor(x), np.floor(y)) if on_pixel else (x, y))
            sigmas.append((1.0, 1.0))
            thetas.append(0.0)
            opacities.append(opacity)
            special[i] = conic
    splat = splats(means, sigmas, thetas, opacities)
    for i, conic in special.items():
        splat["conics"][i] = CRAFTED_CONICS[conic]
        splat["cov2d"][i] = HUGE_COV
    return splat


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.one_of(ordinary, crafted), min_size=1, max_size=6),
    width=side,
    height=side,
    block_size=st.sampled_from([8, 8, 4, 16]),
    chunk=st.sampled_from([1, 5, 1024]),
    seed=st.integers(0, 2**32 - 1),
)
def test_footprint_bits_traverse_like_the_per_gaussian_oracle(
    rows, width, height, block_size, chunk, seed
):
    splat = build_rows(rows, width, height)
    frame = kernels.BlockFrame(width, height, block_size)
    saturated = np.random.default_rng(seed).random((frame.blocks_y, frame.blocks_x)) < 0.3
    rows_in = splat["means2d"], splat["conics"], splat["cov2d"], splat["opacities"]
    old_chunk, kernels.FOOTPRINT_CHUNK = kernels.FOOTPRINT_CHUNK, chunk
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            gaussian, block, visited = kernels.identify_group_blocks(frame, *rows_in, ALPHA_MIN)
    finally:
        kernels.FOOTPRINT_CHUNK = old_chunk
    assert np.all(np.diff(gaussian) >= 0)
    for index in range(len(rows)):
        with np.errstate(invalid="ignore", over="ignore"):
            oracle = identify_influence_blocks(
                splat["means2d"][index],
                splat["conics"][index],
                float(splat["opacities"][index]),
                width,
                height,
                block_size=block_size,
                alpha_min=ALPHA_MIN,
                saturated_blocks=saturated,
            )
        mine = [divmod(int(b), frame.blocks_x) for b in block[gaussian == index]]
        assert len(mine) == len(set(mine)), index
        assert {b for b in mine if not saturated[b]} == set(oracle.blocks), index
        assert sum(bool(saturated[b]) for b in mine) == oracle.blocks_skipped_tmask, index
        assert visited[index] == oracle.blocks_visited, index


def test_crafted_rows_reach_blocks_only_through_fmin():
    # On a 20 x 20 image a form that is -inf off the mean's column and NaN
    # on it has pixels inside in every block: each column and edge row that
    # crosses the NaN column holds both, and only a NaN-skipping reduction
    # reads it as "a pixel inside".
    splat = build_rows([("crafted", ("edge", -9.0), ("edge", -9.0), 0, True, 0.5)], 20, 20)
    frame = kernels.BlockFrame(20, 20, 8)
    with np.errstate(invalid="ignore"):
        gaussian, block, visited = kernels.identify_group_blocks(
            frame, splat["means2d"], splat["conics"], splat["cov2d"], splat["opacities"], ALPHA_MIN
        )
    assert sorted(block.tolist()) == list(range(9)) and visited.tolist() == [9]
