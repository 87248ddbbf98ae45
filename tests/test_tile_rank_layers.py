"""The tile-wise engine's frame-level Stage IV against the reference loops.

Generated screen-space splats are fed to both renderers in place of Stages
I-III (``tile_raster.project_scene`` is swapped for the generator), on frames
whose width and height are multiples of neither 16 nor 8: the right-hand
blocks are partial and the last tile row holds a single subtile row.  Each
frame mixes tiles that never saturate, wide opaque blankets, faint needles
whose bounding radius reaches tiles their footprint box misses (dead rows
between live ones), and one tile saturated block by block so that its exit
lands in a chosen one of its four blocks.

In float64 the engine must equal ``render_tilewise_reference`` bit for bit,
with identical counters and index sets, under every rank window and for
whole frames and 2- and 3-way tile shards; float32 is held to the PSNR floor
of ``tests/test_render_dtype.py`` against the float64 oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.model import GaussianScene
from repro.render import tile_raster
from repro.render.common import RenderConfig
from repro.render.kernels import shard_intervals
from repro.render.metrics import psnr
from repro.render.preprocess import ProjectedGaussians
from repro.render.reference import render_tilewise_reference
from repro.render.tile_raster import compose_tile_shards, frame_tile_count, render_tilewise

TILE = RenderConfig.tile_size
SUB = RenderConfig().subtile_size
WINDOWS = (1, 3, 32, 4096)
FLOAT32_PSNR_FLOOR_DB = 80.0


def splats(means, sigmas, thetas, opacities, depths) -> ProjectedGaussians:
    """Projected Gaussians from screen means, per-axis sigmas and angles."""
    means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1, 2)
    num = means.shape[0]
    cos, sin = np.cos(thetas), np.sin(thetas)
    rot = np.stack([np.stack([cos, -sin], axis=1), np.stack([sin, cos], axis=1)], axis=1)
    cov2d = rot @ (sigmas[:, :, None] ** 2 * np.eye(2)) @ rot.transpose(0, 2, 1)
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conics = np.stack([cov2d[:, 1, 1], -cov2d[:, 0, 1], cov2d[:, 0, 0]], axis=1) / det[:, None]
    rng = np.random.default_rng(num)
    return ProjectedGaussians(
        source_indices=np.arange(num),
        means2d=means,
        depths=np.asarray(depths, dtype=np.float64),
        conics=conics,
        cov2d=cov2d,
        radii=3.0 * sigmas.max(axis=1),
        opacities=np.asarray(opacities, dtype=np.float64),
        num_input=num,
        colors=rng.uniform(0.0, 1.0, size=(num, 3)),
        num_total=num,
    )


@st.composite
def frames(draw):
    """``(projected, width, height)`` of one generated frame."""
    width = TILE * draw(st.integers(1, 4)) + draw(st.sampled_from([1, 3, 7, 9, 13]))
    height = TILE * draw(st.integers(1, 3)) + draw(st.integers(1, SUB - 1))
    exit_block = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []  # (means, sigmas, thetas, opacities, depths) per group

    def add(means, sigmas, opacities, depths, thetas=None):
        n = len(means)
        thetas = rng.uniform(0.0, np.pi, n) if thetas is None else thetas
        parts.append((means, sigmas, thetas, opacities, depths))

    # Scattered Gaussians at every depth, round to elongated.
    n = int(rng.integers(5, 30))
    add(rng.uniform(-0.1, 1.1, (n, 2)) * (width, height),
        np.exp(rng.uniform(np.log(0.6), np.log(20.0), (n, 2))),
        np.exp(rng.uniform(np.log(2e-3), 0.0, n)), rng.uniform(0, 100, n))  # fmt: skip
    # One tile saturated block by block, the exit block's blankets last.
    tx = int(rng.integers(0, width // TILE))
    ty = int(rng.integers(0, height // TILE))
    for block in range(4):
        centre = (tx * TILE + (block % 2 + 0.5) * SUB, ty * TILE + (block // 2 + 0.5) * SUB)
        k = int(rng.integers(24, 32))
        start = 60.0 if block == exit_block else 10.0 + 10.0 * block
        depths = start + np.sort(rng.uniform(0, 9, k))
        add(np.tile(centre, (k, 1)) + rng.normal(0.0, 0.5, (k, 2)),
            np.full((k, 2), 5.0), np.full(k, 0.99), depths)  # fmt: skip
    # Faint needles pointing away from the tiles their radius reaches.
    k = int(rng.integers(1, 8))
    add(rng.uniform(0, 1, (k, 2)) * (width, height), np.tile([0.7, 14.0], (k, 1)),
        np.full(k, 0.02), rng.uniform(0, 100, k), thetas=np.zeros(k))  # fmt: skip
    # A wide blanket saturating whole tiles late in the order.
    if draw(st.booleans()):
        k = int(rng.integers(10, 20))
        add(np.tile(rng.uniform(0, 1, 2) * (width, height), (k, 1)), np.full((k, 2), 40.0),
            np.full(k, 0.6), rng.uniform(50, 100, k))  # fmt: skip
    columns = [np.concatenate([np.asarray(p[i], np.float64) for p in parts]) for i in range(5)]
    return splats(*columns), width, height


def render_all(projected, width, height, monkeypatch, dtype="float64"):
    camera = Camera.from_fov(
        width=width, height=height, fov_y_degrees=60.0,
        world_to_camera=look_at(np.array([0.0, 0.0, -3.0]), np.zeros(3)),
    )  # fmt: skip
    monkeypatch.setattr(tile_raster, "project_scene", lambda scene, camera, config: projected)
    config = RenderConfig(dtype=dtype)
    scene = GaussianScene.empty()
    reference = render_tilewise_reference(scene, camera, RenderConfig())
    num_tiles = frame_tile_count(width, height)
    renders = {}
    for window in WINDOWS if dtype == "float64" else (tile_raster.RANK_WINDOW,):
        monkeypatch.setattr(tile_raster, "RANK_WINDOW", window)
        for shards in (1, 2, 3):
            if shards == 1:
                renders[window, shards] = render_tilewise(scene, camera, config)
            else:
                parts = [
                    render_tilewise(scene, camera, config, tile_shard=interval)
                    for interval in shard_intervals(num_tiles, shards)
                ]
                renders[window, shards] = compose_tile_shards(parts)
    return reference, renders


def stats_dict(stats):
    return {k: np.asarray(v).tolist() for k, v in dataclasses.asdict(stats).items()}


@given(case=frames())
@settings(max_examples=25, deadline=None)
def test_engine_is_the_reference_bitwise_under_every_window_and_shard(case):
    projected, width, height = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        reference, renders = render_all(projected, width, height, monkeypatch)
    expected = stats_dict(reference.stats)
    assert reference.stats.num_pairs_processed < reference.stats.num_tile_pairs, "no tile exited"
    for key, result in renders.items():
        assert result.image.tobytes() == reference.image.tobytes(), key
        assert stats_dict(result.stats) == expected, key


@given(case=frames())
@settings(max_examples=10, deadline=None)
def test_float32_meets_the_psnr_floor_under_every_shard(case):
    projected, width, height = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        reference, renders = render_all(projected, width, height, monkeypatch, dtype="float32")
    for key, result in renders.items():
        assert result.image.dtype == np.float32
        value = psnr(reference.image, result.image.astype(np.float64))
        assert value >= FLOAT32_PSNR_FLOOR_DB, (key, value)
