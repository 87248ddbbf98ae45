"""Stage II of a window of depth groups in one call, part by part.

The Gaussian-wise engine projects a window of consecutive depth groups with
one :func:`repro.render.preprocess.project_groups` call; the reference
projects each group on its own with
:func:`~repro.render.preprocess.project_geometry`.  Each part's slice of
the window call must be the separate call's projection bit for bit — rows
and counts — although the camera transform's matrix product rounds by batch
size: every part is transformed on its own.  Checked on generated index
sets cut into one to four parts and on the quick presets' real Stage I
groups.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.gaussians.presets import EVAL_SCENES
from repro.render.common import RenderConfig
from repro.render.grouping import group_by_depth
from repro.render.preprocess import frustum_cull_depths, project_geometry, project_groups

CONFIGS = (RenderConfig(radius_rule="omega-sigma"), RenderConfig())


@lru_cache(maxsize=None)
def stage_one(name: str):
    """A quick preset, its camera, its Stage I survivors and its groups."""
    scene, camera = load_scene_and_camera(EvalSetup(name, quick=True))
    depths, keep = frustum_cull_depths(scene, camera)
    visible = np.nonzero(keep)[0]
    groups = group_by_depth(depths[visible], capacity=RenderConfig.group_capacity)
    return scene, camera, visible, groups


def assert_parts_match_separate_calls(scene, camera, parts, config) -> None:
    window = project_groups(scene, camera, parts, config)
    assert len(window) == len(parts)
    for part, sliced in zip(parts, window):
        alone = project_geometry(scene, camera, part, config)
        for field in fields(alone):
            mine, theirs = getattr(sliced, field.name), getattr(alone, field.name)
            if isinstance(theirs, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field.name
                assert mine.tobytes() == theirs.tobytes(), field.name
            else:
                assert mine == theirs, field.name
        assert sliced.num_visible == alone.num_visible


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(EVAL_SCENES)),
    seed=st.integers(0, 2**32 - 1),
    size=st.one_of(st.integers(0, 40), st.integers(40, 1500)),
    num_parts=st.integers(1, 4),
    sorted_rows=st.booleans(),
    config=st.sampled_from(CONFIGS),
)
def test_generated_index_sets_split_into_parts(name, seed, size, num_parts, sorted_rows, config):
    scene, camera, visible, _ = stage_one(name)
    rng = np.random.default_rng(seed)
    # Stage I survivors mostly; a few depth-culled Gaussians too.
    pool = visible if rng.random() < 0.8 else np.arange(scene.num_gaussians)
    indices = rng.choice(pool, size=min(size, pool.size), replace=False)
    if sorted_rows:
        indices.sort()
    cuts = np.sort(rng.integers(0, indices.size + 1, size=num_parts - 1))
    assert_parts_match_separate_calls(scene, camera, np.split(indices, cuts), config)


@pytest.mark.parametrize("name", sorted(EVAL_SCENES))
def test_real_stage_one_groups_in_windows_of_one_to_four(name):
    scene, camera, visible, groups = stage_one(name)
    parts = [visible[group.indices] for group in groups]
    assert len(parts) > 4
    for width in (1, 2, 3, 4):
        for first in range(0, len(parts), width):
            window = parts[first : first + width]
            assert_parts_match_separate_calls(scene, camera, window, CONFIGS[0])
