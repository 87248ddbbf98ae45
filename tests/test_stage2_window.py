"""Stage II of a window of depth groups in one call, split group by group.

The Gaussian-wise engine projects a window of consecutive depth groups with
one :func:`repro.render.preprocess.project_geometry` call and orders its
survivors by (group, depth) with a stable lexsort; the reference projects
each group on its own and sorts it by depth.  Each group's slice of the
window call must be the separate call's depth-ordered projection bit for
bit — rows and counts.  Checked on every quick preset's real Stage I groups
in windows of one to four.  The per-Gaussian property underneath (any
subset projects as its rows of the whole) is in ``tests/test_preprocess.py``.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.gaussians.presets import QUICK_SCENES
from repro.render.common import RenderConfig
from repro.render.grouping import group_by_depth
from repro.render.preprocess import GeometryProjection, frustum_cull_depths, project_geometry

CONFIG = RenderConfig(radius_rule="omega-sigma")


def depth_ordered(geometry: GeometryProjection, order: np.ndarray) -> dict:
    return {
        field.name: getattr(geometry, field.name)[order]
        for field in fields(GeometryProjection)
        if field.name != "num_input"
    }


@pytest.mark.parametrize("name", sorted(QUICK_SCENES))
def test_real_stage_one_groups_in_windows_of_one_to_four(name):
    scene, camera = load_scene_and_camera(EvalSetup(name, quick=True))
    depths, keep = frustum_cull_depths(scene, camera)
    visible = np.nonzero(keep)[0]
    groups = group_by_depth(depths[visible], capacity=CONFIG.group_capacity)
    parts = [visible[group.indices] for group in groups]
    assert len(parts) > 4
    group_of = np.empty(scene.num_gaussians, dtype=np.int64)
    for number, part in enumerate(parts):
        group_of[part] = number
    for width in (1, 2, 3, 4):
        for first in range(0, len(parts), width):
            window = parts[first : first + width]
            geometry = project_geometry(scene, camera, np.concatenate(window), CONFIG)
            owner = group_of[geometry.source_indices]
            rows = depth_ordered(geometry, np.lexsort((geometry.depths, owner)))
            row_ends = np.searchsorted(np.sort(owner), np.arange(first, first + width) + 1)
            for part, r0, r1 in zip(window, [0, *row_ends], row_ends):
                alone = project_geometry(scene, camera, part, CONFIG)
                assert alone.num_input == part.size
                assert alone.num_visible == r1 - r0
                expected = depth_ordered(alone, np.argsort(alone.depths, kind="stable"))
                for field, theirs in expected.items():
                    mine = rows[field][r0:r1]
                    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field
                    assert mine.tobytes() == theirs.tobytes(), field
