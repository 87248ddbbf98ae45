"""Stage II of a window of depth groups in one call, split group by group.

Stage I (``gaussian_raster.frame_setup``) hands out its survivors in one
stable depth order, and every depth group is a run of it.  The
Gaussian-wise engine projects a window of consecutive groups with one
:func:`repro.render.preprocess.project_geometry` call on the window's run
and takes its survivors in the order they come out, sorting nothing; the
reference projects each group on its own and sorts it by depth.  Each
group's slice of the window call must be the separate call's depth-ordered
projection bit for bit — rows and counts.  Checked on every quick preset's
real Stage I groups in windows of one to four.  The per-Gaussian property
underneath (any subset projects as its rows of the whole) is in
``tests/test_preprocess.py``.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.gaussians.presets import QUICK_SCENES
from repro.render.common import RenderConfig
from repro.render.gaussian_raster import frame_setup
from repro.render.preprocess import GeometryProjection, project_geometry

CONFIG = RenderConfig(radius_rule="omega-sigma")


def rows_of(geometry: GeometryProjection, order=slice(None)) -> dict:
    return {
        field.name: getattr(geometry, field.name)[order]
        for field in fields(GeometryProjection)
        if field.name != "num_input"
    }


@pytest.mark.parametrize("name", sorted(QUICK_SCENES))
def test_real_stage_one_groups_in_windows_of_one_to_four(name):
    scene, camera = load_scene_and_camera(EvalSetup(name, quick=True))
    _, stats, sources, bounds = frame_setup(scene, camera, CONFIG, True, "alpha")
    assert stats.num_groups > 4
    position = np.empty(scene.num_gaussians, dtype=np.int64)
    position[sources] = np.arange(sources.size)
    for width in (1, 2, 3, 4):
        for first in range(0, stats.num_groups, width):
            edges = bounds[first : first + width + 1]
            geometry = project_geometry(scene, camera, sources[edges[0] : edges[-1]], CONFIG)
            rows = rows_of(geometry)
            row_ends = np.searchsorted(position[geometry.source_indices], edges[1:])
            for start, end, r0, r1 in zip(edges[:-1], edges[1:], [0, *row_ends], row_ends):
                alone = project_geometry(scene, camera, sources[start:end], CONFIG)
                assert alone.num_input == end - start
                assert alone.num_visible == r1 - r0
                expected = rows_of(alone, np.argsort(alone.depths, kind="stable"))
                for field, theirs in expected.items():
                    mine = rows[field][r0:r1]
                    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field
                    assert mine.tobytes() == theirs.tobytes(), field
