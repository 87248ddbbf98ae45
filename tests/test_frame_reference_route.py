"""``render_frame`` under ``FrameSpec(backend="reference")`` renders the reference.

The stack benchmark's ``paper_frames`` oracle checks render each arm's spec
again as ``dataclasses.replace(spec, backend="reference")`` and compare it
with the engine.  That comparison only means something if the route really
reaches :mod:`repro.render.reference`: the engines are bitwise equal to it,
so a route that fell back to the engine would pass every image check.  This
pins the route on a quick preset, both dataflows and one tile shard: the
routed frame is the reference function's, bit for bit with every counter
equal, the reference's own loops ran, and the default spec never runs them.
"""

from __future__ import annotations

import dataclasses

import pytest
from test_engine_equivalence import assert_stats_equal

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.exec.frames import FrameSpec, render_frame
from repro.render import reference
from repro.render.kernels import shard_intervals
from repro.render.reference import render_gaussianwise_reference, render_tilewise_reference
from repro.render.tile_raster import frame_tile_count

SPECS = {
    "tile": FrameSpec(),
    "tile-float32": FrameSpec(dtype="float32"),
    "gauss": FrameSpec(dataflow="gaussianwise"),
    "gauss-nocc-aabb": FrameSpec(dataflow="gaussianwise", enable_cc=False, boundary_mode="aabb"),
}


@pytest.fixture(scope="module")
def lego():
    return load_scene_and_camera(EvalSetup("lego", quick=True))


@pytest.fixture()
def reference_calls(monkeypatch):
    """Counts the reference's own per-frame loops: its pair builder
    (tile-wise) and its per-group projection (Gaussian-wise)."""
    calls = []
    for name in ("_build_tile_pairs_reference", "project_geometry"):
        original = getattr(reference, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(reference, name, spy)
    return calls


def direct_reference(scene, camera, spec, tile_shard=None):
    config = spec.render_config()
    if spec.dataflow == "tilewise":
        return render_tilewise_reference(scene, camera, config, tile_shard=tile_shard)
    return render_gaussianwise_reference(
        scene, camera, config, enable_cc=spec.enable_cc, boundary_mode=spec.boundary_mode
    )


@pytest.mark.parametrize("arm", sorted(SPECS))
def test_reference_spec_renders_the_reference(lego, reference_calls, arm):
    scene, camera = lego
    spec = SPECS[arm]
    routed = render_frame(scene, camera, dataclasses.replace(spec, backend="reference"))
    assert reference_calls, "the reference spec did not reach repro.render.reference"
    expected = direct_reference(scene, camera, spec)
    assert routed.image.dtype == expected.image.dtype
    assert routed.image.tobytes() == expected.image.tobytes()
    assert_stats_equal(routed.stats, expected.stats)


def test_reference_spec_renders_a_tile_shard(lego, reference_calls):
    scene, camera = lego
    spec = FrameSpec(backend="reference")
    interval = shard_intervals(frame_tile_count(camera.width, camera.height), 3)[1]
    routed = render_frame(scene, camera, spec, tile_shard=interval)
    assert reference_calls
    expected = direct_reference(scene, camera, spec, tile_shard=interval)
    assert routed.tile_shard == expected.tile_shard == interval
    assert routed.image.tobytes() == expected.image.tobytes()
    assert_stats_equal(routed.stats, expected.stats)


@pytest.mark.parametrize("arm", sorted(SPECS))
def test_default_spec_never_runs_the_reference(lego, reference_calls, arm):
    scene, camera = lego
    render_frame(scene, camera, SPECS[arm])
    assert reference_calls == []
