"""Cross-process determinism of the seeded ``jitter`` trajectory.

The request scheduler replays workloads by seed, and jitter requests carry
their perturbation seed across process boundaries (a spawned farm worker,
a remote replay).  That only works if ``Trajectory(kind="jitter", seed=s)``
expands to *bitwise identical* cameras in every process — i.e. NumPy's
seeded ``default_rng`` stream and the camera construction chain are fully
deterministic under ``spawn`` (fresh interpreter, re-imported modules),
not just within one process.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.gaussians.presets import eval_preset
from repro.serve.trajectories import make_trajectory

SEED = 1234
NUM_FRAMES = 5


def jitter_camera_matrices(scene: str, seed: int, num_frames: int) -> np.ndarray:
    """Stacked 4x4 world-to-camera matrices of a seeded jitter trajectory.

    Module-level so ``spawn`` can import it by reference in the child
    interpreter (the test module is importable from the tests directory).
    """
    trajectory = make_trajectory(
        "jitter", num_frames=num_frames, view_index=2, seed=seed
    )
    cameras = trajectory.cameras(eval_preset(scene, quick=True))
    return np.stack([camera.world_to_camera for camera in cameras])


@pytest.mark.parametrize("scene", ["train", "drjohnson"])
def test_spawned_worker_reproduces_jitter_cameras_bitwise(scene):
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    parent = jitter_camera_matrices(scene, SEED, NUM_FRAMES)
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=1) as pool:
        child = pool.apply(jitter_camera_matrices, (scene, SEED, NUM_FRAMES))
    # Bitwise, not approx: the scheduler's replay guarantee is exact.
    assert parent.dtype == child.dtype
    assert np.array_equal(parent, child)


def test_same_seed_same_cameras_in_process():
    a = jitter_camera_matrices("train", SEED, NUM_FRAMES)
    b = jitter_camera_matrices("train", SEED, NUM_FRAMES)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = jitter_camera_matrices("train", SEED, NUM_FRAMES)
    b = jitter_camera_matrices("train", SEED + 1, NUM_FRAMES)
    assert not np.array_equal(a, b)
