"""Render-farm serving subsystem: trajectory workloads over a worker pool.

This package turns the single-frame evaluation stack into a frame-streaming
render service, one layer above :mod:`repro.exec` (the executor it drives)
and :mod:`repro.eval` (whose table formatter its CLI prints with):

* :mod:`repro.serve.trajectories` — parameterised camera paths (orbit,
  dolly, walkthrough, random-jitter) that expand any evaluation preset into
  an N-frame :class:`~repro.serve.trajectories.RenderJob`;
* :mod:`repro.serve.farm` — the :class:`~repro.serve.farm.RenderFarm`,
  shorthand for one job on a transient
  :class:`~repro.exec.executor.RenderExecutor` (a per-job worker pool, or
  the executor's in-process worker) — aggregating images, statistics
  counters and throughput/latency figures into a
  :class:`~repro.exec.frames.JobResult`;
* ``python -m repro.serve`` (also installed as ``repro-serve``) — the
  command-line front end.

The execution primitives (``FrameSpec``, ``render_frame``, ``JobResult``,
...) live in :mod:`repro.exec.frames`.

Quickstart::

    from repro.serve import RenderFarm, RenderJob, make_trajectory

    job = RenderJob("train", make_trajectory("orbit", num_frames=16))
    result = RenderFarm(num_workers=4).run(job)
    print(result.frames_per_second, result.p95_ms)
"""

from repro.serve.farm import RenderFarm
from repro.serve.trajectories import (
    TRAJECTORY_KINDS,
    RenderJob,
    Trajectory,
    make_trajectory,
)

__all__ = [
    "RenderFarm",
    "RenderJob",
    "TRAJECTORY_KINDS",
    "Trajectory",
    "make_trajectory",
]
