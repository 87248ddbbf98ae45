"""Execution subsystem: the persistent, frame-concurrent render service.

This package is the layer between the scene store and the serving front
ends (``gaussians -> render -> store -> exec -> eval -> serve -> fleet ->
sched``):

* :mod:`repro.exec.frames` — the single-frame primitives
  (:class:`FrameSpec`, :func:`render_frame`, :class:`FrameRecord`,
  :class:`JobResult`) shared by the evaluation runner, the render farm and
  the executor workers — the structural basis of every bitwise-equality
  guarantee in the serving stack;
* :mod:`repro.exec.payload` — scene resolution and encoded-payload
  publication (lossless ``.npz`` or the quantized store container);
* :mod:`repro.exec.worker` — the long-lived worker process loop with its
  bounded resident scene cache (a tier is shipped and decoded at most once
  per worker while resident);
* :mod:`repro.exec.executor` — :class:`RenderExecutor`: persistent
  workers (or, with ``num_workers <= 1``, the same task loop run by one
  in-process worker), ``submit(job) -> JobHandle`` concurrent dispatch,
  crash recovery, and hit/miss/ship-byte accounting.

Quickstart::

    from repro.exec import RenderExecutor
    from repro.serve import RenderJob, make_trajectory

    job = RenderJob("train", make_trajectory("orbit", num_frames=16))
    with RenderExecutor(num_workers=4) as executor:
        first = executor.submit(job).result()       # cold: ship + decode
        again = executor.submit(job).result()       # warm: resident scenes
    print(first.frames_per_second, again.frames_per_second, again.warm)
"""

from repro.exec.executor import ExecutorStats, JobHandle, RenderExecutor
from repro.exec.frames import (
    DATAFLOWS,
    FrameCallback,
    FrameRecord,
    FrameRenderError,
    FrameResult,
    FrameSpec,
    JobResult,
    render_frame,
    usable_cpu_count,
)
from repro.exec.payload import SceneRef
from repro.exec.worker import DEFAULT_WORKER_CACHE_SIZE

__all__ = [
    "DATAFLOWS",
    "DEFAULT_WORKER_CACHE_SIZE",
    "ExecutorStats",
    "FrameCallback",
    "FrameRecord",
    "FrameRenderError",
    "FrameResult",
    "FrameSpec",
    "JobHandle",
    "JobResult",
    "RenderExecutor",
    "SceneRef",
    "render_frame",
    "usable_cpu_count",
]
