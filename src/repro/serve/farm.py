"""Render farm: one job on a transient executor.

A :class:`RenderFarm` takes a :class:`~repro.serve.trajectories.RenderJob`
(scene preset x camera trajectory x dataflow), renders every frame and
aggregates the images, statistics counters and latencies into a
:class:`~repro.exec.frames.JobResult`.  It owns no execution machinery:
``RenderFarm(num_workers=4).run(job)`` is shorthand for::

    with RenderExecutor(num_workers=min(4, work_units), ...) as executor:
        return executor.submit(job).result()

— a transient executor sized to the job's work units (frames x shards),
started for that one job and shut down after it: the per-job-pool cold
path that scripts and benchmarks measure.  A value of ``<= 1`` (one worker
asked for, or a single work unit) selects the executor's in-process mode.
Anything long-lived — repeated jobs on warm workers, overlapping
submissions — uses a :class:`~repro.exec.executor.RenderExecutor` directly.

The executor's contracts therefore hold here unchanged: pool output is
bitwise identical to the in-process mode (images *and* statistics
counters) at every ``(lod, quant)`` tier, quantized tiers ship the encoded
payload, frames stream through ``on_frame``, and failures surface as
:class:`~repro.exec.frames.FrameRenderError` with the frame index and
scene name.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.executor import RenderExecutor
from repro.exec.frames import FrameCallback, JobResult, usable_cpu_count
from repro.gaussians.model import GaussianScene


class RenderFarm:
    """One job at a time, each on a transient :class:`RenderExecutor`.

    Parameters
    ----------
    num_workers:
        Most worker processes a job's transient executor may start (it
        never starts more than the job has work units); ``<= 1`` renders
        in-process.  ``None`` uses the number of CPUs actually usable by
        this process (scheduler affinity / cgroup limits respected, not
        the host core count).
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or ``None`` for the platform default.  Spawned
        workers re-import :mod:`repro`, so the package must be importable
        (installed or on ``PYTHONPATH``) when using ``"spawn"``.
    obs:
        Optional :class:`~repro.obs.ObsContext` handed to every transient
        executor, so farm runs trace and meter like executor runs.
        Observability is a pure side channel: rendered output is bitwise
        identical with or without it.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        mp_context: str | None = None,
        obs=None,
    ) -> None:
        if num_workers is None:
            num_workers = usable_cpu_count()
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        self.num_workers = num_workers
        self.mp_context = mp_context
        self.obs = obs

    # ------------------------------------------------------------------
    def run(
        self,
        job,
        scene: GaussianScene | None = None,
        on_frame: Optional[FrameCallback] = None,
    ) -> JobResult:
        """Render every frame of ``job`` and aggregate the results.

        Parameters
        ----------
        job:
            The trajectory job to render.
        scene:
            Optional pre-built scene.  By default the job's evaluation
            preset is resolved through the scene store when it names a store
            entry (``preset.store``), otherwise instantiated exactly as
            :mod:`repro.eval.runner` does
            (``make_scene(preset.name, scale=preset.scale)``).
        on_frame:
            Optional per-frame completion callback, invoked in the parent
            process as each frame finishes — in index order in-process, in
            completion order on the pool path.  This is how a caller
            observes latency mid-job instead of waiting for the aggregate
            :class:`~repro.exec.frames.JobResult`; exceptions it raises
            abort the job.

        Raises
        ------
        FrameRenderError
            When any frame fails to render, identifying the failing frame
            index and scene name (with the worker-side traceback for pool
            failures) instead of a raw pool traceback.

        The job's quality tier is applied to the base scene before any
        frame renders: LOD level ``job.lod`` prunes by importance, then
        tier ``job.quant`` round-trips the pruned scene through the
        quantized codec.  On the pool path the *encoded* payload is what
        ships to the workers (``ship_bytes`` in the result records its
        on-disk size); decoding is deterministic, so pool frames stay
        bitwise identical to the in-process mode at every tier, and the
        lossless tier stays bitwise identical to the legacy pipeline.
        """
        # Work units, not frames, size the pool: a sharded single-frame job
        # still spreads its tile-range shards over workers.
        work_units = job.num_frames * job.shards
        with RenderExecutor(
            num_workers=min(self.num_workers, work_units),
            mp_context=self.mp_context,
            obs=self.obs,
        ) as transient:
            return transient.submit(job, scene=scene, on_frame=on_frame).result()
