"""Persistent render executor: long-lived workers, concurrent job dispatch.

:class:`RenderExecutor` is the execution layer under the farm and the
scheduler (the seed farm built a fresh ``multiprocessing.Pool`` per job and
re-shipped the scene every time):

* **Long-lived workers.**  ``num_workers`` processes are spawned once
  (lazily, on the first pooled submit) and reused by every subsequent job;
  each holds a bounded resident scene cache (see :mod:`repro.exec.worker`),
  so a ``(scene, lod, quant)`` tier is shipped encoded and decoded *at most
  once per worker* while resident.
* **Concurrent job dispatch.**  :meth:`submit` returns a
  :class:`JobHandle` immediately; work units from every in-flight job sit
  in one FIFO and dispatch onto free worker slots as they open, so two
  jobs' frames interleave across the pool.  ``on_frame`` streams frames.
* **Crash containment.**  A worker that raises surfaces the frame as a
  :class:`~repro.exec.frames.FrameRenderError` (index + scene + worker
  traceback) and keeps serving; a worker that *dies* (OOM kill, segfault)
  fails its in-flight frame's job the same way and is replaced, so the
  executor keeps its capacity.  Other jobs are never affected.
* **One execution of a job.**  :meth:`RenderExecutor.submit` plans the
  work units — ``(frame index, camera, shard)`` — once, then queues them
  for the pool or, with ``num_workers <= 1``, runs them in the caller's
  thread as an **in-process worker**: the pool worker's own task body
  (:func:`repro.exec.worker._run_task`) against a parent-side LRU of
  ``worker_cache_size`` tiers, with no process, pipe or thread.  Either
  way a finished unit goes through :meth:`RenderExecutor._deliver`, so
  residency, hit/miss accounting (per work unit), shard compositing, spans
  and failure wrapping exist once.  The in-process mode reports
  ``ship_bytes = loaded_bytes = 0``: nothing crosses a process boundary.

Determinism: rendering is a pure function of (scene, camera, spec), the
encoded payload decodes deterministically, and frames are re-sorted by
index in the aggregate — so pool output (images *and* statistics counters)
is bitwise identical to the in-process mode at every tier, with any number
of concurrent jobs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import tempfile
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from dataclasses import dataclass, field
from typing import Optional

from repro.exec.frames import (
    FrameCallback,
    FrameRecord,
    FrameRenderError,
    FrameSpec,
    JobResult,
    ShardRecord,
    ShardSpec,
    merge_shard_records,
    plan_shards,
    usable_cpu_count,
)
from repro.exec.payload import (
    SCENE_FORMATS,
    SceneRef,
    publish_payload,
    resolve_lod_scene,
    resolve_render_scene,
    scene_key,
)
from repro.exec.worker import DEFAULT_WORKER_CACHE_SIZE, _run_task, worker_main
from repro.gaussians.model import GaussianScene
from repro.obs import DEFAULT_BYTE_BUCKETS, MetricsRegistry, ObsContext, TracerStageHook
from repro.obs.health import HEARTBEAT_GAUGE, REPLIES_COUNTER, Watchdog, summarize_states
from repro.obs.resources import ResourceSampler, record_resource_gauges
from repro.obs.trace import wall_anchor_ns, wall_now_ns
from repro.render.kernels import set_stage_hook
from repro.store.codec import quant_spec

# Layering invariant: this package sits *below* repro.serve (the farm is a
# shorthand for a transient executor), so nothing under repro.exec may
# import repro.serve — importing repro.exec first would then re-enter the
# half-initialised package chain.  The in-process worker's cache is
# therefore the same local OrderedDict LRU a pool worker keeps, not
# repro.serve.cache.LRUCache.

#: Dispatcher poll interval (seconds): bounds result latency and the
#: worker-liveness detection delay without busy-spinning.
_POLL_S = 0.02


def _unit_attrs(handle, job_id: int, index: int, key: tuple, shard) -> dict:
    """Attributes of one work unit's ``request`` span, in both modes."""
    attrs = dict(handle.trace_attrs) if handle is not None else {}
    attrs.update(job=job_id, frame=index, scene=key[0])
    if shard is not None:
        attrs["shard"] = shard.index
    return attrs


@dataclass
class ExecutorStats:
    """Executor-wide accounting, aggregated in the parent."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    frames_rendered: int = 0
    #: Resident-cache events, one per work unit (the in-process worker
    #: counts its parent-side LRU exactly as a pool worker counts its own).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Encoded payloads written by the parent (once per distinct tier).
    published_payloads: int = 0
    published_bytes: int = 0
    #: Bytes workers read+decoded on cache misses ("shipped" per worker).
    loaded_bytes: int = 0
    workers_replaced: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class JobHandle:
    """Futures-style handle of one submitted job.

    Frames accumulate as workers complete them; :meth:`result` blocks until
    the job finishes and returns the aggregate
    :class:`~repro.exec.frames.JobResult` (frames sorted by index), or
    re-raises the job's failure — a
    :class:`~repro.exec.frames.FrameRenderError` for frame/worker failures,
    or the original exception when an ``on_frame`` callback raised.
    """

    def __init__(
        self,
        job,
        spec: FrameSpec,
        num_workers: int,
        on_frame: Optional[FrameCallback],
        trace: dict | None = None,
    ) -> None:
        self.job = job
        self.spec = spec
        self.num_frames = job.num_frames
        self.num_workers = num_workers
        #: Caller-supplied span attributes (request/client ids) stamped on
        #: every dispatch span of this job when tracing is enabled.
        self.trace_attrs = dict(trace) if trace else {}
        self.num_gaussians = 0
        self.ship_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.loaded_bytes = 0
        #: Residency key of a caller-supplied scene (unique per submission);
        #: its payload and in-process cache entry are dropped when the job
        #: ends, so long-lived executors do not accumulate one per submit.
        self._custom_key = None
        self._on_frame = on_frame
        self._frames: list[FrameRecord] = []
        self._error: BaseException | None = None
        self._finished = threading.Event()
        self._start = time.perf_counter()
        self._wall = 0.0
        self._result: JobResult | None = None

    # -- parent/dispatcher side -----------------------------------------
    def _add_frame(self, record: FrameRecord) -> None:
        """Deliver one finished frame: stream it, then accumulate it."""
        if self._on_frame is not None:
            self._on_frame(record)
        self._frames.append(record)
        if len(self._frames) >= self.num_frames:
            self._finish()

    def _finish(self) -> None:
        self._wall = time.perf_counter() - self._start
        self._finished.set()

    def _fail(self, error: BaseException) -> None:
        if self._finished.is_set():
            return
        self._error = error
        self._finish()

    # -- caller side ----------------------------------------------------
    def done(self) -> bool:
        """True once the job completed or failed."""
        return self._finished.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes; return (or raise) its outcome."""
        if not self._finished.wait(timeout):
            raise TimeoutError(
                f"job on scene {self.job.scene!r} did not finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        if self._result is None:
            self._frames.sort(key=lambda record: record.index)
            self._result = JobResult(
                job=self.job,
                spec=self.spec,
                frames=self._frames,
                num_workers=self.num_workers,
                wall_seconds=self._wall,
                num_gaussians=self.num_gaussians,
                ship_bytes=self.ship_bytes,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                loaded_bytes=self.loaded_bytes,
            )
        return self._result


@dataclass
class _FrameTask:
    """One pending work unit: which job, which camera, which payload.

    ``shard`` is ``None`` for a whole-frame unit; a sharded frame enqueues
    one task per :class:`~repro.exec.frames.ShardSpec`, all carrying the
    same frame ``index``, and the parent composites the shard partials
    before the frame is delivered.
    """

    job_id: int
    index: int
    camera: object
    spec: FrameSpec
    ref: SceneRef
    shard: ShardSpec | None = None


@dataclass
class _WorkerSlot:
    """Parent-side view of one worker process.

    ``conn`` is the parent end of the worker's duplex pipe: tasks go down
    it, results come back up it, and a hard worker death surfaces as EOF
    on it (after any results the worker finished sending — kernel socket
    buffers survive the writer, so a crash never loses or reorders
    completed frames).
    """

    worker_id: int
    process: object
    conn: object
    inflight: _FrameTask | None = field(default=None)
    #: Wall time (``obs.trace.wall_now_ns``) the in-flight task was sent; with
    #: tracing on this anchors the parent-side dispatch ("request") span
    #: the worker's shipped spans are re-parented under.
    sent_ns: int = 0
    #: Heartbeat stamps for the health plane, updated by the dispatcher
    #: as replies drain the pipe — liveness piggybacks on the results the
    #: worker already sends, no extra protocol traffic.
    spawned_ns: int = 0
    last_reply_ns: int = 0
    tasks_done: int = 0


class RenderExecutor:
    """A persistent, frame-concurrent render service.

    Parameters
    ----------
    num_workers:
        Worker processes to keep alive.  ``0`` or ``1`` selects the
        in-process mode (one worker running in the caller's thread; no
        processes, no threads); ``None`` uses the number of CPUs actually
        usable by this process.
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or ``None`` for the platform default.  Spawned
        workers re-import :mod:`repro`, so the package must be importable
        when using ``"spawn"``.
    scene_format:
        Serialisation of *lossless* scene payloads: ``"npz"`` (default,
        bit-exact) or ``"text"`` (9-significant-digit debug format).
        Quantized tiers always ship the compressed store container.
    worker_cache_size:
        Scene tiers each worker keeps decoded (LRU) — the in-process
        worker's parent-side cache included.
    obs:
        Optional :class:`repro.obs.ObsContext`.  When given, the executor
        records dispatch/render spans with per-worker lane attribution
        and feeds counters/histograms into the registry; workers collect
        locally and piggyback on the result pipe.  Pure side-channel:
        rendered output is bitwise identical with or without it.
    watchdog:
        Thresholds for :meth:`health`'s live/slow/stalled classification
        (:class:`repro.obs.health.Watchdog`; default thresholds when
        ``None``).  Strictly report-only.

    The executor is a context manager; :meth:`shutdown` stops the workers
    and deletes the published payloads.  ``submit`` is thread-safe.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        mp_context: str | None = None,
        scene_format: str = "npz",
        worker_cache_size: int = DEFAULT_WORKER_CACHE_SIZE,
        obs: ObsContext | None = None,
        watchdog: Watchdog | None = None,
        name: str | None = None,
    ) -> None:
        #: Fleet identity of this executor (e.g. ``executor-0``).  When
        #: set, trace lanes become ``<name>/worker-K`` and per-worker
        #: metric series gain an ``executor`` label, so one shared obs
        #: context can attribute spans and gauges across a whole fleet.
        #: ``None`` (the default) keeps the historical unprefixed lanes.
        self.name = name
        if num_workers is None:
            num_workers = usable_cpu_count()
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if scene_format not in SCENE_FORMATS:
            raise ValueError(f"scene_format must be one of {sorted(SCENE_FORMATS)}")
        if worker_cache_size <= 0:
            raise ValueError("worker_cache_size must be positive")
        self.num_workers = num_workers
        self.mp_context = mp_context
        self.scene_format = scene_format
        self.worker_cache_size = worker_cache_size
        self.stats = ExecutorStats()
        #: Report-only stall classifier for :meth:`health`; never acts on
        #: what it sees (intervention would break bitwise determinism).
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self._obs = obs
        #: Latest cumulative metrics snapshot per worker id (replaced on
        #: every reply, merged into ``obs.metrics`` at shutdown) — replace
        #: semantics make the tallies crash-safe without delta tracking.
        self._worker_metrics: dict[int, list] = {}
        #: Per-worker ``/proc`` sampler: the parent reads each worker's
        #: CPU/RSS/ctx-switches by pid on replies and health polls, so the
        #: resource plane costs zero new protocol traffic.
        self._resources = ResourceSampler()

        self._lock = threading.RLock()
        #: The in-process worker: its resident cache, and a lock that makes
        #: it one worker (units of concurrent submitters run one at a time).
        self._inprocess_cache: "OrderedDict[tuple, GaussianScene]" = OrderedDict()
        self._inprocess_lock = threading.Lock()
        self._payloads: dict[tuple, SceneRef] = {}
        self._pending: deque[_FrameTask] = deque()
        #: Shard partials awaiting siblings, keyed by (job_id, frame index).
        self._shard_parts: dict[tuple[int, int], list[ShardRecord]] = {}
        self._handles: dict[int, JobHandle] = {}
        self._workers: dict[int, _WorkerSlot] = {}
        self._job_seq = itertools.count()
        self._worker_seq = itertools.count()
        self._custom_seq = itertools.count()
        self._payload_seq = itertools.count()
        self._tmpdir = None
        self._dispatcher: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def sequential(self) -> bool:
        """True when jobs run on the in-process worker (no worker pool)."""
        return self.num_workers <= 1

    def _lane(self, base: str) -> str:
        """Trace lane for ``base``: ``<name>/<base>`` on named executors.

        An unnamed executor keeps the historical bare lanes
        (``worker-K``, ``main``); a fleet member named ``executor-E``
        yields ``executor-E/worker-K`` so one trace distinguishes lanes
        across the whole fleet.
        """
        return f"{self.name}/{base}" if self.name else base

    def _worker_label(self, worker_id: int) -> dict:
        """Metric labels of one worker (plus ``executor`` when named)."""
        label = {"worker": str(worker_id)}
        if self.name:
            label["executor"] = self.name
        return label

    def submit(
        self,
        job,
        scene: GaussianScene | None = None,
        on_frame: Optional[FrameCallback] = None,
        trace: dict | None = None,
    ) -> JobHandle:
        """Plan every work unit of ``job`` and run it; return its handle.

        The units (one per frame, or per tile-range shard) are queued for
        the pool or, with ``num_workers <= 1``, rendered in the caller's
        thread (the handle is finished on return).  ``scene`` optionally
        overrides the job's preset scene (LOD-pruned and tier-encoded like
        a resolved one, but never sharing residency with other
        submissions).  ``on_frame`` fires in the parent as each frame
        completes — in index order in-process, in completion order on the
        pool path, serialised by the single dispatcher thread; an exception
        it raises fails the job (surfaced by :meth:`JobHandle.result`).
        ``trace`` optionally carries caller span attributes (e.g. the
        scheduler's request/client ids) onto every dispatch span of this
        job; it is ignored without an :class:`~repro.obs.ObsContext`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
        spec = FrameSpec.for_job(job)
        num_shards = getattr(job, "shards", 1)
        units = [
            (index, camera, shard)
            for index, camera in enumerate(job.cameras())
            for shard in (plan_shards(camera, spec, num_shards) if num_shards > 1 else (None,))
        ]
        if scene is None:
            key = scene_key(job)
        else:
            key = ("custom", next(self._custom_seq), job.lod, quant_spec(job.quant).name)
        if self.sequential:
            return self._run_in_process(job, scene, spec, key, units, on_frame, trace)
        return self._enqueue(job, scene, spec, key, units, on_frame, trace)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor: drain (or abort) jobs, stop workers, clean up.

        With ``wait=True`` (default) every submitted job is allowed to
        finish first; with ``wait=False`` unfinished jobs fail with
        ``RuntimeError`` and count as failed.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            if not wait:
                self._pending.clear()
                for job_id in list(self._handles):
                    self._fail_job(job_id, RuntimeError("executor shut down"))
        if self._started:
            if wait:
                for handle in handles:
                    handle._finished.wait()
            self._stop.set()
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=10.0)
            for slot in self._workers.values():
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):  # pragma: no cover - dead
                    pass
            for slot in self._workers.values():
                slot.process.join(timeout=5.0)
                if slot.process.is_alive():  # pragma: no cover - stuck worker
                    slot.process.terminate()
                    slot.process.join(timeout=1.0)
                try:
                    slot.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            if self._tmpdir is not None:
                try:
                    self._tmpdir.cleanup()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        if self._obs is not None:
            # Fold the final per-worker tallies into the shared registry so
            # exporters see worker-side counters after the pool is gone.
            with self._lock:
                snapshots = list(self._worker_metrics.values())
                self._worker_metrics.clear()
            for snapshot in snapshots:
                self._obs.metrics.merge(snapshot)

    def collect_metrics(self) -> MetricsRegistry:
        """Aggregate executor metrics into a fresh registry (live or final).

        Merges the shared parent registry with the latest cumulative
        snapshot of every worker (replace semantics per worker, so nothing
        double-counts) and derives ``repro_cache_hit_ratio``.  Safe to call
        mid-run or after shutdown; returns an empty registry when the
        executor runs without an :class:`~repro.obs.ObsContext`.
        """
        registry = MetricsRegistry()
        if self._obs is not None:
            registry.merge(self._obs.metrics.snapshot())
            with self._lock:
                snapshots = list(self._worker_metrics.values())
            for snapshot in snapshots:
                registry.merge(snapshot)
            hits = registry.value("repro_scene_cache_hits_total") or 0
            misses = registry.value("repro_scene_cache_misses_total") or 0
            if hits + misses:
                registry.gauge("repro_cache_hit_ratio").set(hits / (hits + misses))
        return registry

    def worker_metrics(self) -> list:
        """Latest cumulative metrics snapshot of every live worker.

        Fleet aggregation uses this to fold many executors sharing one
        obs context into a single registry: the shared parent registry is
        merged once by the caller, and these per-worker snapshots carry
        the executor-local tallies without double-counting it.
        """
        with self._lock:
            return list(self._worker_metrics.values())

    def health(self) -> dict:
        """Live health of the executor: per-worker states + queue depth.

        Reads the heartbeat stamps the dispatcher keeps on each worker
        slot (updated on every reply already flowing through the result
        pipe) and classifies each worker through the :class:`Watchdog`
        from how long its current task has been in flight.  Purely
        observational — safe to call from any thread, mid-run or idle,
        with or without an obs context — and never intervenes: a
        ``stalled`` verdict is a report, not a kill.

        The in-process mode (reported as ``"sequential"``) returns the same
        shape with an empty worker list, so callers can surface the report
        unconditionally.
        """
        now_ns = wall_now_ns()
        with self._lock:
            pending = len(self._pending)
            replaced = self.stats.workers_replaced
            slots = [
                (
                    slot.worker_id,
                    slot.inflight,
                    slot.sent_ns,
                    slot.last_reply_ns or slot.spawned_ns,
                    slot.tasks_done,
                    slot.process.pid,
                )
                for slot in self._workers.values()
            ]
        workers = []
        for worker_id, inflight, sent_ns, beat_ns, tasks_done, pid in sorted(slots):
            busy_s = (now_ns - sent_ns) / 1e9 if inflight is not None else None
            # /proc sampling happens outside the dispatcher lock: it's a
            # couple of file reads per worker and must not stall dispatch.
            resources = self._resources.sample(pid) if pid is not None else None
            cpu = resources["cpu_percent"] if resources is not None else None
            workers.append(
                {
                    "worker": worker_id,
                    # CPU% refines the slow band: a busy-but-progressing
                    # worker on a loaded machine stays live (report-only).
                    "state": self.watchdog.classify(busy_s, cpu),
                    "busy_ms": None if busy_s is None else round(busy_s * 1e3, 3),
                    "cpu_percent": None if cpu is None else round(cpu, 1),
                    "rss_bytes": None if resources is None else resources["rss_bytes"],
                    "inflight": None
                    if inflight is None
                    else {
                        "job": inflight.job_id,
                        "frame": inflight.index,
                        "shard": None if inflight.shard is None else inflight.shard.index,
                    },
                    "last_reply_age_ms": round((now_ns - beat_ns) / 1e6, 3)
                    if beat_ns
                    else None,
                    "tasks_done": tasks_done,
                }
            )
        report = {
            "mode": "sequential" if self.sequential else "pool",
            "num_workers": self.num_workers,
            "pending_tasks": pending,
            "workers": workers,
            "states": summarize_states(workers),
            "workers_replaced": replaced,
        }
        if self.name is not None:
            # Only named (fleet) executors carry their identity; the
            # historical single-executor health shape is unchanged.
            report["executor"] = self.name
        return report

    def __enter__(self) -> "RenderExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Execution: the in-process worker, or the pool's queue
    # ------------------------------------------------------------------
    def _register(self, handle: JobHandle, custom_key) -> int:
        """Admit a job (caller holds the lock): count it, give it an id."""
        self.stats.jobs_submitted += 1
        handle._custom_key = custom_key
        job_id = next(self._job_seq)
        self._handles[job_id] = handle
        return job_id

    def _run_in_process(self, job, scene, spec, key, units, on_frame, trace) -> JobHandle:
        """Run every unit in the caller's thread; return the finished handle.

        A miss resolves the scene in the parent (0 bytes loaded).  Each unit
        gets a ``request`` span on the ``main`` lane with the pool's
        attributes; the kernel stage hook is installed for the whole job.
        """
        handle = JobHandle(job, spec, 0, on_frame, trace)
        with self._lock:
            job_id = self._register(handle, key if scene is not None else None)
        load = functools.partial(resolve_render_scene, job, scene)
        tracer = self._obs.tracer if self._obs is not None else None
        metrics = self._obs.metrics if self._obs is not None else None
        previous_hook = set_stage_hook(TracerStageHook(tracer)) if tracer is not None else None
        error: BaseException = RuntimeError("in-process job interrupted")
        try:
            for index, camera, shard in units:
                if job_id not in self._handles:  # failed by on_frame, or aborted
                    break
                span = (
                    contextlib.nullcontext()
                    if tracer is None
                    else tracer.span(
                        "request",
                        lane=self._lane("main"),
                        attrs=_unit_attrs(handle, job_id, index, key, shard),
                    )
                )
                try:
                    with self._inprocess_lock, span:
                        record, hit, loaded = _run_task(
                            self._inprocess_cache, self.worker_cache_size, job_id, index,
                            camera, spec, key, 0, load, shard, tracer, metrics,
                        )
                except Exception as exc:
                    error = FrameRenderError(job.scene, index, repr(exc))
                    error.__cause__ = exc
                    break
                handle.num_gaussians = record.stats.num_total
                self._deliver(job_id, record, hit, loaded)
        finally:
            if tracer is not None:
                set_stage_hook(previous_hook)
            with self._lock:
                # A no-op for a job that ended; a frame failure (or an
                # interrupt escaping the loop) ends the job here.
                self._fail_job(job_id, error)
        return handle

    def _enqueue(self, job, scene, spec, key, units, on_frame, trace) -> JobHandle:
        """Publish the job's tier once and queue its units for the pool."""
        handle = JobHandle(job, spec, min(self.num_workers, len(units)), on_frame, trace)
        lod_scene = resolve_lod_scene(job, scene)
        handle.num_gaussians = lod_scene.num_gaussians
        with self._lock:
            # Re-check under the lock: a shutdown may have completed since
            # submit()'s entry check, and a job enqueued after the
            # dispatcher stopped would never finish.
            if self._closed:
                raise RuntimeError("executor is shut down")
            self._ensure_started()
            ref, published = self._publish(key, lod_scene, quant_spec(job.quant))
            if published:
                handle.ship_bytes = ref.nbytes
            job_id = self._register(handle, key if scene is not None else None)
            # The shards of one frame spread across free worker slots; their
            # partials reassemble in _deliver before the frame is delivered.
            self._pending.extend(
                _FrameTask(job_id, index, camera, spec, ref, shard)
                for index, camera, shard in units
            )
        return handle

    def _publish(self, key, lod_scene, tier) -> tuple[SceneRef, bool]:
        """Encode tier ``key`` once; reuse the payload for later jobs."""
        existing = self._payloads.get(key)
        if existing is not None:
            return existing, False
        ref = publish_payload(
            lod_scene,
            key,
            self._tmpdir.name,
            tier,
            self.scene_format,
            next(self._payload_seq),
        )
        self._payloads[key] = ref
        self.stats.published_payloads += 1
        self.stats.published_bytes += ref.nbytes
        if self._obs is not None:
            self._obs.metrics.counter("repro_published_payloads_total").inc()
            self._obs.metrics.counter("repro_ship_bytes_total").inc(ref.nbytes)
            self._obs.metrics.histogram(
                "repro_ship_bytes", buckets=DEFAULT_BYTE_BUCKETS
            ).observe(ref.nbytes)
        return ref, True

    def _ensure_started(self) -> None:
        if self._started:
            return
        import multiprocessing

        self._ctx = multiprocessing.get_context(self.mp_context)
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-exec-")
        for _ in range(self.num_workers):
            self._spawn_worker()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-exec-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._started = True

    def _spawn_worker(self) -> None:
        worker_id = next(self._worker_seq)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                child_conn,
                self.worker_cache_size,
                self._obs is not None,
                wall_anchor_ns(),
            ),
            name=f"repro-exec-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end: the child's death must
        # be the last writer closing, so EOF reaches the dispatcher.
        child_conn.close()
        self._workers[worker_id] = _WorkerSlot(
            worker_id, process, parent_conn, spawned_ns=wall_now_ns()
        )

    # ------------------------------------------------------------------
    # Dispatcher (parent-side thread)
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        from multiprocessing import connection as mp_connection

        while not self._stop.is_set():
            self._assign_free_workers()
            with self._lock:
                by_conn = {slot.conn: slot for slot in self._workers.values()}
            ready = mp_connection.wait(list(by_conn), timeout=_POLL_S)
            for conn in ready:
                slot = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(slot)
                    continue
                self._handle_message(slot, message)

    def _assign_free_workers(self) -> None:
        with self._lock:
            for slot in list(self._workers.values()):
                if slot.inflight is not None:
                    continue
                if not self._pending:
                    return
                # Every queued unit belongs to a live job: _fail_job drops a
                # failed job's units and an aborting shutdown clears them all.
                task = self._pending.popleft()
                slot.inflight = task
                slot.sent_ns = wall_now_ns()
                try:
                    slot.conn.send(
                        (
                            "task",
                            task.job_id,
                            task.index,
                            task.camera,
                            task.spec,
                            task.ref,
                            task.shard,
                        )
                    )
                except (BrokenPipeError, OSError):
                    # The worker died before the task reached it: the frame
                    # is innocent, so requeue it (front, keeping order) and
                    # let the death path replace the worker.
                    slot.inflight = None
                    self._pending.appendleft(task)
                    self._on_worker_death(slot, requeue_inflight=False)

    def _handle_message(self, slot: _WorkerSlot, message) -> None:
        # Heartbeat: every reply (ok or err) proves the worker alive.
        slot.last_reply_ns = wall_now_ns()
        slot.tasks_done += 1
        kind = message[0]
        if kind == "ok":
            _, _, job_id, record, hit, loaded, obs_payload = message
            self._ingest_worker_obs(slot, obs_payload)
            with self._lock:
                slot.inflight = None
            self._deliver(job_id, record, hit, loaded)
        else:  # "err"
            _, _, job_id, index, error, tb, obs_payload = message
            self._ingest_worker_obs(slot, obs_payload, error=error)
            with self._lock:
                slot.inflight = None
                handle = self._handles.get(job_id)
                scene_name = handle.job.scene if handle is not None else "?"
                self._fail_job(
                    job_id,
                    FrameRenderError(
                        scene_name,
                        index,
                        f"{error}\n--- worker traceback ---\n{tb}",
                    ),
                )

    def _deliver(self, job_id: int, record, hit: bool, loaded: int) -> None:
        """End one work unit in either mode: account it (hit/miss/loaded),
        composite shards, deliver the frame once whole, complete the job."""
        with self._lock:
            handle = self._handles.get(job_id)
            for tally in (self.stats, handle) if handle is not None else (self.stats,):
                if hit:
                    tally.cache_hits += 1
                else:
                    tally.cache_misses += 1
                    tally.loaded_bytes += loaded
            if isinstance(record, ShardRecord):
                if handle is None:  # job already failed; drop the partial
                    return
                # Bank the shard partial; the frame is delivered only once
                # every sibling has arrived and the compositor has
                # reassembled the whole-frame record.
                parts_key = (job_id, record.index)
                parts = self._shard_parts.setdefault(parts_key, [])
                parts.append(record)
                if len(parts) < record.shard.num_shards:
                    return
                del self._shard_parts[parts_key]
                record = merge_shard_records(parts)
            self.stats.frames_rendered += 1
        if handle is None:  # job already failed; drop the late frame
            return
        # Deliver outside the lock: on_frame is user code — run under the
        # lock it would stall every assignment and deadlock any callback
        # that synchronises with a thread calling submit().
        try:
            handle._add_frame(record)
        except Exception as exc:  # on_frame callback raised
            with self._lock:
                self._fail_job(job_id, exc)
            return
        if handle.done():
            with self._lock:
                # Popped here or by an aborting shutdown, never both.
                if self._handles.pop(job_id, None) is not None:
                    self.stats.jobs_completed += 1
                    self._release_custom_payload(handle)

    def _ingest_worker_obs(self, slot: _WorkerSlot, obs_payload, error=None) -> None:
        """Adopt one reply's piggybacked spans/metrics into the parent trace.

        The parent-side dispatch window (``sent_ns`` → now) becomes the
        ``request`` span on the worker's lane; the worker's shipped span
        trees (job → frame → shard/render → stages) are re-parented under
        it, and the worker's cumulative metrics snapshot replaces the
        previous one for that worker id.
        """
        if self._obs is None or obs_payload is None:
            return
        recv_ns = wall_now_ns()
        spans, metrics_snapshot = obs_payload
        tracer = self._obs.tracer
        lane = self._lane(f"worker-{slot.worker_id}")
        task = slot.inflight
        attrs = {"worker": slot.worker_id}
        if task is not None:
            with self._lock:
                handle = self._handles.get(task.job_id)
            attrs.update(_unit_attrs(handle, task.job_id, task.index, task.ref.key, task.shard))
        if error is not None:
            attrs["error"] = error
        unit = tracer.record(
            "request",
            lane=lane,
            t0_ms=slot.sent_ns / 1e6,
            dur_ms=(recv_ns - slot.sent_ns) / 1e6,
            attrs=attrs,
        )
        tracer.ingest(spans, parent=unit)
        # Mirror the heartbeat into per-worker gauges so exported metrics
        # carry liveness without any extra worker->parent traffic.
        worker_label = self._worker_label(slot.worker_id)
        self._obs.metrics.gauge(HEARTBEAT_GAUGE, worker_label).set(recv_ns / 1e6)
        self._obs.metrics.counter(REPLIES_COUNTER, worker_label).inc()
        # Piggyback the resource plane on the same reply: a couple of
        # /proc reads by pid, no extra worker->parent traffic.
        if slot.process.pid is not None:
            sample = self._resources.sample(slot.process.pid)
            if sample is not None:
                record_resource_gauges(self._obs.metrics, sample, worker_label)
        with self._lock:
            self._worker_metrics[slot.worker_id] = metrics_snapshot

    def _fail_job(self, job_id: int, error: BaseException) -> None:
        """Abort one job: drop its queued frames, fail its handle."""
        handle = self._handles.pop(job_id, None)
        if handle is None:
            return
        self._pending = deque(t for t in self._pending if t.job_id != job_id)
        for parts_key in [k for k in self._shard_parts if k[0] == job_id]:
            del self._shard_parts[parts_key]
        handle._fail(error)
        self.stats.jobs_failed += 1
        self._release_custom_payload(handle)

    def _release_custom_payload(self, handle: JobHandle) -> None:
        """Drop a finished job's caller-supplied scene (never reused).

        Named-preset tiers stay resident for reuse; custom-scene keys are
        unique per submission, so keeping their payload file (pool) or
        decoded scene (in-process cache) would leak one per submit for the
        executor's lifetime.  A worker still holding an in-flight frame of
        a *failed* custom job may lose the race and find the file gone —
        its error lands on the already-dead job and is dropped.
        """
        key = handle._custom_key
        if key is None:
            return
        self._inprocess_cache.pop(key, None)
        ref = self._payloads.pop(key, None)
        if ref is None:
            return
        try:
            Path(ref.path).unlink()
        except OSError:  # pragma: no cover - already gone
            pass

    def _on_worker_death(self, slot: _WorkerSlot, requeue_inflight: bool = True) -> None:
        """Replace a dead worker; fail the frame it was holding (if any).

        Death reaches the dispatcher as EOF on the worker's pipe, strictly
        *after* every result the worker finished sending, so only the
        genuinely unfinished in-flight frame is charged to the crash.
        """
        with self._lock:
            if self._workers.get(slot.worker_id) is not slot:
                return  # already reaped
            del self._workers[slot.worker_id]
            if slot.process.pid is not None:
                # Drop the CPU baseline so a recycled pid can't inherit it.
                self._resources.forget(slot.process.pid)
            slot.process.join(timeout=5.0)
            code = slot.process.exitcode
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            task = slot.inflight
            if self._obs is not None:
                # Close the lane in the trace: mark the death, and flush a
                # partial dispatch span for the task the worker was holding
                # (its worker-side spans died with it; the parent-side
                # window is all that remains).
                tracer = self._obs.tracer
                lane = self._lane(f"worker-{slot.worker_id}")
                now_ms = wall_now_ns() / 1e6
                tracer.instant(
                    "lane_closed",
                    lane=lane,
                    t_ms=now_ms,
                    attrs={"worker": slot.worker_id, "exit_code": code},
                )
                if task is not None:
                    tracer.record(
                        "request",
                        lane=lane,
                        t0_ms=slot.sent_ns / 1e6,
                        dur_ms=now_ms - slot.sent_ns / 1e6,
                        attrs={
                            "worker": slot.worker_id,
                            "job": task.job_id,
                            "frame": task.index,
                            "error": f"worker process died (exit code {code})",
                        },
                    )
                self._obs.metrics.counter("repro_workers_replaced_total").inc()
            if requeue_inflight and task is not None and task.job_id in self._handles:
                scene_name = self._handles[task.job_id].job.scene
                self._fail_job(
                    task.job_id,
                    FrameRenderError(
                        scene_name,
                        task.index,
                        f"worker process died (exit code {code}); "
                        "a replacement worker was spawned",
                    ),
                )
            self._spawn_worker()
            self.stats.workers_replaced += 1
