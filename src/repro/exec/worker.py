"""Worker-process side of the persistent render executor.

Each worker is a long-lived process running :func:`worker_main`: it reads
frame tasks off its end of a duplex :func:`multiprocessing.Pipe`, renders
them against a **bounded resident scene cache**, and sends results (or
pickle-safe failure tuples) back on the same connection.

One pipe per worker — deliberately, instead of shared queues:

* ``Connection.send`` is synchronous (no feeder thread), so a result a
  worker finished sending survives in the kernel buffer even if the worker
  dies the next instant, and the parent reads it *before* the EOF that
  announces the death — results are never lost or reordered around a
  crash.
* A hard worker death (OOM kill, segfault) surfaces to the parent as
  ``EOFError`` on the connection, which the dispatcher handles by failing
  the in-flight frame and spawning a replacement — no liveness polling.
* No hidden threads exist on either side, so spawning a replacement
  worker from the dispatcher thread cannot fork mid-operation queue
  feeder state.

Residency contract: a scene tier — keyed by the payload's
``(scene, lod, quant)`` :class:`~repro.exec.payload.SceneRef.key` — is
loaded (read + decoded) *at most once per worker* while it stays resident.
The first frame of a tier pays the load and reports ``loaded_bytes``; every
later frame of the same tier reports a cache hit and renders immediately.
The cache is a small LRU (:data:`DEFAULT_WORKER_CACHE_SIZE` tiers) so a
worker serving many tenants cannot grow without bound; an evicted tier is
simply re-loaded on next touch (and counted as a fresh miss).  Hits and
misses are counted per work unit (a frame, or one shard of a frame).  The
executor's in-process mode (``num_workers <= 1``) is this worker's task
body, :func:`_run_task`, called in the parent against a parent-side cache.

Messages (all plain tuples, pickle-friendly):

* parent -> worker: ``("task", job_id, frame_index, camera, spec,
  scene_ref, shard)`` — ``shard`` is a
  :class:`~repro.exec.frames.ShardSpec` for a tile-range shard of the
  frame, or ``None`` for a whole frame — or ``("stop",)``;
* worker -> parent: ``("ok", worker_id, job_id, record, hit,
  loaded_bytes, obs)`` where ``record`` is a
  :class:`~repro.exec.frames.FrameRecord` (whole frame) or a
  :class:`~repro.exec.frames.ShardRecord` (shard partial, merged by the
  parent), or ``("err", worker_id, job_id, frame_index, error_repr,
  traceback_str, obs)``.  ``obs`` piggybacks observability on the result
  pipe: ``None`` when the executor runs without an
  :class:`~repro.obs.ObsContext`, else ``(spans, metrics_snapshot)`` —
  the spans drained since the previous reply (the parent re-parents them
  under its own dispatch span, preserving lane attribution) and the
  *cumulative* metrics snapshot of this worker (the parent keeps the
  latest per worker, so nothing double-counts and the tallies survive a
  later crash of the worker).

Exceptions inside a frame surface as ``"err"`` tuples rather than killing
the worker.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import traceback

from repro.exec.frames import render_unit
from repro.gaussians.io import load_scene_npz
from repro.store.cache import LRUCache
from repro.store.codec import load_scene_store

#: Worker-side scene loaders per shipping format.  ``"store"`` is the
#: quantized codec container: the parent ships the *encoded* payload and
#: the worker's load decodes it, so quantized tiers cross the process
#: boundary at their compressed size.
_SCENE_LOADERS = {"npz": load_scene_npz, "store": load_scene_store}

#: Resident scene tiers each worker keeps decoded (LRU-bounded).
DEFAULT_WORKER_CACHE_SIZE = 8

#: Test-only crash injection: set to ``"<scene>:<frame_index>"`` in the
#: parent's environment *before the executor starts* and the worker that
#: picks up that frame dies hard (``os._exit``) without replying — the
#: deterministic stand-in for an OOM kill / segfault that the
#: crash-recovery tests use to exercise worker replacement.  Unset in any
#: normal deployment.
CRASH_ENV = "REPRO_EXEC_TEST_CRASH"
_CRASH_EXIT_CODE = 87

#: Test-only stall injection: set to ``"<scene>:<frame_index>:<seconds>"``
#: and the worker that picks up that frame sleeps that long *before*
#: rendering — the deterministic stand-in for a wedged worker that the
#: watchdog tests use.  The sleep happens outside the render, so the
#: frame's bytes are exactly what they would have been: the health plane
#: observes the stall, it never changes the output.  Unset in any normal
#: deployment.
STALL_ENV = "REPRO_EXEC_TEST_STALL"


def _crash_requested(scene: str, frame_index: int) -> bool:
    directive = os.environ.get(CRASH_ENV)
    return directive is not None and directive == f"{scene}:{frame_index}"


def _stall_requested(scene: str, frame_index: int) -> float:
    directive = os.environ.get(STALL_ENV)
    if not directive:
        return 0.0
    scene_frame, _, seconds = directive.rpartition(":")
    if scene_frame == f"{scene}:{frame_index}":
        return float(seconds)
    return 0.0


def _span(tracer, name: str, attrs: dict | None = None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, attrs=attrs)


def _run_task(cache, job_id, index, camera, spec, key, nbytes, load, shard, tracer, metrics):
    """Render one work unit against ``cache``; record spans/metrics when on.

    ``cache`` is the resident :class:`~repro.store.cache.LRUCache`, which
    carries its own bound.  ``key`` is the residency key —
    ``(scene, lod, quant)`` or ``("custom", n, lod, quant)`` — and
    ``load()`` produces the decoded scene on a miss, which is charged
    ``nbytes`` loaded bytes.  A pool
    worker passes its payload reader and the payload size; the executor's
    in-process mode calls this same function with a scene resolver and
    ``0`` bytes, so residency is defined once for both modes.
    """
    with _span(tracer, "job", {"job": job_id, "frame": index, "scene": key[0]}):
        scene = cache.get(key)
        hit = scene is not None
        loaded = 0
        if not hit:
            tier = "/".join(str(part) for part in key[1:])
            with _span(tracer, "decode", {"tier": tier, "bytes": nbytes}) as decode_span:
                scene = load()
            loaded = nbytes
            cache.put(key, scene)
            if metrics is not None:
                metrics.counter("repro_scene_cache_misses_total").inc()
                metrics.counter("repro_loaded_bytes_total").inc(loaded)
                metrics.histogram("repro_decode_ms").observe(decode_span.dur_ms)
        elif metrics is not None:
            metrics.counter("repro_scene_cache_hits_total").inc()
        if shard is None:
            unit_span = ("render", None)
        else:
            unit_span = (
                "shard",
                {
                    "shard": shard.index,
                    "num_shards": shard.num_shards,
                    "tiles": [shard.tile_lo, shard.tile_hi],
                },
            )
        with _span(tracer, "frame", {"frame": index}), _span(tracer, *unit_span):
            record = render_unit(scene, (index, camera), spec, shard)
        if metrics is not None:
            metrics.histogram("repro_render_ms").observe(record.render_ms)
            kind = "repro_frames_rendered_total" if shard is None else "repro_shards_rendered_total"
            metrics.counter(kind).inc()
    return record, hit, loaded


def worker_main(
    worker_id: int,
    conn,
    cache_size: int,
    obs_enabled: bool = False,
    wall_anchor_ns: int | None = None,
) -> None:
    """Run one worker: render tasks forever against a resident scene cache.

    ``wall_anchor_ns`` is the parent's span-clock anchor
    (:func:`repro.obs.trace.wall_anchor_ns`); adopting it keeps this
    worker's spans inside the parent's dispatch windows whatever the start
    method and whenever the worker was spawned.
    """
    cache = LRUCache(maxsize=cache_size)
    tracer = metrics = None
    if obs_enabled:
        # Private per-process collectors; drained spans and cumulative
        # metric snapshots ship back with every reply.  The stage hook is
        # installed here (this process) so kernel-level project/pair/blend
        # spans nest under this worker's frame spans.
        from repro.obs import MetricsRegistry, Tracer, TracerStageHook
        from repro.obs.trace import adopt_wall_anchor_ns
        from repro.render.kernels import set_stage_hook

        if wall_anchor_ns is not None:
            adopt_wall_anchor_ns(wall_anchor_ns)
        tracer = Tracer(origin=f"w{worker_id}", default_lane=f"worker-{worker_id}")
        metrics = MetricsRegistry()
        set_stage_hook(TracerStageHook(tracer))
    while True:
        try:
            message = conn.recv()
        except EOFError:  # parent went away; nothing left to serve
            return
        if message[0] == "stop":
            return
        _, job_id, index, camera, spec, ref, shard = message
        if _crash_requested(ref.key[0], index):  # pragma: no cover - exits
            os._exit(_CRASH_EXIT_CODE)
        stall_s = _stall_requested(ref.key[0], index)
        if stall_s > 0.0:
            time.sleep(stall_s)
        try:
            load = functools.partial(_SCENE_LOADERS[ref.fmt], ref.path)
            record, hit, loaded = _run_task(
                cache, job_id, index, camera, spec,
                ref.key, ref.nbytes, load, shard, tracer, metrics,
            )
        except Exception as exc:
            if metrics is not None:
                metrics.counter("repro_task_errors_total").inc()
            obs = None if tracer is None else (tracer.drain(), metrics.snapshot())
            conn.send(
                ("err", worker_id, job_id, index, repr(exc), traceback.format_exc(), obs)
            )
            continue
        obs = None if tracer is None else (tracer.drain(), metrics.snapshot())
        conn.send(("ok", worker_id, job_id, record, hit, loaded, obs))
