"""``serve_warm`` and ``serve_cold``: requests through the executor pool.

Both drive one ``RenderExecutor(num_workers=2)`` from this single process
with quick-preset jobs; they differ in what the workers hold.

``serve_warm`` — the workers' caches hold the whole working set (six scenes
x three tiers).  Phase A is an open loop: one seeded ``generate_workload``
stream (Zipf over the six scenes; 1-frame requests sharded x2, 2- and
4-frame requests unsharded; lossless/float64, fp16/float32 and lod1/compact
tiers; thinned to a fixed composition, see ``ServeWarm._stream``) is
replayed in wall time at a frozen fixed rate without ever waiting for a
completion, each request timed from when it was due.  Phase B is a closed
loop: two clients keep the same pool saturated with the same requests.

``serve_cold`` — one closed-loop client; every request asks for a
``(scene, lod, quant)`` tier nobody has seen (a fresh pool per round of 24
tiers, ``worker_cache_size=2``), so each pays LOD selection, encode, publish,
ship and worker decode; every 6th goes through a transient
``RenderFarm(num_workers=2)`` and also pays pool start-up (every 6th and not
ISSUE 12's every 8th: with 1 in 6 the 90th percentile sits well inside the
farm requests; with 1 in 8 it sits on their edge and flips between ~120 ms
and ~600 ms from run to run).  The set of tiers is fixed; the seed shuffles
their order and jitters every camera, so seeds offer the same work.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.eval.scenes import eval_preset
from repro.exec import RenderExecutor
from repro.exec.frames import FrameSpec, render_frame
from repro.exec.payload import resolve_render_scene
from repro.gaussians.synthetic import BENCHMARK_SCENES, make_scene
from repro.obs import ObsContext
from repro.sched.scheduler import RequestScheduler, ServiceModel
from repro.sched.workload import Request, WorkloadSpec, generate_workload
from repro.serve import RenderFarm, RenderJob, make_trajectory
from repro.store import (
    SceneStore,
    decode_payload,
    encode_scene,
    payload_nbytes,
    quant_spec,
    select_lod,
)

import stack_catalog as catalog
from stack_harness import Check, Measurement, median, pct, speed_reading, timed_passes
from stack_paper import JITTER_SIGMA, capped_psnr

WORKERS = 2

#: Phase-A arrival rate (requests/s, evenly spaced), frozen: ~0.55
#: utilisation of the 2-worker pool on the 2-CPU reference box.
WARM_RATE_RPS = 8.5

#: Share of the time box given to the open loop; the rest saturates.  One
#: "pass" of the open loop is this many requests, so the three passes an
#: end-to-end run never goes below are the >= 100 requests that leave >= 10
#: beyond the 90th percentile.
PHASE_A_SHARE = 0.6
OPEN_LOOP_PASS = 34

#: Share of the open loop's requests asking for 1, 2 and 4 frames: the median
#: sits well inside the 1-frame class and the 90th percentile in the middle of
#: the widest band of the tail, the most popular scene's 4-frame requests
#: (ranked by cost from the top, they are requests 7 to 14 in 100).  A
#: percentile on the edge between two classes flips between them from seed to
#: seed (it did, by 30 %, with 12.5 % each of 3- and 4-frame requests).
WARM_FRAME_SHARES = {1: 0.7, 2: 0.13, 4: 0.17}

#: Tiers the requests of one (scene, frame count) class are served at, in
#: turn: half lossless/float64, a quarter each fp16/float32 and lod1/compact.
_F64, _F32, _LOD1 = (0, "lossless", "float64"), (0, "fp16", "float32"), (1, "compact", "float64")
WARM_TIERS = (_F64, _F32, _LOD1)
WARM_TIER_TURNS = (_F64, _F32, _F64, _LOD1)

#: Requests idle-probed again in a traced run (queue wait, overhead, sharding).
IDLE_PROBES = 24

#: float32 frames are held to this PSNR against the float64 oracle.
F32_PSNR_FLOOR_DB = 80.0

#: Results (images) kept per engine dtype for the output check; the rest are
#: reduced to their numbers so memory does not grow with the request count.
KEEP_PER_DTYPE = 3


@dataclass(frozen=True)
class Shape:
    """One request shape of a catalogue (camera filled in per seed)."""

    scene: str
    frames: int
    shards: int
    lod: int
    quant: str
    dtype: str
    anchor: int

    def job(self, jitter_seed: int) -> RenderJob:
        return RenderJob(
            self.scene,
            make_trajectory(
                "jitter",
                num_frames=self.frames,
                view_index=self.anchor,
                seed=jitter_seed,
                jitter_sigma=JITTER_SIGMA,
            ),
            quick=True,
            lod=self.lod,
            quant=self.quant,
            shards=self.shards,
            dtype=self.dtype,
        )


def _cold_catalogue(smoke: bool) -> list[Shape]:
    tiers = [(0, "lossless", "float64"), (0, "fp16", "float32"), (1, "compact", "float64"), (2, "fp16", "float32")]
    scenes = ("train", "lego") if smoke else BENCHMARK_SCENES
    return [
        Shape(scene, 1, 1, *tier, anchor=(i + j) % 8)
        for i, scene in enumerate(scenes)
        for j, tier in enumerate(tiers)
    ]


class _Tracked:
    """One request: timestamps from ``on_frame``, numbers from its result."""

    def __init__(self, job, due: float, shape: Shape | None = None, via_farm: bool = False) -> None:
        self.job = job
        self.shape = shape
        self.via_farm = via_farm
        self.due = due
        self.sent = self.submitted = self.done = 0.0
        self.frame_times: list[float] = []
        self.handle = None
        self.error: Exception | None = None
        #: Filled by ``settle``; ``result`` survives only on kept requests.
        self.result = None
        self.render_ms: list[float] = []
        self.cache_hits = self.cache_misses = self.ship_bytes = self.loaded_bytes = 0

    def on_frame(self, record) -> None:
        self.frame_times.append(time.perf_counter())

    def send(self, executor) -> None:
        self.sent = time.perf_counter()
        self.handle = executor.submit(self.job, on_frame=self.on_frame)
        self.submitted = time.perf_counter()

    def finish(self) -> None:
        try:
            self.settle(self.handle.result(timeout=60.0))
        except Exception as exc:  # a failed request is counted, not raised
            self.error = exc
        self.handle = None

    def run_on_farm(self) -> None:
        """The whole request through a transient farm (pool start inside)."""
        self.sent = self.submitted = time.perf_counter()
        try:
            self.settle(RenderFarm(num_workers=WORKERS).run(self.job, on_frame=self.on_frame))
        except Exception as exc:  # a failed request is counted, not raised
            self.error = exc

    def settle(self, result) -> None:
        self.done = time.perf_counter()
        self.result = result
        self.render_ms = [frame.render_ms for frame in result.frames]
        self.cache_hits, self.cache_misses = result.cache_hits, result.cache_misses
        self.ship_bytes, self.loaded_bytes = result.ship_bytes, result.loaded_bytes

    @property
    def ok(self) -> bool:
        return self.error is None and len(self.frame_times) == self.job.num_frames

    @property
    def latency_ms(self) -> float:
        """Due time to the moment the last frame reached this process."""
        return (max(self.frame_times) - self.due) * 1000.0

    @property
    def first_frame_ms(self) -> float:
        """Due time to the first ``on_frame`` callback."""
        return (min(self.frame_times) - self.due) * 1000.0

    @property
    def wall_ms(self) -> float:
        """Due time to the caller holding the result (pool start-up and
        teardown of a farm request included)."""
        return (self.done - self.due) * 1000.0

    def spans(self, rec, op: str) -> None:
        """File this request's spans: lateness, submit, wait, worker renders."""
        if self.via_farm:
            root = rec.add("bench.request", rec.to_ms(self.due), rec.to_ms(self.done), op=op)
            wait = rec.add("serve.farm_run", root["start_ms"], root["end_ms"], parent=root)
        else:
            root = rec.add("bench.request", rec.to_ms(self.due), rec.to_ms(max(self.frame_times)), op=op)
            if self.sent > self.due:
                rec.add("bench.late", rec.to_ms(self.due), rec.to_ms(self.sent), parent=root)
            rec.add("exec.submit", rec.to_ms(self.sent), rec.to_ms(self.submitted), parent=root)
            wait = rec.add("exec.wait", rec.to_ms(self.submitted), root["end_ms"], parent=root)
        # Worker render time is reported, not observed: place each frame's
        # render so that it ends when the frame reached this process.
        for render_ms, arrived in zip(self.render_ms, sorted(self.frame_times)):
            end = rec.to_ms(arrived)
            rec.add("render.frame", max(end - render_ms, wait["start_ms"]), end, parent=wait)


def _keep_some(requests: list[_Tracked]) -> list[_Tracked]:
    """Drop the images of all but a few requests per dtype; return the kept."""
    kept: list[_Tracked] = []
    seen: dict[str, int] = {}
    for request in requests:
        if request.ok and seen.get(request.job.dtype, 0) < KEEP_PER_DTYPE:
            seen[request.job.dtype] = seen.get(request.job.dtype, 0) + 1
            kept.append(request)
        else:
            request.result = None
    return kept


def _verify_frames(kept: list[_Tracked], requests: list[_Tracked], name: str) -> list[Check]:
    """Pooled/sharded frames against in-process ``render_frame`` on the same
    decoded tier: bitwise for float64, a PSNR floor for float32."""
    bitwise_bad = psnr_bad = frames = 0
    worst_db = float("inf")
    for request in kept:
        job = request.job
        scene = resolve_render_scene(job)
        oracle_spec = replace(FrameSpec.for_job(job), dtype="float64")
        for camera, record in zip(job.cameras(), request.result.frames):
            oracle = render_frame(scene, camera, oracle_spec)
            frames += 1
            if job.dtype == "float64":
                bitwise_bad += not np.array_equal(record.image, oracle.image)
            else:
                db = capped_psnr(record.image, oracle.image)
                worst_db = min(worst_db, db)
                psnr_bad += db < F32_PSNR_FLOOR_DB
    errors = [repr(request.error) for request in requests if request.error is not None]
    return [
        Check(f"{name}.requests_completed", not errors, errors[0] if errors else f"{len(requests)} requests"),
        Check(f"{name}.float64_frames_bitwise", bitwise_bad == 0, f"{bitwise_bad} of {frames} sampled frames differ"),
        Check(f"{name}.float32_frames_psnr", psnr_bad == 0, f"worst {worst_db:.1f} dB, floor {F32_PSNR_FLOOR_DB} dB"),
    ]


def _lane_bound_ms(render_ms: list[float], lanes: int) -> float:
    """Summed render time of the slowest lane if frames are dealt, in index
    order, to whichever of ``lanes`` workers frees first."""
    busy = [0.0] * lanes
    for ms in render_ms:
        busy[busy.index(min(busy))] += ms
    return max(busy)


class ServeWarm:
    name = "serve_warm"

    #: Seconds of requests generated; the longest run the schema allows
    #: (60 s) thins out ~330 of them.
    STREAM_S = 120.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.smoke = smoke
        scenes = BENCHMARK_SCENES[:2] if smoke else BENCHMARK_SCENES
        self.tiers = [Shape(scene, 1, WORKERS, *tier, anchor=0) for scene in scenes for tier in WARM_TIERS]
        self.spec = WorkloadSpec(
            arrival="poisson",
            rate_rps=WARM_RATE_RPS,
            duration_s=self.STREAM_S,
            scenes=tuple(scenes),
            frame_choices=tuple(WARM_FRAME_SHARES),
            seed=seed,
        )
        self.generated = generate_workload(self.spec)
        self.executor: RenderExecutor | None = None
        self.pool_start_ms = 0.0

    def _stream(self, count: int) -> list[tuple[float, RenderJob]]:
        """The first ``count`` generated requests that fit fixed quotas per
        (scene, frame count), as ``(due second, job)`` at the fixed rate.

        Request cost varies ~4x with frame count and ~3x with scene, so a
        free draw of ~100 requests offers a different amount of work per
        seed (it moved the median latency by ~20 %).  Every seed therefore
        replays the same composition — Zipf over scenes x
        ``WARM_FRAME_SHARES``, tiers in turn within a class — and draws
        the order, trajectories, anchor views and camera seeds.
        """
        shares = {
            (scene, frames): p_scene * p_frames
            for scene, p_scene in zip(self.spec.scenes, self.spec.scene_probabilities())
            for frames, p_frames in WARM_FRAME_SHARES.items()
        }
        quota = {cell: int(share * count) for cell, share in shares.items()}
        by_remainder = sorted(shares, key=lambda cell: shares[cell] * count - quota[cell], reverse=True)
        for cell in by_remainder[: count - sum(quota.values())]:
            quota[cell] += 1
        builder = RequestScheduler(quick=True)
        taken = dict.fromkeys(quota, 0)
        stream: list[tuple[float, RenderJob]] = []
        for request in self.generated:
            cell = (request.scene, request.num_frames)
            if taken[cell] < quota[cell]:
                tier = WARM_TIER_TURNS[taken[cell] % len(WARM_TIER_TURNS)]
                taken[cell] += 1
                shards = WORKERS if request.num_frames == 1 else 1
                stream.append((len(stream) / WARM_RATE_RPS, builder.build_job(request, tier, shards)))
        if len(stream) < count:
            raise RuntimeError(f"generated stream too short: {len(stream)} of {count} requests")
        return stream

        self.executor: RenderExecutor | None = None
        self.pool_start_ms = 0.0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        t0 = time.perf_counter()
        self.executor = RenderExecutor(num_workers=WORKERS, worker_cache_size=2 * len(self.tiers))
        probe = self.tiers[0].job(0)
        self.executor.submit(probe).result()
        cold_first = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.executor.submit(probe).result()
        self.pool_start_ms = (cold_first - (time.perf_counter() - t0)) * 1000.0
        # Residency: a 1-frame job split over both workers makes each of
        # them load the tier; then closed-loop laps until nothing misses.
        for tier in self.tiers[1:]:
            self.executor.submit(tier.job(0)).result()
        lap_size = 4 if self.smoke else 12
        for _ in range(3):
            lap = self._closed_loop(iter(self._stream(lap_size)), at_least=lap_size, until=0.0)
            if all(t.ok and t.cache_misses == 0 for t in lap):
                break

    def teardown(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
            self.executor = None

    # ------------------------------------------------------------------
    def _open_loop(self, stream) -> tuple[list[_Tracked], float, list[float]]:
        """Send every request when it is due, whatever has completed; the
        pool is drained only after the last one is sent.  Speed readings are
        taken before, after, and in arrival gaps long enough to hold one
        while no request is outstanding (a reading taken beside two busy
        workers on two CPUs would measure this benchmark, not the box)."""
        readings = [speed_reading()]
        last_reading = time.perf_counter()
        start = last_reading + 0.02 - stream[0][0]
        tracked = []
        for due_s, job in stream:
            due = start + due_s
            while (remaining := due - time.perf_counter()) > 0:
                idle = all(len(t.frame_times) == t.job.num_frames for t in tracked[-8:])
                if idle and remaining > 0.04 and time.perf_counter() - last_reading > 0.5:
                    readings.append(speed_reading())
                    last_reading = time.perf_counter()
                else:
                    time.sleep(min(remaining, 0.01))
            request = _Tracked(job, due)
            request.send(self.executor)
            tracked.append(request)
        for request in tracked:
            request.finish()
        wall = time.perf_counter() - (start + stream[0][0])
        readings.append(speed_reading())
        return tracked, wall, readings

    def _closed_loop(self, jobs, at_least: int, until: float) -> list[_Tracked]:
        """Two clients, each sending its next request when the last returns,
        from the ``(due, job)`` iterator ``jobs`` until ``until`` (a
        ``perf_counter`` time) and ``at_least`` requests."""
        lock = threading.Lock()
        done: list[_Tracked] = []
        taken = 0

        def client() -> None:
            nonlocal taken
            while True:
                with lock:
                    if taken >= at_least and time.perf_counter() >= until:
                        return
                    taken += 1
                    _, job = next(jobs)
                request = _Tracked(job, time.perf_counter())
                request.send(self.executor)
                request.finish()
                with lock:
                    done.append(request)

        clients = [threading.Thread(target=client) for _ in range(WORKERS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return done

    def measure(self, seconds: float, rec=None, min_passes: int = 1) -> Measurement:
        start = time.perf_counter()
        floor = min_passes * (4 if self.smoke else OPEN_LOOP_PASS)
        stream = self._stream(max(floor, int(seconds * PHASE_A_SHARE * WARM_RATE_RPS)))
        phase_a, a_wall, readings = self._open_loop(stream)

        t0 = time.perf_counter()
        phase_b = self._closed_loop(itertools.cycle(stream), at_least=max(2, floor // 4), until=start + seconds)
        b_wall = time.perf_counter() - t0
        readings.append(speed_reading())
        # One factor for the run, the median reading: under load there is no
        # clean moment for a reading next to each request, and the saturated
        # phase has none at all.
        speed = median(readings)
        sat_fps = sum(t.job.num_frames for t in phase_b if t.ok) / b_wall

        if rec is not None:
            for i, request in enumerate(t for t in phase_a if t.ok):
                request.spans(rec, op=f"serve_warm:a:{i}")
        everything = phase_a + phase_b
        kept = _keep_some(everything)
        latencies = [t.latency_ms / speed for t in phase_a if t.ok]
        limit = catalog.SLO_LIMIT_MS[self.name]
        return Measurement(
            values={
                "req_ms_p50": median(latencies),
                "req_ms_p90": pct(latencies, 90),
                "first_frame_ms_p50": median([t.first_frame_ms for t in phase_a if t.ok]) / speed,
                "slo_attainment": sum(ms <= limit for ms in latencies) / len(phase_a),
                "sat_frames_per_s": sat_fps * speed,
            },
            samples=len(latencies),
            op_ms=median(latencies),
            speed=readings,
            attempted=len(everything),
            failed=sum(not t.ok for t in everything),
            counts={
                "requests_a": len(phase_a),
                "frames_a": sum(t.job.num_frames for t in phase_a),
                "cache_misses": sum(t.cache_misses for t in everything),
            },
            extra={"phase_a": phase_a, "phase_b": phase_b, "a_wall": a_wall, "raw_sat_fps": sat_fps, "kept": kept},
        )

    # ------------------------------------------------------------------
    def verify(self, measurement: Measurement) -> list[Check]:
        requests = measurement.extra["phase_a"] + measurement.extra["phase_b"]
        checks = _verify_frames(measurement.extra["kept"], requests, self.name)
        misses = measurement.counts["cache_misses"]
        checks.append(Check("serve_warm.working_set_resident", misses == 0, f"{misses} frames missed a worker cache"))
        return checks

    # ------------------------------------------------------------------
    def _idle_probe(self, executor, job) -> _Tracked:
        request = _Tracked(job, time.perf_counter())
        request.send(executor)
        request.finish()
        request.result = None
        return request

    def layer_metrics(self, untraced: Measurement, traced: Measurement, rec) -> dict[str, float]:
        phase_a = [t for t in untraced.extra["phase_a"] + traced.extra["phase_a"] if t.ok]
        phase_b = [t for t in untraced.extra["phase_b"] + traced.extra["phase_b"] if t.ok]
        a_wall = untraced.extra["a_wall"] + traced.extra["a_wall"]

        # Idle pool, one request at a time: the unloaded latency of a spread
        # of the loaded requests, and the 1-frame ones also unsharded.
        probes = 4 if self.smoke else IDLE_PROBES
        loaded = phase_a[:: max(1, len(phase_a) // probes)][:probes]
        idle = [self._idle_probe(self.executor, t.job) for t in loaded]
        overhead = [t.latency_ms - _lane_bound_ms(t.render_ms, WORKERS) for t in idle]
        queue_wait = [busy.latency_ms - calm.latency_ms for busy, calm in zip(loaded, idle)]
        shard_ratios = [
            self._idle_probe(self.executor, replace(t.job, shards=1)).latency_ms / t.latency_ms
            for t in idle
            if t.job.shards > 1
        ]

        # In-process baseline over the same requests.
        farm = RenderFarm(num_workers=0)
        t0 = time.perf_counter()
        seq_frames = sum(farm.run(t.job).num_frames for t in loaded)
        seq_fps = seq_frames / (time.perf_counter() - t0)
        sat_fps = median([untraced.extra["raw_sat_fps"], traced.extra["raw_sat_fps"]])

        model = ServiceModel()
        model_ratios = [
            ms / model.frame_ms(t.job.scene, True, t.job.lod, dtype=t.job.dtype, shards=t.job.shards)
            for t in phase_a
            for ms in t.render_ms
        ]
        hits = sum(t.cache_hits for t in phase_a + phase_b)
        misses = sum(t.cache_misses for t in phase_a + phase_b)
        return {
            "exec.pool_start_ms": self.pool_start_ms,
            "exec.submit_ms": median([(t.submitted - t.sent) * 1000.0 for t in phase_a]),
            "exec.overhead_ms": median(overhead),
            "exec.queue_wait_ms": median(queue_wait),
            "exec.lateness_ms_p90": pct([(t.sent - t.due) * 1000.0 for t in phase_a], 90),
            "exec.cache_hit_share": hits / (hits + misses),
            "exec.shard_speedup": median(shard_ratios),
            # Sharded frames report only their slowest shard, so this is a floor.
            "exec.worker_util": sum(ms for t in phase_a for ms in t.render_ms) / (WORKERS * a_wall * 1000.0),
            "exec.parallel_efficiency": sat_fps / (WORKERS * seq_fps),
            "serve.seq_frames_per_s": seq_fps,
            "sched.model_frame_ratio_p50": median(model_ratios),
            "obs.exec_ctx_overhead_ratio": self._obs_overhead(repeats=1 if self.smoke else 4),
        }

    def _obs_overhead(self, repeats: int) -> float:
        """Idle-probe latency with an ``ObsContext`` on the executor over the
        same probes without, interleaved so both see the same machine."""
        tiers = self.tiers[:2]
        jobs = [replace(tier, frames=2, shards=1).job(2) for tier in tiers]
        with RenderExecutor(num_workers=WORKERS, obs=ObsContext.create()) as observed:
            for tier, job in zip(tiers, jobs):  # residency on both workers, as in setup
                observed.submit(tier.job(0)).result()
                observed.submit(job).result()
            plain_ms, observed_ms = [], []
            for _ in range(repeats):
                for job in jobs:
                    plain_ms.append(self._idle_probe(self.executor, job).latency_ms)
                    observed_ms.append(self._idle_probe(observed, job).latency_ms)
        return median(observed_ms) / median(plain_ms)


class ServeCold:
    name = "serve_cold"

    #: Every n-th request of a round goes through a transient farm.
    FARM_EVERY = 6

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.catalogue = _cold_catalogue(smoke)
        self.rng = np.random.default_rng([seed, 3])
        self.executor: RenderExecutor | None = None
        self.workers_replaced = 0

    # ------------------------------------------------------------------
    def _fresh_pool(self) -> None:
        """A new pool whose workers and payload table have seen nothing."""
        self._close_pool()
        self.executor = RenderExecutor(num_workers=WORKERS, worker_cache_size=2)
        # Start the workers on a tier outside the catalogue (lod 3).
        self.executor.submit(replace(self.catalogue[0], lod=3, shards=WORKERS).job(0)).result()

    def _close_pool(self) -> None:
        if self.executor is not None:
            self.workers_replaced += self.executor.stats.workers_replaced
            self.executor.shutdown()
            self.executor = None

    def setup(self) -> None:
        self._fresh_pool()
        # Untimed warm-up of both request paths (also imports the farm path),
        # on tiers outside the catalogue (lod 3): every scene once through the
        # pool, one request through a transient farm.  Every scene, so that
        # ``setup_s`` is mostly work that scales with the machine's speed and
        # not mostly process start-up, which drifts by a quarter from one
        # half-hour to the next on this box.
        scenes = {shape.scene: shape for shape in self.catalogue}.values()
        for shape in scenes:
            self.executor.submit(replace(shape, lod=3, quant="compact").job(0)).result()
        RenderFarm(num_workers=WORKERS).run(replace(self.catalogue[0], lod=3, shards=WORKERS).job(0))

    def teardown(self) -> None:
        self._close_pool()

    # ------------------------------------------------------------------
    def measure(self, seconds: float, rec=None, min_passes: int = 1) -> Measurement:
        requests: list[_Tracked] = []
        warm_twin_ms: dict[_Tracked, float] = {}
        #: Reference-speed latency per completed request.
        ref_ms: dict[_Tracked, float] = {}
        speed: list[float] = []

        def scale_group(group: list[_Tracked]) -> None:
            # The pool is idle between the one client's requests: a speed
            # reading after every FARM_EVERY of them, each scaled by the mean
            # of the two readings around its group.
            speed.append(speed_reading())
            factor = (speed[-2] + speed[-1]) / 2.0
            ref_ms.update({t: t.wall_ms / factor for t in group if t.ok})
            group.clear()

        def run_round(round_index: int) -> None:
            self._fresh_pool()
            speed.append(speed_reading())
            group: list[_Tracked] = []
            for slot, i in enumerate(self.rng.permutation(len(self.catalogue))):
                shape = self.catalogue[i]
                via_farm = slot % self.FARM_EVERY == self.FARM_EVERY - 1
                job = (replace(shape, shards=WORKERS) if via_farm else shape).job(int(self.rng.integers(2**31 - 1)))
                request = _Tracked(job, time.perf_counter(), shape, via_farm)
                if via_farm:
                    request.run_on_farm()
                else:
                    request.send(self.executor)
                    request.finish()
                if rec is not None and request.ok and not via_farm:
                    # The same job again, now resident: the warm twin.
                    twin = _Tracked(job, time.perf_counter())
                    twin.send(self.executor)
                    twin.finish()
                    warm_twin_ms[request] = twin.wall_ms
                requests.append(request)
                group.append(request)
                if via_farm:
                    scale_group(group)
            if group:
                scale_group(group)

        timed_passes(run_round, seconds, min_passes)
        ok = [t for t in requests if t.ok]
        if rec is not None:
            for i, request in enumerate(ok):
                request.spans(rec, op=f"serve_cold:{i}")
        farmed = [t for t in ok if t.via_farm]
        kept = _keep_some([t for t in requests if not t.via_farm]) + farmed[:1]
        for request in farmed[1:]:
            request.result = None
        latencies = [ref_ms[t] for t in ok]
        limit = catalog.SLO_LIMIT_MS[self.name]
        return Measurement(
            values={
                "req_ms_p50": median(latencies),
                "req_ms_p90": pct(latencies, 90),
                "first_frame_ms_p50": median([t.first_frame_ms * ref_ms[t] / t.wall_ms for t in ok]),
                "slo_attainment": sum(ms <= limit for ms in latencies) / len(requests),
                "sat_frames_per_s": sum(t.job.num_frames for t in ok) * 1000.0 / sum(latencies),
            },
            samples=len(latencies),
            op_ms=median(latencies),
            speed=speed,
            attempted=len(requests),
            failed=len(requests) - len(ok),
            counts={
                # Of the first round, which every run completes.
                "ship_bytes_first_round": sum(t.ship_bytes for t in requests[: len(self.catalogue)]),
                "cache_hits": sum(t.cache_hits for t in ok if not t.via_farm),
            },
            extra={"requests": requests, "warm_twin_ms": warm_twin_ms, "kept": kept},
        )

    # ------------------------------------------------------------------
    def verify(self, measurement: Measurement) -> list[Check]:
        checks = _verify_frames(measurement.extra["kept"], measurement.extra["requests"], self.name)
        warm_hits = measurement.counts["cache_hits"]
        checks.append(
            Check("serve_cold.every_request_cold", warm_hits == 0, f"{warm_hits} frames were served from a resident tier")
        )
        return checks

    # ------------------------------------------------------------------
    def layer_metrics(self, untraced: Measurement, traced: Measurement, rec) -> dict[str, float]:
        requests = [t for t in untraced.extra["requests"] + traced.extra["requests"] if t.ok]
        pooled = [t for t in requests if not t.via_farm]
        farmed = [t for t in requests if t.via_farm]
        # Cold minus its warm twin, over the traced rounds.
        penalties, model_ratios = [], []
        model = ServiceModel()
        for cold, warm_ms in traced.extra["warm_twin_ms"].items():
            penalties.append(cold.wall_ms - warm_ms)
            modelled = model.dispatch_ms(
                Request(0, 0, 0, 0.0, cold.shape.scene, "jitter", 1, 0, 0, 1000.0),
                (cold.shape.lod, cold.shape.quant),
                True,
                warm=False,
            )
            model_ratios.append(penalties[-1] / modelled)

        values = self._store_metrics()
        values.update(
            {
                "exec.cold_penalty_ms": median(penalties),
                "exec.ship_mb_per_req": float(np.mean([t.ship_bytes for t in pooled])) / 1e6,
                "exec.loaded_mb_per_req": float(np.mean([t.loaded_bytes for t in pooled])) / 1e6,
                "exec.workers_replaced": float(self.workers_replaced),
                "serve.farm_cold_run_ms": median([t.wall_ms for t in farmed]),
                "sched.model_cold_dispatch_ratio": median(model_ratios),
            }
        )
        return values

    def _store_metrics(self) -> dict[str, float]:
        """The store layer on its own, over the catalogue's tiers."""
        store = SceneStore()
        bases = {}
        for scene in dict.fromkeys(shape.scene for shape in self.catalogue):
            preset = eval_preset(scene, quick=True)
            bases[scene] = make_scene(preset.name, scale=preset.scale)
            store.add_scene(scene, bases[scene])
            store.get(scene)  # base resident, so a tier build times the tier alone
        lod_ms, encode_ms, decode_ms, build_ms, bytes_per = [], [], [], [], []
        for shape in self.catalogue:
            spec = quant_spec(shape.quant)
            t0 = time.perf_counter()
            pruned = select_lod(bases[shape.scene], shape.lod)
            t1 = time.perf_counter()
            payload = encode_scene(pruned, spec)
            t2 = time.perf_counter()
            decode_payload(payload, spec)
            t3 = time.perf_counter()
            lod_ms.append((t1 - t0) * 1000.0)
            encode_ms.append((t2 - t1) * 1000.0)
            decode_ms.append((t3 - t2) * 1000.0)
            bytes_per.append(payload_nbytes(payload) / pruned.num_gaussians)
            if (shape.lod, shape.quant) != (0, "lossless"):
                t0 = time.perf_counter()
                store.get(shape.scene, lod=shape.lod, quant=shape.quant)
                build_ms.append((time.perf_counter() - t0) * 1000.0)
        for shape in self.catalogue:  # second touch of every tier: all hits
            store.get(shape.scene, lod=shape.lod, quant=shape.quant)
        stats = store.cache.stats
        return {
            "store.encode_ms": median(encode_ms),
            "store.decode_ms": median(decode_ms),
            "store.lod_select_ms": median(lod_ms),
            "store.tier_build_ms": median(build_ms),
            "store.get_hit_share": stats.hits / (stats.hits + stats.misses),
            "store.bytes_per_gaussian": float(np.mean(bytes_per)),
        }
