"""Persistent executor: concurrency, residency, crash recovery, one path.

The heavyweight throughput claim (warm-pool repeats >= 2x the cold
per-job-pool path) lives in ``benchmarks/bench_exec_residency.py``; here we
verify correctness on tiny jobs: concurrent mixed-tier jobs stay bitwise
identical to the sequential path, scene tiers ship at most once per worker,
a killed worker is replaced and its frame surfaces as
:class:`FrameRenderError`, and the in-process mode is the pool's task loop
(same bits, counters and span tree).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro.exec import RenderExecutor
from repro.exec.frames import FrameRenderError
from repro.exec.worker import CRASH_ENV
from repro.obs import ObsContext
from repro.serve.farm import RenderFarm
from repro.serve.trajectories import RenderJob, make_trajectory


def _assert_stats_equal(a, b) -> None:
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


def quick_job(num_frames: int = 3, **kwargs) -> RenderJob:
    return RenderJob(
        "train", make_trajectory("orbit", num_frames=num_frames), quick=True, **kwargs
    )


class TestValidation:
    def test_negative_worker_count_rejected(self):
        with pytest.raises(ValueError):
            RenderExecutor(num_workers=-1)

    @pytest.mark.parametrize("kwargs", [dict(worker_cache_size=0)])
    def test_nonpositive_cache_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RenderExecutor(**kwargs)

    def test_submit_after_shutdown_rejected(self):
        executor = RenderExecutor(num_workers=0)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(quick_job())


class TestSequentialMode:
    def test_matches_farm_sequential_bitwise(self):
        farm = RenderFarm(num_workers=0).run(quick_job())
        with RenderExecutor(num_workers=0) as executor:
            result = executor.submit(quick_job()).result()
        assert result.num_workers == 0
        assert result.ship_bytes == 0
        for a, b in zip(farm.frames, result.frames):
            assert np.array_equal(a.image, b.image)
            _assert_stats_equal(a.stats, b.stats)

    def test_resident_cache_makes_repeats_warm(self):
        with RenderExecutor(num_workers=0) as executor:
            cold = executor.submit(quick_job()).result()
            warm = executor.submit(quick_job()).result()
        # Counted per work unit, as a pool worker counts: the first frame
        # loads the tier, the next two find it resident.
        assert cold.cache_misses == 1 and cold.cache_hits == 2
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert warm.warm and not cold.warm
        assert executor.stats.cache_hits == 5
        assert executor.stats.frames_rendered == 6

    def test_streams_frames_in_index_order(self):
        seen: list[int] = []
        with RenderExecutor(num_workers=0) as executor:
            executor.submit(quick_job(), on_frame=lambda r: seen.append(r.index)).result()
        assert seen == [0, 1, 2]

    def test_frame_failure_carries_index_scene_and_cause(self, monkeypatch):
        import repro.exec.frames as frames_module

        def explode(scene, camera, spec, tile_shard=None):
            raise ValueError("synthetic kernel failure")

        monkeypatch.setattr(frames_module, "render_frame", explode)
        handle = RenderExecutor(num_workers=0).submit(quick_job())
        with pytest.raises(FrameRenderError) as excinfo:
            handle.result()
        assert excinfo.value.frame_index == 0
        assert excinfo.value.scene == "train"
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert excinfo.value is handle._error  # failure is sticky on the handle

    def test_concurrent_submitters_share_one_in_process_worker(self, monkeypatch):
        # Threads submitting to one in-process executor share its cache; a
        # one-tier cache makes every unit able to evict another thread's
        # tier, and a short switch interval interleaves them finely.  The
        # in-process worker is one worker: its task body never overlaps.
        import repro.exec.executor as executor_module

        real_run_task, active, overlaps = executor_module._run_task, [0], []

        def one_at_a_time(*args):
            active[0] += 1
            overlaps.append(active[0])
            try:
                return real_run_task(*args)
            finally:
                active[0] -= 1

        monkeypatch.setattr(executor_module, "_run_task", one_at_a_time)
        jobs = [quick_job(2), quick_job(2, lod=1, quant="compact"), quick_job(1, lod=2)]
        expected = [RenderFarm(num_workers=0).run(job) for job in jobs]
        executor = RenderExecutor(num_workers=0, worker_cache_size=1)
        results, errors = [], []

        def client(which):
            try:
                for _ in range(2):
                    results.append((which, executor.submit(jobs[which]).result(timeout=300)))
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i % 3,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == 12
        assert max(overlaps) == 1
        for which, result in results:
            for a, b in zip(expected[which].frames, result.frames):
                assert np.array_equal(a.image, b.image)
        stats = executor.stats
        assert stats.jobs_submitted == stats.jobs_completed == 12
        assert stats.cache_hits + stats.cache_misses == sum(r.num_frames for _, r in results)
        assert len(executor._inprocess_cache) <= 1


class TestConcurrentDispatch:
    def test_two_concurrent_mixed_tier_jobs_bitwise_identical(self):
        """The acceptance-criteria check: 2 jobs at mixed (lod, quant)
        tiers dispatched concurrently onto one 2-worker executor produce
        exactly the sequential path's bits — images and stats counters."""
        lossless = quick_job(3)
        compact = quick_job(3, lod=1, quant="compact")
        with RenderExecutor(num_workers=2) as executor:
            handles = [executor.submit(lossless), executor.submit(compact)]
            pooled = [handle.result(timeout=300) for handle in handles]
        for job, result in zip((lossless, compact), pooled):
            expected = RenderFarm(num_workers=0).run(job)
            assert [f.index for f in result.frames] == [0, 1, 2]
            for a, b in zip(expected.frames, result.frames):
                assert np.array_equal(a.image, b.image)
                _assert_stats_equal(a.stats, b.stats)
            assert expected.aggregate_counters() == result.aggregate_counters()

    def test_pool_streams_every_frame_once(self):
        seen: list[int] = []
        with RenderExecutor(num_workers=2) as executor:
            result = executor.submit(
                quick_job(4), on_frame=lambda r: seen.append(r.index)
            ).result(timeout=300)
        assert sorted(seen) == [0, 1, 2, 3]
        assert [f.index for f in result.frames] == [0, 1, 2, 3]

    def test_summary_is_json_serialisable(self):
        with RenderExecutor(num_workers=2) as executor:
            summary = executor.submit(quick_job(2)).result(timeout=300).summary()
        encoded = json.loads(json.dumps(summary))
        assert encoded["residency"]["cache_misses"] >= 1
        assert encoded["ship_bytes"] > 0


class TestResidency:
    def test_tier_ships_at_most_once_per_worker(self):
        job = quick_job(4)
        with RenderExecutor(num_workers=2) as executor:
            first = executor.submit(job).result(timeout=300)
            repeats = [executor.submit(job).result(timeout=300) for _ in range(3)]
            stats = executor.stats
        # The payload is encoded exactly once, and each of the two workers
        # decodes it at most once — no matter how many jobs follow.
        assert first.ship_bytes > 0
        assert all(r.ship_bytes == 0 for r in repeats)
        assert all(r.warm for r in repeats)
        assert stats.published_payloads == 1
        assert stats.cache_misses <= 2  # <= num_workers
        assert stats.loaded_bytes <= 2 * first.ship_bytes
        assert stats.cache_hits == stats.frames_rendered - stats.cache_misses

    def test_distinct_tiers_publish_distinct_payloads(self):
        with RenderExecutor(num_workers=2) as executor:
            a = executor.submit(quick_job(2)).result(timeout=300)
            b = executor.submit(quick_job(2, lod=1, quant="compact")).result(timeout=300)
            assert executor.stats.published_payloads == 2
        assert 0 < b.ship_bytes < a.ship_bytes

    def test_caller_supplied_scene_never_aliases(self):
        from repro.gaussians.synthetic import make_scene

        scene = make_scene("train", scale=0.05)
        job = quick_job(2)
        with RenderExecutor(num_workers=2) as executor:
            first = executor.submit(job, scene=scene).result(timeout=300)
            second = executor.submit(job, scene=scene).result(timeout=300)
            # ... and each payload is deleted when its job finishes, so a
            # long-lived executor cannot leak one file per submission.
            assert not executor._payloads
        # Custom scenes get a unique payload per submission (no residency
        # reuse, exactly the pre-executor per-job shipping semantics).
        assert first.ship_bytes > 0
        assert second.ship_bytes > 0


class TestCrashRecovery:
    def test_killed_worker_is_replaced_and_frame_surfaces(self, monkeypatch):
        """Kill a worker mid-job: the frame fails as FrameRenderError with
        index + scene, a replacement worker joins, and later jobs finish."""
        monkeypatch.setenv(CRASH_ENV, "train:1")
        with RenderExecutor(num_workers=2) as executor:
            with pytest.raises(FrameRenderError) as excinfo:
                executor.submit(quick_job(4)).result(timeout=300)
            error = excinfo.value
            assert error.frame_index == 1
            assert error.scene == "train"
            assert "worker process died" in str(error)

            # The executor healed itself: full capacity, and a follow-up
            # job (frame 0 only — the crash directive names frame 1)
            # completes normally on the replaced pool.
            follow_up = executor.submit(quick_job(1)).result(timeout=300)
            assert follow_up.num_frames == 1
            assert executor.stats.workers_replaced == 1
            assert len(executor._workers) == 2

    def test_crash_does_not_fail_other_jobs(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "train:2")
        doomed = quick_job(3)  # frame 2 exists only here
        survivor = quick_job(2, lod=1, quant="compact")
        expected = RenderFarm(num_workers=0).run(survivor)
        with RenderExecutor(num_workers=2) as executor:
            doomed_handle = executor.submit(doomed)
            survivor_handle = executor.submit(survivor)
            with pytest.raises(FrameRenderError):
                doomed_handle.result(timeout=300)
            result = survivor_handle.result(timeout=300)
        for a, b in zip(expected.frames, result.frames):
            assert np.array_equal(a.image, b.image)


#: Parity cases: whole frames and shards=3, lossless and compact, 1-3 frames.
PARITY_JOBS = [
    dict(num_frames=1),
    dict(num_frames=2, shards=3),
    dict(num_frames=3, lod=1, quant="compact"),
    dict(num_frames=1, quant="compact", shards=3),
]


def _span_shapes(spans) -> list:
    """Name tree under every ``request`` span, plus its attributes.

    ``decode`` spans are left out of the tree: where a tier is decoded
    depends on which worker a unit lands on, and their number is checked
    against the misses instead.  The pool's ``worker`` attribute is
    dropped with the lane it names.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def tree(span):
        kids = children.get(span["id"], [])
        return (span["name"], tuple(sorted(tree(k) for k in kids if k["name"] != "decode")))

    return sorted(
        (tree(s), sorted((k, str(v)) for k, v in s["attrs"].items() if k != "worker"))
        for s in spans
        if s["name"] == "request"
    )


@pytest.fixture(scope="module")
def parity_runs():
    """The parity jobs (plus a custom scene) through both modes, traced."""
    from repro.gaussians.synthetic import make_scene

    scene = make_scene("train", scale=0.05)
    runs = {}
    for num_workers in (0, 2):
        obs = ObsContext.create()
        with RenderExecutor(num_workers=num_workers, obs=obs) as executor:
            results = [
                executor.submit(quick_job(**case), trace={"request": f"r{i}"}).result(timeout=300)
                for i, case in enumerate(PARITY_JOBS)
            ]
            results.append(executor.submit(quick_job(2), scene=scene).result(timeout=300))
            runs[num_workers] = (results, executor.stats, obs.tracer.spans, executor)
    return runs


class TestOnePath:
    """The in-process mode is the pool's task loop run in the caller's
    thread: same bits, same counters, same per-unit residency accounting
    and the same span tree, modulo lane."""

    def test_images_and_counters_bitwise(self, parity_runs):
        for inproc, pooled in zip(parity_runs[0][0], parity_runs[2][0]):
            assert [f.index for f in inproc.frames] == [f.index for f in pooled.frames]
            for a, b in zip(inproc.frames, pooled.frames):
                assert np.array_equal(a.image, b.image)
                _assert_stats_equal(a.stats, b.stats)
            assert inproc.aggregate_counters() == pooled.aggregate_counters()
            assert inproc.num_gaussians == pooled.num_gaussians
        assert parity_runs[0][1].frames_rendered == parity_runs[2][1].frames_rendered

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_hits_and_misses_count_work_units(self, num_workers, parity_runs):
        results, stats, spans, _ = parity_runs[num_workers]
        units = [r.num_frames * r.job.shards for r in results]
        assert [r.cache_hits + r.cache_misses for r in results] == units
        assert stats.cache_hits + stats.cache_misses == sum(units)
        decodes = sum(s["name"] == "decode" for s in spans)
        assert decodes == stats.cache_misses
        if num_workers == 0:
            # Nothing crosses a process boundary in-process.
            assert all(r.ship_bytes == 0 and r.loaded_bytes == 0 for r in results)
            assert stats.loaded_bytes == stats.published_bytes == 0

    def test_span_trees_match_modulo_lane(self, parity_runs):
        inproc, pooled = parity_runs[0][2], parity_runs[2][2]
        assert _span_shapes(inproc) == _span_shapes(pooled)
        assert {s["lane"] for s in inproc} == {"main"}
        assert {s["lane"] for s in pooled} <= {"worker-0", "worker-1"}

    def test_custom_scene_leaves_no_cached_key(self, parity_runs):
        inproc, pooled = parity_runs[0][3], parity_runs[2][3]
        assert inproc._inprocess_cache  # the preset tiers stay resident
        assert not [key for key in inproc._inprocess_cache if key[0] == "custom"]
        assert not [key for key in pooled._payloads if key[0] == "custom"]


class TestShutdown:
    def test_shutdown_is_idempotent(self):
        executor = RenderExecutor(num_workers=2)
        executor.submit(quick_job(2)).result(timeout=300)
        executor.shutdown()
        executor.shutdown()

    def test_nowait_shutdown_fails_unfinished_jobs(self):
        executor = RenderExecutor(num_workers=2)
        # Enough frames that the job cannot complete in the instants
        # between submit and the abort below.
        handle = executor.submit(quick_job(16))
        executor.shutdown(wait=False)
        with pytest.raises(RuntimeError, match="shut down"):
            handle.result(timeout=300)

    @pytest.mark.parametrize("wait", [True, False])
    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_every_submitted_job_is_accounted(self, num_workers, wait):
        from repro.gaussians.synthetic import make_scene

        executor = RenderExecutor(num_workers=num_workers)
        handles = [executor.submit(quick_job(4)) for _ in range(2)]
        handles.append(executor.submit(quick_job(4), scene=make_scene("train", scale=0.05)))
        executor.shutdown(wait=wait)
        stats = executor.stats
        assert stats.jobs_submitted == 3
        assert stats.jobs_submitted == stats.jobs_completed + stats.jobs_failed
        assert stats.jobs_failed == sum(h._error is not None for h in handles)
        assert all(h.done() for h in handles)
        # An aborted custom-scene job releases its payload like a finished one.
        assert not [key for key in executor._payloads if key[0] == "custom"]
        if wait or num_workers == 0:  # in-process jobs finish inside submit()
            assert stats.jobs_completed == 3
