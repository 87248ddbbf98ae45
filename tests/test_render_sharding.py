"""Intra-frame tile-shard rendering: interval math, merge exactness, executor.

The sharding contract under test, at every layer it crosses:

* :func:`repro.render.kernels.shard_intervals` partitions the tile-id range
  exactly (no gap, no overlap, any shard count — empty trailing shards when
  shards exceed tiles);
* a sharded tile-wise render composed by
  :func:`repro.render.tile_raster.compose_tile_shards` is **bitwise
  identical** to the unsharded frame — the image *and* every statistics
  counter — on every quick preset, at odd shard counts and at shard counts
  exceeding the tile count, on both engines and in both dtypes;
* the exec layer's :class:`~repro.exec.frames.ShardSpec` planning and the
  executor's scatter/merge reproduce the sequential whole-frame path
  bitwise, including with concurrent mixed shard/whole-frame jobs in
  flight.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.eval.runner import EvalSetup, load_scene_and_camera
from repro.gaussians.presets import EVAL_SCENES
from repro.exec import RenderExecutor
from repro.exec.frames import (
    FrameSpec,
    ShardSpec,
    merge_shard_records,
    plan_shards,
    render_frame,
    render_unit,
)
from repro.render.common import INDEX_DTYPE, RenderConfig
from repro.render.kernels import shard_intervals, tile_interval_slice
from repro.render.tile_raster import (
    compose_tile_shards,
    frame_tile_count,
    render_tilewise,
)
from repro.serve.farm import RenderFarm
from repro.serve.trajectories import RenderJob, make_trajectory


def _scene_camera(scene: str):
    return load_scene_and_camera(EvalSetup(scene, quick=True))


def assert_stats_equal(expected, actual) -> None:
    """Every stats field — counters and index arrays — must match exactly.

    The index arrays travel the worker pipe with every frame, so their
    dtype is part of the contract: int32, composed shards included.
    """
    for field in dataclasses.fields(expected):
        a, b = getattr(expected, field.name), getattr(actual, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype == INDEX_DTYPE == np.int32, f"{field.name} dtype"
            assert np.array_equal(a, b), f"stats array {field.name} differs"
        else:
            assert a == b, f"stats counter {field.name}: {a} != {b}"


class TestShardIntervals:
    @pytest.mark.parametrize("num_tiles", [0, 1, 7, 28, 36])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 40])
    def test_intervals_partition_exactly(self, num_tiles, num_shards):
        intervals = shard_intervals(num_tiles, num_shards)
        assert len(intervals) == num_shards
        cursor = 0
        for lo, hi in intervals:
            assert lo == cursor and hi >= lo
            cursor = hi
        assert cursor == num_tiles

    def test_more_shards_than_tiles_yields_empty_trailing_intervals(self):
        intervals = shard_intervals(3, 5)
        assert sum(hi - lo for lo, hi in intervals) == 3
        assert any(lo == hi for lo, hi in intervals)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            shard_intervals(10, 0)
        with pytest.raises(ValueError):
            shard_intervals(-1, 2)

    def test_interval_slice_matches_mask(self):
        tile_ids = np.array([0, 0, 2, 2, 2, 5, 7, 7, 9])
        for lo, hi in [(0, 3), (2, 6), (3, 5), (0, 10), (9, 9)]:
            sl = tile_interval_slice(tile_ids, lo, hi)
            mask = (tile_ids >= lo) & (tile_ids < hi)
            assert np.array_equal(tile_ids[sl], tile_ids[mask])

    def test_interval_slice_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            tile_interval_slice(np.arange(4), 3, 1)


class TestShardMergeExactness:
    """Sharded == unsharded, bitwise, images AND stats counters."""

    def _render_sharded(self, scene, camera, config, num_shards):
        num_tiles = frame_tile_count(camera.width, camera.height, config.tile_size)
        shards = [
            render_tilewise(scene, camera, config, tile_shard=interval)
            for interval in shard_intervals(num_tiles, num_shards)
        ]
        return compose_tile_shards(shards)

    @pytest.mark.parametrize("scene", sorted(EVAL_SCENES))
    @pytest.mark.parametrize("num_shards", [3, 7])
    def test_every_quick_preset_composes_bitwise(self, scene, num_shards):
        scene_obj, camera = _scene_camera(scene)
        config = RenderConfig()
        whole = render_tilewise(scene_obj, camera, config)
        merged = self._render_sharded(scene_obj, camera, config, num_shards)
        assert merged.image.dtype == whole.image.dtype
        assert np.array_equal(whole.image, merged.image)
        assert_stats_equal(whole.stats, merged.stats)

    @pytest.mark.parametrize("num_shards", [1, 2, 5, 28, 35])
    def test_train_all_shard_counts_including_beyond_tile_count(self, num_shards):
        scene_obj, camera = _scene_camera("train")
        config = RenderConfig()
        # 28 tiles on the quick train preset: 28 is one-tile shards, 35
        # exceeds the tile count (trailing shards render nothing).
        whole = render_tilewise(scene_obj, camera, config)
        merged = self._render_sharded(scene_obj, camera, config, num_shards)
        assert np.array_equal(whole.image, merged.image)
        assert_stats_equal(whole.stats, merged.stats)

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_both_backends_compose_bitwise(self, backend):
        scene_obj, camera = _scene_camera("train")
        config = RenderConfig(backend=backend)
        whole = render_tilewise(scene_obj, camera, config)
        merged = self._render_sharded(scene_obj, camera, config, 3)
        assert np.array_equal(whole.image, merged.image)
        assert_stats_equal(whole.stats, merged.stats)

    def test_float32_mode_composes_bitwise_against_itself(self):
        # float32 is PSNR-floored against the float64 oracle, but sharding
        # must still be exact *within* the mode: same bits at any count.
        scene_obj, camera = _scene_camera("train")
        config = RenderConfig(dtype="float32")
        whole = render_tilewise(scene_obj, camera, config)
        assert whole.image.dtype == np.float32
        merged = self._render_sharded(scene_obj, camera, config, 4)
        assert np.array_equal(whole.image, merged.image)
        assert_stats_equal(whole.stats, merged.stats)

    def test_shard_metadata_round_trip(self):
        scene_obj, camera = _scene_camera("train")
        config = RenderConfig()
        num_tiles = frame_tile_count(camera.width, camera.height, config.tile_size)
        (lo, hi) = shard_intervals(num_tiles, 2)[1]
        part = render_tilewise(scene_obj, camera, config, tile_shard=(lo, hi))
        assert part.tile_shard == (lo, hi)
        assert part.stats.num_occupied_tiles <= hi - lo


class TestComposeValidation:
    def _two_shards(self):
        scene_obj, camera = _scene_camera("train")
        config = RenderConfig()
        num_tiles = frame_tile_count(camera.width, camera.height, config.tile_size)
        mid = num_tiles // 2
        return (
            render_tilewise(scene_obj, camera, config, tile_shard=(0, mid)),
            render_tilewise(scene_obj, camera, config, tile_shard=(mid, num_tiles)),
            scene_obj,
            camera,
            config,
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compose_tile_shards([])

    def test_whole_frame_result_rejected(self):
        scene_obj, camera = _scene_camera("train")
        whole = render_tilewise(scene_obj, camera, RenderConfig())
        with pytest.raises(ValueError):
            compose_tile_shards([whole])

    def test_gap_in_partition_rejected(self):
        first, second, *_ = self._two_shards()
        with pytest.raises(ValueError):
            compose_tile_shards([first])  # missing the tail shard

    def test_overlap_rejected(self):
        first, second, scene_obj, camera, config = self._two_shards()
        overlap = render_tilewise(
            scene_obj, camera, config, tile_shard=(0, first.tile_shard[1] + 1)
        )
        with pytest.raises(ValueError):
            compose_tile_shards([overlap, second])

    def test_out_of_range_shard_rejected(self):
        scene_obj, camera = _scene_camera("train")
        config = RenderConfig()
        num_tiles = frame_tile_count(camera.width, camera.height, config.tile_size)
        with pytest.raises(ValueError):
            render_tilewise(
                scene_obj, camera, config, tile_shard=(0, num_tiles + 1)
            )


class TestShardSpecPlanning:
    def test_shard_spec_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(index=-1, num_shards=2, tile_lo=0, tile_hi=4)
        with pytest.raises(ValueError):
            ShardSpec(index=0, num_shards=0, tile_lo=0, tile_hi=4)
        with pytest.raises(ValueError):
            ShardSpec(index=2, num_shards=2, tile_lo=0, tile_hi=4)
        with pytest.raises(ValueError):
            ShardSpec(index=0, num_shards=1, tile_lo=4, tile_hi=2)

    def test_plan_shards_partitions_the_frame(self):
        _, camera = _scene_camera("train")
        spec = FrameSpec()
        shards = plan_shards(camera, spec, 5)
        assert [s.index for s in shards] == list(range(5))
        num_tiles = frame_tile_count(camera.width, camera.height, spec.tile_size)
        cursor = 0
        for shard in shards:
            assert shard.tile_lo == cursor
            cursor = shard.tile_hi
        assert cursor == num_tiles

    def test_gaussianwise_cannot_shard(self):
        _, camera = _scene_camera("train")
        with pytest.raises(ValueError):
            plan_shards(camera, FrameSpec(dataflow="gaussianwise"), 2)
        scene_obj, camera = _scene_camera("train")
        with pytest.raises(ValueError):
            render_frame(
                scene_obj, camera, FrameSpec(dataflow="gaussianwise"), tile_shard=(0, 1)
            )

    def test_render_job_rejects_gaussianwise_shards(self):
        with pytest.raises(ValueError):
            RenderJob(
                "train",
                make_trajectory("orbit", num_frames=1),
                quick=True,
                dataflow="gaussianwise",
                shards=2,
            )
        with pytest.raises(ValueError):
            RenderJob(
                "train", make_trajectory("orbit", num_frames=1), quick=True, shards=0
            )

    def test_sequential_task_path_matches_whole_frame(self):
        # The in-process worker renders a shards=3 frame as three shard
        # tasks merged by the pool's compositor — its record must equal the
        # plain whole-frame record, and each shard is one work unit.
        def job(shards):
            return RenderJob(
                "train", make_trajectory("orbit", num_frames=1), quick=True, shards=shards
            )

        with RenderExecutor(num_workers=0) as executor:
            whole = executor.submit(job(1)).result()
            sharded = executor.submit(job(3)).result()
        assert np.array_equal(whole.frames[0].image, sharded.frames[0].image)
        assert_stats_equal(whole.frames[0].stats, sharded.frames[0].stats)
        assert sharded.cache_hits + sharded.cache_misses == 3

    def test_merge_rejects_mixed_frames(self):
        scene_obj, camera = _scene_camera("train")
        spec = FrameSpec()
        shards = plan_shards(camera, spec, 2)
        a = render_unit(scene_obj, (0, camera), spec, shards[0])
        b = render_unit(scene_obj, (1, camera), spec, shards[1])
        with pytest.raises(ValueError):
            merge_shard_records([a, b])


class TestExecutorSharding:
    """Pool-path sharding reproduces the sequential oracle bitwise."""

    def _sequential(self, job):
        return RenderFarm(num_workers=0).run(job)

    def _assert_results_equal(self, expected, actual):
        assert expected.num_frames == actual.num_frames
        for seq, pooled in zip(expected.frames, actual.frames):
            assert np.array_equal(seq.image, pooled.image)
            assert_stats_equal(seq.stats, pooled.stats)
        assert expected.aggregate_counters() == actual.aggregate_counters()

    def test_single_frame_sharded_across_pool(self):
        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=1), quick=True, shards=3
        )
        whole = self._sequential(
            RenderJob("train", make_trajectory("orbit", num_frames=1), quick=True)
        )
        with RenderExecutor(num_workers=2) as executor:
            result = executor.submit(job).result(timeout=300)
        self._assert_results_equal(whole, result)
        assert result.summary()["shards"] == 3

    def test_concurrent_mixed_shard_and_whole_frame_jobs(self):
        sharded = RenderJob(
            "train", make_trajectory("orbit", num_frames=2), quick=True, shards=2
        )
        whole = RenderJob(
            "train",
            make_trajectory("orbit", num_frames=2),
            quick=True,
            lod=1,
            quant="compact",
        )
        with RenderExecutor(num_workers=2) as executor:
            handles = [executor.submit(sharded), executor.submit(whole)]
            results = [handle.result(timeout=300) for handle in handles]
        self._assert_results_equal(
            self._sequential(
                RenderJob("train", make_trajectory("orbit", num_frames=2), quick=True)
            ),
            results[0],
        )
        self._assert_results_equal(self._sequential(whole), results[1])

    def test_sequential_executor_accepts_sharded_jobs(self):
        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=2), quick=True, shards=4
        )
        plain = self._sequential(
            RenderJob("train", make_trajectory("orbit", num_frames=2), quick=True)
        )
        self._assert_results_equal(plain, self._sequential(job))

    def test_farm_pools_single_frame_sharded_jobs(self):
        # A one-frame job historically fell back to in-process rendering;
        # with shards > 1 it has multiple work units and earns a pool.
        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=1), quick=True, shards=2
        )
        result = RenderFarm(num_workers=2).run(job)
        assert result.num_workers == 2
        whole = self._sequential(
            RenderJob("train", make_trajectory("orbit", num_frames=1), quick=True)
        )
        self._assert_results_equal(whole, result)
