"""Tests for quality-tiered serving: farm lod/quant, encoded shipping, CLI."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.eval.runner import EvalSetup, run_tilewise
from repro.exec.frames import FrameSpec
from repro.serve.__main__ import build_parser, main
from repro.serve.farm import RenderFarm
from repro.serve.trajectories import RenderJob, make_trajectory
from repro.store.codec import QUANT_SPECS, quant_spec, roundtrip_scene
from repro.store.lod import select_lod


def _assert_stats_equal(a, b) -> None:
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


class TestJobValidation:
    def test_negative_lod_rejected(self):
        with pytest.raises(ValueError, match="lod"):
            RenderJob("train", make_trajectory("orbit", num_frames=1), lod=-1)

    def test_unknown_quant_rejected(self):
        with pytest.raises(ValueError, match="quant"):
            RenderJob("train", make_trajectory("orbit", num_frames=1), quant="int4")

    def test_framespec_validates_tier(self):
        with pytest.raises(ValueError, match="quant"):
            FrameSpec(quant="int4")
        with pytest.raises(ValueError, match="lod"):
            FrameSpec(lod=-2)

    def test_framespec_carries_job_tier(self):
        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=1), quick=True,
            lod=2, quant="compact",
        )
        spec = FrameSpec.for_job(job)
        assert (spec.lod, spec.quant) == (2, "compact")


class TestSequentialTiers:
    def test_lossless_tier_matches_eval_runner_bitwise(self):
        job = RenderJob("train", make_trajectory("orbit", num_frames=1), quick=True)
        result = RenderFarm(num_workers=0).run(job)
        single = run_tilewise(EvalSetup("train", quick=True))
        assert np.array_equal(result.frames[0].image, single.image)
        _assert_stats_equal(result.frames[0].stats, single.stats)
        assert result.ship_bytes == 0
        assert result.num_gaussians == 2500

    def test_quantized_tier_renders_the_roundtripped_scene(self):
        from repro.eval.runner import load_scene_and_camera
        from repro.exec.frames import render_frame

        job = RenderJob(
            "train", make_trajectory("orbit", num_frames=1), quick=True,
            lod=1, quant="compact",
        )
        result = RenderFarm(num_workers=0).run(job)

        scene, camera = load_scene_and_camera(EvalSetup("train", quick=True))
        expected_scene = roundtrip_scene(select_lod(scene, 1), quant_spec("compact"))
        expected = render_frame(expected_scene, camera, FrameSpec())
        assert np.array_equal(result.frames[0].image, expected.image)
        assert result.num_gaussians == expected_scene.num_gaussians

    def test_lod_shrinks_the_scene(self):
        job0 = RenderJob("train", make_trajectory("orbit", num_frames=1), quick=True)
        job2 = dataclasses.replace(job0, lod=2)
        n0 = RenderFarm(num_workers=0).run(job0).num_gaussians
        n2 = RenderFarm(num_workers=0).run(job2).num_gaussians
        assert n2 == max(1, round(n0 * 0.25))


class TestPoolShipping:
    @pytest.fixture(scope="class")
    def quant_job(self) -> RenderJob:
        return RenderJob(
            "train", make_trajectory("orbit", num_frames=2), quick=True,
            lod=1, quant="compact",
        )

    def test_pool_is_bitwise_identical_to_sequential(self, quant_job):
        sequential = RenderFarm(num_workers=0).run(quant_job)
        pooled = RenderFarm(num_workers=2).run(quant_job)
        assert pooled.num_workers == 2
        for seq, par in zip(sequential.frames, pooled.frames):
            assert np.array_equal(seq.image, par.image)
            _assert_stats_equal(seq.stats, par.stats)

    def test_quantized_shipping_is_smaller_than_lossless(self, quant_job):
        lossless_job = dataclasses.replace(quant_job, lod=0, quant="lossless")
        quantized = RenderFarm(num_workers=2).run(quant_job)
        lossless = RenderFarm(num_workers=2).run(lossless_job)
        assert 0 < quantized.ship_bytes < lossless.ship_bytes / 4

    def test_summary_reports_tier_and_bytes(self, quant_job):
        result = RenderFarm(num_workers=2).run(quant_job)
        summary = result.summary()
        assert summary["lod"] == 1
        assert summary["quant"] == "compact"
        assert summary["ship_bytes"] == result.ship_bytes > 0
        assert summary["num_gaussians"] == result.num_gaussians


class TestCli:
    def test_parser_accepts_tier_flags(self):
        args = build_parser().parse_args(["--lod", "1", "--quant", "compact"])
        assert args.lod == 1
        assert args.quant == "compact"
        assert sorted(QUANT_SPECS) == ["compact", "fp16", "lossless"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--shards", "2"], "shards > 1 requires the tilewise dataflow"),
            (["--dtype", "float32"], "the gaussianwise dataflow only supports dtype='float64'"),
        ],
        ids=["shards", "dtype-float32"],
    )
    def test_dataflow_rules_exit_2_with_the_library_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--frames", "1", "--dataflow", "gaussianwise", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_cli_runs_quantized_tier(self, capsys):
        rc = main(
            ["--scene", "train", "--quick", "--frames", "1",
             "--lod", "1", "--quant", "compact", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lod"] == 1
        assert report["quant"] == "compact"
        assert report["num_gaussians"] == 1250

    def test_cli_scene_file_npz(self, tmp_path, smoke_scene, capsys):
        from repro.gaussians.io import save_scene_npz

        path = tmp_path / "disk_scene.npz"
        save_scene_npz(smoke_scene, path)
        rc = main(["--scene-file", str(path), "--frames", "1", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scene"] == "file:disk_scene"
        assert report["num_gaussians"] == smoke_scene.num_gaussians

    def test_cli_scene_file_text(self, tmp_path, smoke_scene, capsys):
        from repro.gaussians.io import save_scene_text

        path = tmp_path / "disk_scene.txt"
        save_scene_text(smoke_scene, path)
        rc = main(["--scene-file", str(path), "--frames", "1", "--lod", "1"])
        assert rc == 0
        assert "file:disk_scene" in capsys.readouterr().out

    def test_cli_scene_file_unknown_format_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x00\x01\x02 definitely not a scene")
        with pytest.raises(SystemExit) as excinfo:
            main(["--scene-file", str(path), "--frames", "1"])
        assert excinfo.value.code == 2
        assert "known formats" in capsys.readouterr().err

    def test_cli_scene_file_missing_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scene-file", str(tmp_path / "absent.npz")])
        assert excinfo.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_cli_scene_file_corrupt_zip_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04 truncated zip garbage")
        with pytest.raises(SystemExit) as excinfo:
            main(["--scene-file", str(path), "--frames", "1"])
        assert excinfo.value.code == 2
        assert "not a recognised scene" in capsys.readouterr().err
