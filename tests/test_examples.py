"""Every example runs to completion with small arguments.

Nothing else imports ``examples/``, so without this an example could keep
importing a module that no longer exists.  Each runs in a child process,
exactly as a user would start it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = [
    ["quickstart.py"],
    ["dataflow_ablation.py"],
    ["edge_deployment.py"],
    ["render_service.py", "--quick", "--frames", "2", "--workers", "0"],
    ["slo_serving.py", "--duration", "3"],
]


def run_example(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("args", EXAMPLES, ids=lambda args: args[0].removesuffix(".py"))
def test_example_exits_zero(args):
    run_example(args)


def test_custom_scene_rendering_reports_four_stages(tmp_path):
    stdout = run_example(
        ["custom_scene_rendering.py", "--views", "2", "--output-dir", str(tmp_path)]
    )
    for stage in ("Stage I ", "Stage II ", "Stage III ", "Stage IV "):
        assert f"  {stage}" in stdout, stdout
