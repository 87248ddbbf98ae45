"""Keep the layers legible: no function in ``sched/``, ``fleet/``, ``exec/``,
``serve/``, ``obs/``, ``store/``, ``eval/`` or ``gaussians/`` may grow past
100 lines again (``RequestScheduler.run`` once reached 750, and the executor
once ran each job twice, in two ~100-line submit paths).

``render/`` and ``arch/`` stay out of the cap: the engines' reference loops
and the accelerator models are long by design (``render_gaussianwise`` is
276 lines, ``GScoreAccelerator.simulate`` 156)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_LINES = 100
PACKAGES = ("sched", "fleet", "exec", "serve", "obs", "store", "eval", "gaussians")
FILES = sorted(path for package in PACKAGES for path in (SRC / package).glob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_function_over_100_lines(path):
    too_long = [
        f"{node.name} ({node.end_lineno - node.lineno + 1} lines, line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > MAX_LINES
    ]
    assert not too_long, f"{path.name}: split these up: {too_long}"
