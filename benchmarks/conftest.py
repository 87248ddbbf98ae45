"""Shared infrastructure for the guard benchmarks.

Each guard runs once under ``pytest-benchmark`` (single round — these are
contract checks, not micro-benchmarks) and writes its text report and its
JSON payload to ``benchmarks/results/``; ``perf_trajectory.py`` diffs the
JSON exactly against the committed ``BENCH_<name>.json``.  The paper ledger
(``bench_paper_figures.py``) regenerates every table and figure of the
paper at the default evaluation scale (see EXPERIMENTS.md).

Run with::

    pytest benchmarks/bench_*.py --benchmark-only

All experiments render through the vectorized engine
(``RenderConfig(backend="vectorized")``, the default), which produces
statistics counters identical to the reference per-Gaussian/per-block loops
(``backend="reference"``) and bitwise identical images — so every figure
and table is backend-independent (``tests/test_engine_equivalence.py``
holds that equivalence).  Wall-clock performance is measured by the
``stack`` benchmark, ``python3 benchmarks/stack/run.py`` (see
``benchmarks/stack/README.md``), not by these guards.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where formatted experiment outputs are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_report(results_dir):
    """Return a helper that writes one experiment's text report to disk."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")

    return _save


def _jsonable(value):
    """Coerce a benchmark payload into strict (RFC 8259) JSON values.

    NumPy scalars become Python numbers; non-finite floats (``inf`` PSNR of
    a bitwise-identical tier, ``nan``) become ``null`` — ``json.dumps``
    would otherwise emit the ``Infinity`` literal, which strict parsers
    (``jq``, ``JSON.parse``) reject.
    """
    if isinstance(value, dict):
        return {key: _jsonable(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(inner) for inner in value]
    if isinstance(value, (bool, str, int, type(None))):
        return value
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    number = float(value)
    return number if math.isfinite(number) else None


@pytest.fixture(scope="session")
def save_json(results_dir):
    """Return a helper that writes one experiment's machine-readable JSON.

    Written next to the text reports as ``benchmarks/results/<name>.json``
    so the perf trajectory can be tracked across runs by tooling instead of
    scraped out of formatted tables.  The payload is coerced to strict JSON
    first (NumPy scalars to numbers, non-finite floats to ``null``).
    """

    def _save(name: str, payload) -> None:
        path = results_dir / f"{name}.json"
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n")

    return _save


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
