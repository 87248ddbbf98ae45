"""One run of one workload of the ``stack`` benchmark.

``run_once`` is what ``run.py --workload W --trace 0|1`` executes:

* untraced (``trace=0``): set up three times (``setup_s`` is their median),
  read the canaries for the end-to-end names this workload has no operation
  for, measure for ``seconds`` with at least three passes, verify the
  outputs, report the end-to-end metrics — times at reference speed (see
  ``stack_harness.speed_reading``);
* traced (``trace=1``): measure the workload untraced and then again under a
  benchmark-owned span recorder (the ratio is the tracing overhead), write
  the spans, and report the per-layer metrics.  The driver wants every
  per-layer metric from every traced run, so the metrics whose home is
  another workload are filled from a smoke-scale pass of that workload.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time

import stack_catalog as catalog
from stack_canary import decision_canary, frame_canary
from stack_harness import (
    RESULTS_DIR,
    Check,
    SpanRecorder,
    box_busy_share,
    budget_shares,
    median,
    peak_rss_mb,
    quality_block,
    quality_snapshot,
    speed_reading,
)
from stack_paper import PaperFrames
from stack_replay import SchedReplay
from stack_serving import ServeCold, ServeWarm

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest passes an untraced run takes, whatever the time box says.
MIN_PASSES = 3
#: Traced runs: share of the time box for each of the home workload's two
#: measurements (untraced, traced); the other workloads split the rest.
HOME_SHARE = 0.3

_FACTORIES = {
    "paper_frames": PaperFrames,
    "serve_warm": ServeWarm,
    "serve_cold": ServeCold,
    "sched_replay": SchedReplay,
}

_UNITS = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER + catalog.PER_WORKLOAD}


def _as_metrics(values: dict[str, float]) -> dict:
    broken = [name for name, value in values.items() if not math.isfinite(value)]
    if broken:  # would not survive JSON; a run that cannot measure must not report
        raise RuntimeError(f"metrics without a finite value: {broken}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in _UNITS.items() if name in values}


def run_once(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run workload ``name`` once; returns the driver result plus detail."""
    tmp = RESULTS_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    previous_tmp, tempfile.tempdir = tempfile.tempdir, str(tmp)
    started = time.perf_counter()
    busy_before = box_busy_share()
    before = quality_snapshot()
    speed: list[float] = []
    workload = _FACTORIES[name](seed, smoke)
    try:
        if trace:
            values, checks, measured, detail = _traced(workload, seed, seconds, speed)
        else:
            values, checks, measured, detail = _untraced(workload, seconds, smoke, speed)
    finally:
        workload.teardown()
        tempfile.tempdir = previous_tmp
        shutil.rmtree(tmp, ignore_errors=True)
    failed_checks = [c for c in checks if not c.ok]
    attempted = measured.attempted + len(checks)
    failed = measured.failed + len(failed_checks)
    quality = quality_block(before, quality_snapshot(), busy_before, speed)
    if trace:
        values["failed_share"] = failed / attempted
        values["bench.speed_factor"] = quality["speed_factor"]
    else:
        values["peak_rss_mb"] = peak_rss_mb()  # after teardown: children waited for
    detail.update(
        quality=quality,
        samples=measured.samples,
        counts=measured.counts,
        wall_s=time.perf_counter() - started,
        checks=[{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_metrics(values),
        "detail": detail,
    }


def _untraced(workload, seconds, smoke, speed):
    setup_s = []
    before = speed_reading()
    for k in range(SETUPS):
        if k:
            workload.teardown()
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        after = speed_reading()
        setup_s.append(elapsed / ((before + after) / 2.0))
        before = after
    # The names this workload has no operation for (stack_catalog.OFF_HOME),
    # read before the timed part fills the heap with results.
    wanted = {name for name, how in catalog.OFF_HOME[workload.name].items() if how.startswith("canary")}
    canary: dict[str, float] = {}
    if wanted - {"decisions_per_s"}:
        canary.update(frame_canary(smoke))
    if "decisions_per_s" in wanted:
        canary.update(decision_canary(smoke))
    measured = workload.measure(seconds, None, MIN_PASSES)
    speed += measured.speed
    values = dict(measured.values, setup_s=median(setup_s), **{name: canary[name] for name in wanted})
    checks = workload.verify(measured)
    return values, checks, measured, {"setup_s_each": setup_s}


def _traced(workload, seed, seconds, speed):
    workload.setup()
    untraced = workload.measure(seconds * HOME_SHARE, None, 1)
    rec = SpanRecorder()
    traced = workload.measure(seconds * HOME_SHARE, rec, 1)
    speed += untraced.speed + traced.speed
    values = workload.layer_metrics(untraced, traced, rec)
    checks = workload.verify(traced)
    workload.teardown()

    shares, worst_gap = budget_shares(rec.spans)
    checks.append(
        Check(
            "trace.self_times_sum_to_op_wall",
            worst_gap <= 0.05,
            f"worst op: summed self times off its wall time by {worst_gap:.2%}",
        )
    )
    rec.write(RESULTS_DIR / f"{workload.name}.spans.jsonl")
    values["obs.trace_overhead_ratio"] = traced.op_ms / untraced.op_ms
    for layer in catalog.TRACED_LAYERS:
        values[f"budget.{layer}_share"] = shares.get(layer, 0.0)

    # Per-layer metrics whose home is another workload: a smoke-scale pass of
    # that workload, so that every traced run carries the whole table.
    others = [w.name for w in catalog.WORKLOADS if w.name != workload.name]
    filler_seconds = seconds * (1.0 - 2 * HOME_SHARE) / (2 * len(others))
    for other in others:
        filler = _FACTORIES[other](seed, True)
        try:
            filler.setup()
            plain = filler.measure(filler_seconds, None, 1)
            filler_rec = SpanRecorder()
            values.update(filler.layer_metrics(plain, filler.measure(filler_seconds, filler_rec, 1), filler_rec))
        finally:
            filler.teardown()
    detail = {
        "spans": len(rec.spans),
        "span_file": str(RESULTS_DIR / f"{workload.name}.spans.jsonl"),
        "filled_from_smoke_pass": others,
    }
    return values, checks, traced, detail
