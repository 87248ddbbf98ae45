"""Measurement utilities shared by the ``stack`` benchmark's workloads.

Nothing here knows about a particular workload: the time-boxed pass loop, a
span recorder with self-time attribution, percentile/spread helpers, the
machine-speed reading end-to-end times are divided by, the per-run noise
``quality`` block and peak-RSS accounting.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Git-ignored scratch space inside the checkout: span files, and the
#: executor's payload directory (``tempfile`` is pointed here so nothing is
#: written outside the checkout).
RESULTS_DIR = Path(__file__).resolve().parents[1] / "results" / "stack"


# ----------------------------------------------------------------------
# What one timed phase of a workload returns
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """Outcome of one ``measure()`` call of a workload.

    ``values`` holds the end-to-end metrics the workload reads on its own
    operations, times in reference-speed milliseconds (see
    ``speed_reading``; ``speed`` lists the readings taken; the runner fills
    the names the workload has no operation for from ``stack_canary``);
    ``samples`` is how many timed operations stand behind its percentiles
    and ``op_ms`` their median, which the traced run compares with the
    untraced one.  ``attempted``/``failed``
    count every operation of the run, timed or not.  ``counts`` are quantities
    that must repeat exactly for a given seed (digests, work counters);
    ``extra`` carries raw per-workload data on to ``layer_metrics`` and
    ``verify``.
    """

    values: dict[str, float]
    samples: int
    op_ms: float
    speed: list[float]
    attempted: int
    failed: int = 0
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass
class Check:
    """One output-correctness check; a failed check counts as a failed op."""

    name: str
    ok: bool
    detail: str = ""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    """Linear-interpolated percentile (``nan`` for an empty sample)."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def iqr_share(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread);
    the whole range when there are too few values for quartiles."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / mid if mid else 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Time-boxed passes
# ----------------------------------------------------------------------
def timed_passes(run_pass, seconds: float, min_passes: int = 1) -> list[float]:
    """Call ``run_pass(i)`` until one more pass would overrun ``seconds``.

    A pass is a fixed set of inputs, so every pass does the same work and
    the time box only decides how many are taken; at least ``min_passes``
    run whatever the box says.  Returns each pass's wall seconds.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        run_pass(len(durations))
        now = time.perf_counter()
        durations.append(now - t0)
        if len(durations) >= min_passes and (
            now - start + statistics.median(durations) > seconds
        ):
            return durations


# ----------------------------------------------------------------------
# Span recorder (benchmark-owned; nothing under src/ is touched)
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded around the benchmark's calls into each layer.

    A span is ``{id, parent, op, name, start_ms, end_ms, counts}``; ``name``
    is ``<layer>.<operation>`` with the repo's module names as layers (and
    ``bench`` for the harness itself).  Spans nest per thread; ``add`` files
    an interval measured elsewhere (e.g. a worker-reported render time).
    The recorder also speaks the ``render.kernels`` stage-hook protocol, so
    installing it with ``set_stage_hook`` splits a tile-wise frame into
    ``render.project`` / ``render.pair_build`` / ``render.blend``.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def now_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    def to_ms(self, perf_counter_s: float) -> float:
        return (perf_counter_s - self._t0) * 1000.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start_ms, end_ms, parent=None, op=None, **counts) -> dict:
        """File a span over an interval measured elsewhere."""
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "name": name,
            "start_ms": start_ms,
            "end_ms": end_ms,
            "counts": counts,
        }
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None, **counts):
        """A span around the enclosed code, nested under this thread's open one."""
        stack = self._stack()
        record = self.add(name, self.now_ms(), None, stack[-1] if stack else None, op, **counts)
        stack.append(record)
        try:
            yield record
        finally:
            record["end_ms"] = self.now_ms()
            stack.pop()

    # render.kernels stage-hook protocol
    def stage(self, name, **attrs):
        return self.span(f"render.{name}")

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for record in sorted(self.spans, key=lambda r: r["id"]):
                out.write(json.dumps(record) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_by_op(spans: list[dict]) -> dict[str, dict]:
    """Per traced op: wall time of its root span and self time per span name.

    Self time is a span's duration minus the part of it its children cover.
    Children may run in parallel (two workers rendering one request), so the
    attribution sweeps the op's timeline and gives every elementary interval
    to the deepest span open over it; the per-name self times of an op then
    sum to its root span's wall time when every child lies inside its parent.
    """
    by_op: dict[str, list[dict]] = {}
    for record in spans:
        if record["op"] is not None:
            by_op.setdefault(record["op"], []).append(record)
    out = {}
    for op, records in by_op.items():
        by_id = {r["id"]: r for r in records}

        def depth(record) -> int:
            d = 0
            while record["parent"] in by_id:
                record = by_id[record["parent"]]
                d += 1
            return d

        depths = {r["id"]: depth(r) for r in records}
        roots = [r for r in records if depths[r["id"]] == 0]
        bounds = sorted({r["start_ms"] for r in records} | {r["end_ms"] for r in records})
        self_ms: dict[str, float] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            mid = (lo + hi) / 2.0
            open_spans = [r for r in records if r["start_ms"] <= mid < r["end_ms"]]
            if open_spans:
                deepest = max(open_spans, key=lambda r: depths[r["id"]])
                self_ms[deepest["name"]] = self_ms.get(deepest["name"], 0.0) + hi - lo
        out[op] = {
            "wall_ms": sum(r["end_ms"] - r["start_ms"] for r in roots),
            "self_ms": self_ms,
        }
    return out


def budget_shares(spans: list[dict]) -> tuple[dict[str, float], float]:
    """Share of traced op wall time spent in each layer, and the worst
    relative gap between an op's summed self times and its wall time."""
    per_op = self_time_by_op(spans)
    total = sum(op["wall_ms"] for op in per_op.values())
    layers: dict[str, float] = {}
    worst_gap = 0.0
    for op in per_op.values():
        for name, ms in op["self_ms"].items():
            layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + ms
        if op["wall_ms"] > 0:
            gap = abs(sum(op["self_ms"].values()) - op["wall_ms"]) / op["wall_ms"]
            worst_gap = max(worst_gap, gap)
    shares = {layer: ms / total for layer, ms in layers.items()} if total else {}
    return shares, worst_gap


# ----------------------------------------------------------------------
# Noise and memory
# ----------------------------------------------------------------------
def _cpu_ticks() -> dict[str, int]:
    """The machine's tick counters since boot, from /proc/stat (zeros where
    there is no such file)."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
        return {"idle": fields[3] + fields[4], "steal": fields[7], "all": sum(fields)}
    except (OSError, ValueError, IndexError):
        return {"idle": 0, "steal": 0, "all": 0}


def box_busy_share(interval_s: float = 0.1) -> float:
    """Share of the machine's CPU time that was not idle over a short look,
    taken before a run starts: what somebody else is using right now."""
    before = _cpu_ticks()
    time.sleep(interval_s)
    after = _cpu_ticks()
    ticks = after["all"] - before["all"]
    return 1.0 - (after["idle"] - before["idle"]) / ticks if ticks else 0.0


#: Time of the two halves of ``speed_reading`` on the 2-CPU reference box in
#: its usual fast state (frozen; they only fix the scale of "reference speed").
SPEED_NOMINAL_MS = {"array": 7.0, "bytecode": 4.2}

_SPEED_RNG = np.random.default_rng(0)
_SPEED_ALPHA = _SPEED_RNG.random((257, 256))
_SPEED_COLORS = _SPEED_RNG.random((256, 3))


def speed_reading() -> float:
    """How much slower than usual the box runs right now (1 = usual).

    One fixed reference kernel that touches no code of the repository, half
    large-array NumPy arithmetic in the shapes of Stage-IV blending, half
    dict/branch-heavy bytecode as in the scheduler (~11 ms together); the
    reading is the mean of the two halves' slowdown against their nominal
    times.

    Why it exists: this class of box moves between speed states that last
    from a second to tens of seconds, with no steal and no load average to
    show for it.  Sixteen consecutive 5 s windows of unchanged code on the
    idle box (medians per window) spread, as inter-quartile distance over
    median: tile-wise render 24 %, Gaussian-wise render 29 %, scheduler
    replay 24 % — the driver refuses a benchmark whose run-to-run spread
    exceeds its bound, and no bound may exceed 25 %.  Divided by this
    reading taken beside them the same windows spread 3 %, 9 % and 6 %.
    End-to-end times are therefore reported in *reference-speed*
    milliseconds, ``raw / reading``, which equal raw milliseconds whenever
    the box is in its usual state; per-layer times stay raw, with
    ``bench.speed_factor`` beside them.
    """
    t0 = time.perf_counter()
    for _ in range(6):
        trans = np.cumprod(1.0 - _SPEED_ALPHA * 0.5, axis=0)
        weights = np.where(trans[:-1] > 1e-3, trans[:-1] * _SPEED_ALPHA[1:], 0.0)
        np.einsum("kp,kc->pc", weights, _SPEED_COLORS)
        np.exp(-_SPEED_ALPHA)
    t1 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        table[i & 1023] = acc
        acc += (i * 7) % 13
        if acc & 1:
            acc += len(table)
    t2 = time.perf_counter()
    return 0.5 * (
        (t1 - t0) * 1000.0 / SPEED_NOMINAL_MS["array"] + (t2 - t1) * 1000.0 / SPEED_NOMINAL_MS["bytecode"]
    )


def quality_snapshot() -> dict:
    ticks = _cpu_ticks()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "t": time.perf_counter(),
        "loadavg1": os.getloadavg()[0],
        "steal_ticks": ticks["steal"],
        "all_ticks": ticks["all"],
        "invol_ctx": own.ru_nivcsw + kids.ru_nivcsw,
    }


def quality_block(before: dict, after: dict, busy_before: float, speed: list[float]) -> dict:
    """What the machine did during the run, and whether to distrust the run.

    A run is flagged noisy when more than a quarter of the box's CPU time was
    already in use just before it started, the hypervisor stole more than 2 %
    of the ticks while it ran, or the run's ``speed_reading``s have a median
    more than 50 % from nominal; the numbers are still reported, with the
    flag beside them.
    """
    ticks = after["all_ticks"] - before["all_ticks"]
    steal_share = (after["steal_ticks"] - before["steal_ticks"]) / ticks if ticks else 0.0
    elapsed = after["t"] - before["t"]
    speed_factor = median(speed)
    reasons = []
    if busy_before > 0.25:
        reasons.append(f"box {busy_before:.0%} busy before the run")
    if steal_share > 0.02:
        reasons.append(f"steal {steal_share:.1%} of ticks")
    if abs(speed_factor - 1.0) > 0.5:
        reasons.append(f"machine speed factor {speed_factor:.2f}")
    return {
        "busy_before": busy_before,
        "loadavg1_before": before["loadavg1"],
        "loadavg1_after": after["loadavg1"],
        "steal_share": steal_share,
        "invol_ctx_per_s": (after["invol_ctx"] - before["invol_ctx"]) / elapsed if elapsed else 0.0,
        "speed_factor": speed_factor,
        "speed_range": [min(speed), max(speed)],
        "noisy": bool(reasons),
        "reasons": reasons,
    }


def peak_rss_mb() -> float:
    """High-water resident memory: this process plus its largest ended child.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` covers only children that were waited
    for, so pools must be shut down before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
