"""Span-based tracer: explicit clocks, parent/child links, cheap recording.

A *span* is a plain dict — ``{"id", "parent", "name", "lane", "clock",
"t0_ms", "dur_ms", "attrs"}`` — so records pickle across the worker result
pipe and serialize to JSON without any schema layer.  ``dur_ms is None``
marks an instant event (a point, not an interval).

Two clock domains coexist in one trace:

* ``"wall"`` — real time.  ``t0_ms`` is unix-epoch milliseconds, which
  every process on the machine shares, so worker-side spans land at the
  right offset inside the parent's dispatch window without any
  cross-process clock handshake.  The epoch is read once per process and
  every later stamp is that anchor plus the machine-wide monotonic counter
  the durations are measured with (:func:`wall_now_ns`): a slewing or
  stepped wall clock cannot make a child span end after its parent.
  The executor hands its anchor to every worker it starts
  (:func:`adopt_wall_anchor_ns`), so parent and workers stamp on one
  timeline under any multiprocessing start method and however late a
  replacement worker is spawned.
* ``"virtual"`` — the scheduler's deterministic decision clock.  Virtual
  spans are *recorded from* already-decided quantities (arrival, queue
  wait, service), never measured, so tracing cannot perturb the decision
  plane.

``Tracer.span`` is a context manager that maintains a thread-local stack:
nested ``with`` blocks become parent/child links, and a child with no
explicit lane inherits the enclosing span's lane (stage spans recorded
deep inside the render kernels land on the worker's lane automatically).

Workers own a private ``Tracer`` and ``drain()`` it after every task; the
parent ``ingest()``s the shipped records, re-parenting the roots under its
own send→receive span so lane attribution and nesting survive process
boundaries.  Span ids are ``"<origin>:<n>"`` — give each process a unique
``origin`` and ids never collide after ingestion.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable

__all__ = [
    "KERNEL_STAGES",
    "WALL",
    "VIRTUAL",
    "Tracer",
    "TracerStageHook",
    "wall_now_ns",
    "wall_anchor_ns",
    "adopt_wall_anchor_ns",
]

WALL = "wall"
VIRTUAL = "virtual"

#: The render engines' named stages — the paper's per-stage cost model:
#: tile-wise project / pair_build / blend, Gaussian-wise project / boundary
#: (once per window of depth groups) and sh / blend (once per depth group).
KERNEL_STAGES = ("project", "pair_build", "boundary", "sh", "blend")


#: Unix-epoch nanoseconds of the monotonic counter's zero, read once.
_EPOCH_ANCHOR_NS = time.time_ns() - time.perf_counter_ns()


def wall_now_ns() -> int:
    """The wall clock of every span stamp: unix-epoch nanoseconds on the
    monotonic counter (see the module docstring)."""
    return _EPOCH_ANCHOR_NS + time.perf_counter_ns()


def wall_anchor_ns() -> int:
    """This process's epoch anchor, for handing to a child process."""
    return _EPOCH_ANCHOR_NS


def adopt_wall_anchor_ns(anchor_ns: int) -> None:
    """Stamp on the timeline of the process that read ``anchor_ns``.

    The monotonic counter is machine-wide, so a child that adopts its
    parent's anchor produces stamps directly comparable with the parent's
    even if the wall clock stepped between the two processes' imports.
    """
    global _EPOCH_ANCHOR_NS
    _EPOCH_ANCHOR_NS = anchor_ns


class _SpanHandle:
    """One in-flight ``with tracer.span(...)`` block.

    Exposes ``span_id`` (allocated at entry, so children observe their
    parent before it closes) and, after exit, ``dur_ms``.
    """

    __slots__ = ("_tracer", "name", "lane", "attrs", "span_id", "parent", "t0_ms", "_t0_ns", "dur_ms", "_obs_token")

    def __init__(self, tracer: "Tracer", name: str, lane: str | None, attrs: dict | None):
        self._tracer = tracer
        self.name = name
        self.lane = lane
        self.attrs = attrs
        self.span_id: str | None = None
        self.parent: str | None = None
        self.dur_ms: float | None = None

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack()
        enclosing = stack[-1] if stack else None
        if enclosing is not None:
            self.parent = enclosing.span_id
            if self.lane is None:
                self.lane = enclosing.lane
        if self.lane is None:
            self.lane = tracer.default_lane
        self.span_id = tracer._next_id()
        observer = tracer.observer
        self._obs_token = None if observer is None else observer.span_enter(self.name)
        self._t0_ns = wall_now_ns()
        self.t0_ms = self._t0_ns / 1e6
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_ms = (wall_now_ns() - self._t0_ns) / 1e6
        observer = self._tracer.observer
        if observer is not None:
            observer.span_exit(self.name, self._obs_token)
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        attrs = self.attrs
        if exc_type is not None:
            attrs = dict(attrs or ())
            attrs["error"] = exc_type.__name__
        self._tracer.record(
            self.name,
            lane=self.lane,
            t0_ms=self.t0_ms,
            dur_ms=self.dur_ms,
            parent=self.parent,
            attrs=attrs,
            span_id=self.span_id,
        )
        return False


class Tracer:
    """Collects span records; thread-safe appends, explicit drain/ingest."""

    def __init__(self, origin: str = "main", default_lane: str = "main"):
        self.origin = origin
        self.default_lane = default_lane
        #: Optional span observer — an object with ``span_enter(name) ->
        #: token`` / ``span_exit(name, token)`` called at ``with``-span
        #: entry and exit (the live profiling plane's hook: stage-stack
        #: tracking for the CPU sampler, ``profile.SpanStackTracker``).
        #: ``None`` (default) costs one attribute read per span.
        self.observer = None
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._seq = 0
        self._local = threading.local()

    # -- internal ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{self.origin}:{self._seq}"

    # -- recording ---------------------------------------------------------

    def record(
        self,
        name: str,
        *,
        lane: str | None = None,
        t0_ms: float,
        dur_ms: float | None = None,
        parent: str | None = None,
        clock: str = WALL,
        attrs: dict | None = None,
        span_id: str | None = None,
    ) -> str:
        """Append one explicit-clock span (or instant, if ``dur_ms`` is None)."""
        if span_id is None:
            span_id = self._next_id()
        entry = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "lane": lane if lane is not None else self.default_lane,
            "clock": clock,
            "t0_ms": float(t0_ms),
            "dur_ms": None if dur_ms is None else float(dur_ms),
            "attrs": dict(attrs) if attrs else {},
        }
        with self._lock:
            self._records.append(entry)
        return span_id

    def instant(
        self,
        name: str,
        *,
        lane: str | None = None,
        t_ms: float,
        clock: str = WALL,
        attrs: dict | None = None,
    ) -> str:
        """Record a point event (a span with no duration)."""
        return self.record(name, lane=lane, t0_ms=t_ms, dur_ms=None, clock=clock, attrs=attrs)

    def span(self, name: str, lane: str | None = None, attrs: dict | None = None) -> _SpanHandle:
        """A wall-clock span context manager; nests via a thread-local stack."""
        return _SpanHandle(self, name, lane, attrs)

    # -- collection --------------------------------------------------------

    @property
    def spans(self) -> list[dict]:
        """A snapshot copy of every record collected so far."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def spans_since(self, cursor: int = 0) -> tuple[list[dict], int]:
        """Records appended since ``cursor`` plus the new cursor.

        The cursor is an index into the record list: a client tails the
        trace by passing back the cursor each call and receiving only the
        spans recorded in between (the ``/trace.jsonl`` endpoint's
        incremental contract).  Cursors are only meaningful on tracers
        that are never :meth:`drain`-ed (the parent-side tracer; worker
        tracers drain after every task).  An out-of-range cursor clamps.
        """
        with self._lock:
            start = max(0, min(int(cursor), len(self._records)))
            return list(self._records[start:]), len(self._records)

    def drain(self) -> list[dict]:
        """Pop and return all records (workers ship these after each task)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def ingest(
        self,
        records: Iterable[dict],
        *,
        parent: str | None = None,
        lane: str | None = None,
    ) -> int:
        """Adopt records drained from another tracer (e.g. a worker's).

        Root records (``parent is None``) are re-parented under ``parent``
        so a worker's per-task trees hang off the executor's send→receive
        span; ``lane`` (if given) overrides the lane of every record.
        """
        adopted = []
        for record in records:
            if parent is not None and record.get("parent") is None:
                record = dict(record, parent=parent)
            if lane is not None:
                record = dict(record, lane=lane)
            adopted.append(record)
        with self._lock:
            self._records.extend(adopted)
        return len(adopted)


class TracerStageHook:
    """Adapter installing a :class:`Tracer` as the render-kernel stage hook.

    ``stage(name, **attrs)`` opens a span with no explicit lane, so stage
    spans inherit the lane of whatever frame/shard span encloses them.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def stage(self, name: str, **attrs: Any):
        return self.tracer.span(name, attrs=attrs or None)
