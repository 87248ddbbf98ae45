"""No-deps sampling profiler: flamegraph-grade CPU and memory attribution.

Two attribution planes, both hung off :class:`~repro.obs.trace.Tracer`'s
``observer`` extension point, both stdlib-only:

* **CPU** — :class:`StackSampler` runs a daemon thread that snapshots
  every other thread's Python stack via ``sys._current_frames()`` at a
  fixed interval and folds each snapshot into a collapsed-stack counter
  (``frame;frame;...;span:<stage> count`` — the Brendan Gregg folded
  format every flamegraph renderer eats).  A :class:`SpanStackTracker`
  rides the span entry/exit stream so each sampled stack is tagged with
  the innermost *tracked* span open on that thread at sample time —
  that tag is what lets :func:`attribute_stages` say "93% of samples
  landed inside ``blend``" without symbol-name guessing.

  A sampling thread (not a signal) is deliberate: ``signal``-based
  profilers only interrupt the main thread, but render work here runs
  on executor pool threads and under pytest workers.  The cost model is
  the usual statistical one — at the default 5 ms interval a stage
  needs ~10 ms of cumulative CPU to be visible at all, and fractions
  converge as run time grows.

* **Memory** — :class:`MemoryAttributor` brackets each tracked span
  with ``tracemalloc`` readings: allocation increase across the span
  and the traced-memory peak reached inside it, keyed by span name.
  ``tracemalloc`` roughly doubles allocation cost while tracing, so
  memory attribution is opt-in and independent of the (cheap) CPU
  sampler; the zero-perturbation suite runs with both enabled to prove
  neither changes a rendered bit.

Workers are separate *processes*, invisible to this process's
``sys._current_frames()`` — CPU/memory attribution therefore profiles
sequential execution (``--workers 0``) or the parent's own threads.
The per-worker resource plane (:mod:`repro.obs.resources`) covers the
multiprocess case at process granularity.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.obs.trace import KERNEL_STAGES

__all__ = [
    "KERNEL_STAGES",
    "TRACKED_SPANS",
    "WAIT_LEAVES",
    "CompositeObserver",
    "MemoryAttributor",
    "SpanStackTracker",
    "StackSampler",
    "attribute_stages",
    "collapse_text",
]

#: Spans bracketed for attribution: kernel stages plus codec decode.
TRACKED_SPANS = KERNEL_STAGES + ("decode",)

#: Leaf ``file:func`` frames that mean "this thread is parked, not
#: working": lock/condition waits, thread joins, selector polls, pipe
#: polls, the HTTP accept loop.  Stacks ending here are classified idle
#: and excluded from the attribution denominator (the py-spy convention)
#: — a profiler that charges the render kernels for the listener thread
#: blocked in ``select`` would understate every stage on quiet runs.
WAIT_LEAVES = frozenset(
    {
        "threading.py:wait",
        "threading.py:join",
        "threading.py:_wait_for_tstate_lock",
        "selectors.py:select",
        "socketserver.py:serve_forever",
        "socketserver.py:_handle_request_noblock",
        "connection.py:poll",
        "connection.py:_poll",
        "connection.py:wait",
        "connection.py:recv",
        "connection.py:_recv",
        "connection.py:recv_bytes",
        "connection.py:_recv_bytes",
        "socket.py:accept",
        "socket.py:recv",
        "socket.py:recv_into",
        "socket.py:readinto",
        "socket.py:sendall",
        "profile.py:capture",
    }
)


class SpanStackTracker:
    """Per-thread stack of currently-open *tracked* span names.

    Installed as a tracer observer.  ``span_enter``/``span_exit`` run on
    the span's own thread; :meth:`innermost` is called from the sampler
    thread.  The per-thread stacks live in a dict keyed by thread ident
    — single reads and appends are atomic under the GIL, and the sampler
    tolerates the one benign race (a span closing mid-sample shifts one
    sample between adjacent stages, which is noise by construction).
    """

    def __init__(self, tracked: tuple[str, ...] = TRACKED_SPANS):
        self.tracked = frozenset(tracked)
        self._stacks: dict[int, list[str]] = {}

    # -- tracer-observer protocol ------------------------------------------

    def span_enter(self, name: str):
        if name not in self.tracked:
            return None
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        stack.append(name)
        return name

    def span_exit(self, name: str, token) -> None:
        if token is None:
            return
        stack = self._stacks.get(threading.get_ident())
        if stack and stack[-1] == token:
            stack.pop()

    # -- sampler side ------------------------------------------------------

    def innermost(self, thread_ident: int) -> str | None:
        """The deepest tracked span open on ``thread_ident``, if any."""
        stack = self._stacks.get(thread_ident)
        return stack[-1] if stack else None


class CompositeObserver:
    """Fans the tracer's single observer slot out to several observers."""

    def __init__(self, *observers):
        self.observers = tuple(observers)

    def span_enter(self, name: str):
        return tuple(obs.span_enter(name) for obs in self.observers)

    def span_exit(self, name: str, token) -> None:
        tokens = token if token is not None else (None,) * len(self.observers)
        for obs, tok in zip(self.observers, tokens):
            obs.span_exit(name, tok)


def _fold_frame(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # Trim to the tail path component; full build paths bloat folded
    # output without adding identity (func names disambiguate in practice).
    slash = filename.rfind("/")
    return f"{filename[slash + 1:]}:{code.co_name}"


class StackSampler:
    """Daemon-thread sampling profiler producing collapsed-stack counts.

    ``counts()`` maps a root-first tuple of ``file:func`` frames —
    suffixed with ``span:<name>`` when a tracked span was open on the
    sampled thread — to the number of samples observed there.
    :meth:`capture` takes a bounded-duration delta (the ``/profile``
    endpoint); :meth:`start`/:meth:`stop` run it continuously.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        tracker: SpanStackTracker | None = None,
    ):
        if not interval_s > 0:
            raise ValueError("need interval_s > 0")
        self.interval_s = float(interval_s)
        self.tracker = tracker
        #: Thread idents never sampled — pure-infrastructure threads (the
        #: telemetry listener, a handler blocked inside ``capture``) that
        #: would otherwise pollute every profile with their wait frames.
        self.ignored: set[int] = set()
        self._counts: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    # -- sampling ----------------------------------------------------------

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.sample_once(skip={own})

    def sample_once(self, skip: set[int] | None = None) -> int:
        """Fold one snapshot of every (other) thread's stack; returns the
        number of threads sampled."""
        skip = (skip or set()) | self.ignored
        sampled = 0
        for ident, frame in sys._current_frames().items():
            if ident in skip:
                continue
            frames = []
            while frame is not None:
                frames.append(_fold_frame(frame))
                frame = frame.f_back
            frames.reverse()  # root-first, the folded-stack convention
            if self.tracker is not None:
                span = self.tracker.innermost(ident)
                if span is not None:
                    frames.append(f"span:{span}")
            key = tuple(frames)
            with self._lock:
                self._counts[key] = self._counts.get(key, 0) + 1
            sampled += 1
        return sampled

    # -- reading -----------------------------------------------------------

    def counts(self) -> dict[tuple[str, ...], int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()

    def capture(self, seconds: float) -> dict[tuple[str, ...], int]:
        """Sample for ``seconds`` and return only the stacks added.

        Works whether or not the sampler is already running: a running
        sampler contributes its stream (the delta is computed against a
        baseline snapshot); otherwise this call samples inline.
        """
        baseline = self.counts()
        if self.running:
            deadline = time.monotonic() + float(seconds)
            while time.monotonic() < deadline:
                time.sleep(min(self.interval_s, 0.05))
        else:
            own = {threading.get_ident()}
            deadline = time.monotonic() + float(seconds)
            while time.monotonic() < deadline:
                self.sample_once(skip=own)
                time.sleep(self.interval_s)
        delta: dict[tuple[str, ...], int] = {}
        for key, count in self.counts().items():
            extra = count - baseline.get(key, 0)
            if extra > 0:
                delta[key] = extra
        return delta


def collapse_text(counts: dict[tuple[str, ...], int]) -> str:
    """Folded flamegraph text: one ``frame;frame;... count`` line per
    stack, sorted for deterministic output.  Feed straight into
    ``flamegraph.pl`` or any folded-stack renderer."""
    lines = [
        ";".join(frames) + f" {count}"
        for frames, count in sorted(counts.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def attribute_stages(
    counts: dict[tuple[str, ...], int],
    stages: tuple[str, ...] = KERNEL_STAGES,
) -> dict:
    """How much of the sampled CPU landed inside each named kernel stage.

    Returns ``{"total", "idle", "active", "stages": {stage: samples},
    "attributed_fraction"}``.  Stage membership comes from the
    ``span:<name>`` tag the sampler appends, not from frame-name
    matching, so a stage is charged for everything executed under its
    span including numpy internals that never show a Python frame of
    their own.  Stacks parked on a :data:`WAIT_LEAVES` frame count as
    ``idle`` and are excluded from the denominator: the fraction is
    ``sum(stages) / active`` — CPU attribution over threads doing work,
    which is what the ≥ 50%-inside-named-stages acceptance gate checks.
    """
    markers = {f"span:{stage}": stage for stage in stages}
    total = idle = 0
    per_stage = {stage: 0 for stage in stages}
    for frames, count in counts.items():
        total += count
        if not frames:
            continue
        leaf = frames[-1]
        if leaf in markers:
            per_stage[markers[leaf]] += count
        elif leaf in WAIT_LEAVES:
            idle += count
    attributed = sum(per_stage.values())
    active = total - idle
    return {
        "total": total,
        "idle": idle,
        "active": active,
        "stages": per_stage,
        "attributed_fraction": (attributed / active) if active else 0.0,
    }


class MemoryAttributor:
    """Per-span allocation accounting over ``tracemalloc``.

    A tracer observer: each tracked span's entry records the current
    traced size and resets the peak; its exit charges the span with the
    net allocation increase and the peak traced size reached inside it.
    ``stats()`` returns ``{span_name: {"count", "peak_bytes",
    "total_increase_bytes"}}``.  Tracked spans never nest within each
    other in this codebase (the kernel stages are siblings under a frame;
    decode is a sibling of frame), so the reset-peak bracket is exact per
    span.

    Does nothing (and charges nothing) unless :meth:`start` has engaged
    ``tracemalloc`` — so the attributor can sit installed permanently
    while tracing stays opt-in.
    """

    def __init__(self, tracked: tuple[str, ...] = TRACKED_SPANS):
        self.tracked = frozenset(tracked)
        self._lock = threading.Lock()
        self._stats: dict[str, dict] = {}
        self._started_here = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True

    def stop(self) -> None:
        import tracemalloc

        if self._started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_here = False

    # -- tracer-observer protocol ------------------------------------------

    def span_enter(self, name: str):
        if name not in self.tracked:
            return None
        import tracemalloc

        if not tracemalloc.is_tracing():
            return None
        current, _ = tracemalloc.get_traced_memory()
        if hasattr(tracemalloc, "reset_peak"):
            tracemalloc.reset_peak()
        return current

    def span_exit(self, name: str, token) -> None:
        if token is None:
            return
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        current, peak = tracemalloc.get_traced_memory()
        with self._lock:
            entry = self._stats.setdefault(
                name, {"count": 0, "peak_bytes": 0, "total_increase_bytes": 0}
            )
            entry["count"] += 1
            entry["peak_bytes"] = max(entry["peak_bytes"], peak)
            entry["total_increase_bytes"] += max(0, current - token)

    # -- reading -----------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        with self._lock:
            return {name: dict(entry) for name, entry in sorted(self._stats.items())}

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
