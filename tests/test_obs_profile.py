"""The sampling profiler: span tracking, CPU sampling, memory attribution.

The profiling plane is statistical by nature, so these tests avoid
asserting on exact sample counts: synthetic workloads spin inside a
tracked span long enough that *some* samples must land there, and the
attribution math is tested separately on hand-built count dicts where
the arithmetic is exact.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import Tracer
from repro.obs.profile import (
    KERNEL_STAGES,
    TRACKED_SPANS,
    WAIT_LEAVES,
    CompositeObserver,
    MemoryAttributor,
    SpanStackTracker,
    StackSampler,
    attribute_stages,
    collapse_text,
)


class TestSpanStackTracker:
    def test_tracked_span_pushes_and_pops(self):
        tracker = SpanStackTracker()
        ident = threading.get_ident()
        token = tracker.span_enter("blend")
        assert token == "blend"
        assert tracker.innermost(ident) == "blend"
        tracker.span_exit("blend", token)
        assert tracker.innermost(ident) is None

    def test_untracked_span_is_ignored(self):
        tracker = SpanStackTracker()
        assert tracker.span_enter("frame") is None
        assert tracker.innermost(threading.get_ident()) is None
        tracker.span_exit("frame", None)  # must be a no-op

    def test_nesting_reports_innermost(self):
        tracker = SpanStackTracker()
        ident = threading.get_ident()
        outer = tracker.span_enter("decode")
        inner = tracker.span_enter("blend")
        assert tracker.innermost(ident) == "blend"
        tracker.span_exit("blend", inner)
        assert tracker.innermost(ident) == "decode"
        tracker.span_exit("decode", outer)
        assert tracker.innermost(ident) is None

    def test_stacks_are_per_thread(self):
        tracker = SpanStackTracker()
        seen = {}
        started = threading.Event()
        release = threading.Event()

        def other():
            token = tracker.span_enter("project")
            started.set()
            release.wait(timeout=30)
            tracker.span_exit("project", token)

        thread = threading.Thread(target=other)
        thread.start()
        assert started.wait(timeout=30)
        seen["other"] = tracker.innermost(thread.ident)
        seen["self"] = tracker.innermost(threading.get_ident())
        release.set()
        thread.join()
        assert seen == {"other": "project", "self": None}

    def test_kernel_stages_are_tracked(self):
        assert set(KERNEL_STAGES) <= set(TRACKED_SPANS)
        assert "decode" in TRACKED_SPANS


class TestCompositeObserver:
    def test_fans_out_in_order_with_per_observer_tokens(self):
        calls = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def span_enter(self, name):
                calls.append(("enter", self.tag, name))
                return f"{self.tag}-token"

            def span_exit(self, name, token):
                calls.append(("exit", self.tag, name, token))

        composite = CompositeObserver(Recorder("a"), Recorder("b"))
        token = composite.span_enter("blend")
        composite.span_exit("blend", token)
        assert calls == [
            ("enter", "a", "blend"),
            ("enter", "b", "blend"),
            ("exit", "a", "blend", "a-token"),
            ("exit", "b", "blend", "b-token"),
        ]

    def test_works_as_tracer_observer(self):
        tracker_a, tracker_b = SpanStackTracker(), SpanStackTracker()
        tracer = Tracer()
        tracer.observer = CompositeObserver(tracker_a, tracker_b)
        ident = threading.get_ident()
        with tracer.span("blend"):
            assert tracker_a.innermost(ident) == "blend"
            assert tracker_b.innermost(ident) == "blend"
        assert tracker_a.innermost(ident) is None
        assert tracker_b.innermost(ident) is None


def _spin_in_span(tracer, name, stop):
    while not stop.is_set():
        with tracer.span(name):
            total = 0
            for i in range(20_000):
                total += i * i


class TestStackSampler:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            StackSampler(interval_s=0.0)

    def test_samples_tag_tracked_spans(self):
        tracker = SpanStackTracker()
        tracer = Tracer()
        tracer.observer = tracker
        sampler = StackSampler(interval_s=0.002, tracker=tracker)
        stop = threading.Event()
        worker = threading.Thread(target=_spin_in_span, args=(tracer, "blend", stop))
        worker.start()
        try:
            sampler.start()
            time.sleep(0.3)
        finally:
            stop.set()
            worker.join()
            sampler.stop()
        counts = sampler.counts()
        assert sum(counts.values()) > 0
        attribution = attribute_stages(counts)
        assert attribution["stages"]["blend"] > 0
        # The spinning function itself must appear in the tagged stacks.
        tagged = [f for f in counts if f and f[-1] == "span:blend"]
        assert any("_spin_in_span" in frame for stack in tagged for frame in stack)

    def test_ignored_threads_are_not_sampled(self):
        sampler = StackSampler(interval_s=0.002)
        stop = threading.Event()
        worker = threading.Thread(target=_spin_in_span, args=(Tracer(), "blend", stop))
        worker.start()
        try:
            sampler.ignored.add(worker.ident)
            sampler.start()
            time.sleep(0.1)
        finally:
            stop.set()
            worker.join()
            sampler.stop()
        assert not any(
            "_spin_in_span" in frame for stack in sampler.counts() for frame in stack
        )

    def test_capture_returns_only_the_delta(self):
        tracker = SpanStackTracker()
        tracer = Tracer()
        tracer.observer = tracker
        sampler = StackSampler(interval_s=0.002, tracker=tracker)
        stop = threading.Event()
        worker = threading.Thread(target=_spin_in_span, args=(tracer, "project", stop))
        worker.start()
        try:
            delta = sampler.capture(0.2)  # inline mode: sampler not started
        finally:
            stop.set()
            worker.join()
        assert sum(delta.values()) > 0
        assert all(count > 0 for count in delta.values())
        # A second instant capture of an idle process adds ~nothing from
        # the worker (it exited); the delta must not resurface old counts.
        quiet = sampler.capture(0.02)
        assert not any(
            "_spin_in_span" in frame for stack in quiet for frame in stack
        )

    def test_reset_clears_counts(self):
        sampler = StackSampler(interval_s=0.002)
        sampler.sample_once()
        assert sampler.counts()
        sampler.reset()
        assert sampler.counts() == {}


class TestCollapseText:
    def test_folded_format(self):
        counts = {
            ("a.py:f", "b.py:g", "span:blend"): 3,
            ("a.py:f",): 1,
        }
        text = collapse_text(counts)
        assert text == "a.py:f 1\na.py:f;b.py:g;span:blend 3\n"

    def test_empty_counts(self):
        assert collapse_text({}) == ""


class TestAttributeStages:
    def test_exact_arithmetic(self):
        counts = {
            ("main.py:render", "span:blend"): 60,
            ("main.py:render", "span:project"): 20,
            ("main.py:render", "span:pair_build"): 10,
            ("main.py:other",): 10,  # active but unattributed
            ("threading.py:wait",): 400,  # idle: out of the denominator
        }
        result = attribute_stages(counts)
        assert result["total"] == 500
        assert result["idle"] == 400
        assert result["active"] == 100
        assert result["stages"] == {
            "blend": 60, "project": 20, "pair_build": 10, "boundary": 0, "sh": 0,
        }
        assert result["attributed_fraction"] == pytest.approx(0.9)

    def test_wait_leaves_only_match_at_the_leaf(self):
        # A real stack *through* threading.py that ends in user code is
        # active, not idle.
        counts = {("threading.py:run", "main.py:work"): 5}
        result = attribute_stages(counts)
        assert result["idle"] == 0 and result["active"] == 5

    def test_empty_counts(self):
        result = attribute_stages({})
        assert result == {
            "total": 0,
            "idle": 0,
            "active": 0,
            "stages": {stage: 0 for stage in KERNEL_STAGES},
            "attributed_fraction": 0.0,
        }

    def test_wait_leaves_cover_the_obvious_parks(self):
        assert "threading.py:wait" in WAIT_LEAVES
        assert "selectors.py:select" in WAIT_LEAVES


class TestMemoryAttributor:
    def test_tracked_span_allocation_is_charged(self):
        attributor = MemoryAttributor()
        tracer = Tracer()
        tracer.observer = attributor
        attributor.start()
        try:
            with tracer.span("decode"):
                block = [bytearray(1024) for _ in range(256)]
            assert block is not None
        finally:
            attributor.stop()
        stats = attributor.stats()
        assert stats["decode"]["count"] == 1
        assert stats["decode"]["peak_bytes"] >= 256 * 1024
        assert stats["decode"]["total_increase_bytes"] >= 256 * 1024

    def test_untracked_span_is_ignored(self):
        attributor = MemoryAttributor()
        tracer = Tracer()
        tracer.observer = attributor
        attributor.start()
        try:
            with tracer.span("frame"):
                bytearray(4096)
        finally:
            attributor.stop()
        assert attributor.stats() == {}

    def test_noop_without_tracemalloc_engaged(self):
        attributor = MemoryAttributor()
        tracer = Tracer()
        tracer.observer = attributor
        import tracemalloc

        assert not tracemalloc.is_tracing()
        with tracer.span("decode"):
            bytearray(4096)
        assert attributor.stats() == {}

    def test_reset(self):
        attributor = MemoryAttributor()
        tracer = Tracer()
        tracer.observer = attributor
        attributor.start()
        try:
            with tracer.span("blend"):
                bytearray(4096)
        finally:
            attributor.stop()
        assert attributor.stats()
        attributor.reset()
        assert attributor.stats() == {}
