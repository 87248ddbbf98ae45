"""Tests for the bounded artifact cache backing the evaluation runner."""

from __future__ import annotations

import pytest

from repro.store.cache import LRUCache


class TestLRUBasics:
    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put(("a",), 1)
        assert cache.get(("a",)) == 1
        assert ("a",) in cache
        assert len(cache) == 1

    def test_get_missing_returns_default(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("nope") is None
        assert cache.get("nope", default=-1) == -1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUCache(maxsize=-3)

    def test_clear_drops_entries(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None


class TestEvictionOrder:
    def test_lru_entry_evicted_first(self):
        cache = LRUCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)  # evicts "a", the least recently used
        assert "a" not in cache
        assert cache.keys() == ["b", "c", "d"]
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # "a" becomes most recent; "b" is now LRU
        cache.put("d", 4)
        assert "b" not in cache
        assert "a" in cache
        assert cache.keys() == ["c", "a", "d"]

    def test_overwrite_refreshes_recency(self):
        cache = LRUCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("a", 10)  # overwrite refreshes, "b" becomes LRU
        cache.put("d", 4)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_eviction_sequence_is_exact(self):
        cache = LRUCache(maxsize=2)
        inserted: list[str] = []
        evicted = []
        for key in ("a", "b", "c", "d", "e"):
            cache.put(key, key)
            inserted.append(key)
            for old in inserted:
                if old not in cache and old not in evicted:
                    evicted.append(old)
        assert evicted == ["a", "b", "c"]
        assert cache.keys() == ["d", "e"]


class TestGetOrCreate:
    def test_factory_runs_once(self):
        cache = LRUCache(maxsize=4)
        calls = []

        def factory():
            calls.append(1)
            return "artifact"

        assert cache.get_or_create("k", factory) == "artifact"
        assert cache.get_or_create("k", factory) == "artifact"
        assert len(calls) == 1

    def test_get_or_create_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: -1)  # hit, refresh
        cache.get_or_create("c", lambda: 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1

    def test_stats_track_hits_and_misses(self):
        cache = LRUCache(maxsize=4)
        cache.get_or_create("a", lambda: 1)  # miss
        cache.get_or_create("a", lambda: 1)  # hit
        cache.get("a")  # hit
        cache.get("missing")  # miss
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.requests == 4
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty_cache(self):
        assert LRUCache().stats.hit_rate == 0.0


class TestRunnerIntegration:
    def test_runner_uses_bounded_cache(self):
        from repro.eval import runner

        assert isinstance(runner.cache(), LRUCache)
        assert runner.cache().maxsize == runner.CACHE_MAXSIZE

    def test_runner_clear_cache_empties_store(self):
        from repro.eval.runner import EvalSetup, cache, clear_cache, load_scene_and_camera

        clear_cache()
        load_scene_and_camera(EvalSetup("train", quick=True))
        assert len(cache()) >= 1
        clear_cache()
        assert len(cache()) == 0


class TestPopResizeClear:
    def test_pop_removes_without_touching_stats(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        before = (cache.stats.hits, cache.stats.misses, cache.stats.evictions)
        assert cache.pop("a") == 1
        assert cache.pop("a", default="gone") == "gone"
        assert "a" not in cache
        assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == before

    def test_clear_keeps_stats_by_default(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_clear_reset_stats_zeroes_counters(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("a", lambda: 1)
        cache.clear(reset_stats=True)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        assert cache.stats.evictions == 0
        assert cache.stats.requests == 0


class TestRunnerCacheConfiguration:
    def test_clear_cache_reset_stats(self):
        from repro.eval.runner import EvalSetup, cache, clear_cache, load_scene_and_camera

        clear_cache(reset_stats=True)
        load_scene_and_camera(EvalSetup("train", quick=True))
        assert cache().stats.requests >= 1
        clear_cache(reset_stats=True)
        assert cache().stats.requests == 0


class TestThreadSafety:
    """The cache serialises all operations behind one reentrant lock."""

    def test_get_or_create_is_single_flight(self):
        import threading

        cache = LRUCache(maxsize=24)
        built: list[int] = []  # appended under the cache lock
        barrier = threading.Barrier(8)
        keys = list(range(24))

        def hammer():
            barrier.wait()
            for key in keys:
                cache.get_or_create(key, lambda key=key: built.append(key) or key)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Every key was built exactly once no matter how many threads raced.
        assert sorted(built) == keys
        assert cache.stats.misses == len(keys)
        assert cache.stats.hits == 8 * len(keys) - len(keys)
        assert all(cache.get(key) == key for key in keys)

    def test_recursive_factory_does_not_deadlock(self):
        cache = LRUCache(maxsize=2)

        def build_outer():
            return cache.get_or_create("inner", lambda: 1) + 1

        assert cache.get_or_create("outer", build_outer) == 2
        assert cache.get("inner") == 1

    def test_concurrent_mixed_operations_preserve_invariants(self):
        import threading

        cache = LRUCache(maxsize=32)
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def churn(worker: int):
            try:
                barrier.wait()
                for i in range(300):
                    key = (worker * 300 + i) % 96
                    cache.put(key, i)
                    cache.get(key)
                    if i % 7 == 0:
                        cache.pop(key)
                    if i % 97 == 0:
                        cache.keys()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert len(cache) <= 32
        stats = cache.stats
        assert stats.requests == stats.hits + stats.misses == 6 * 300
