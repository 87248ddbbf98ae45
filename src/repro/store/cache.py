"""Bounded LRU cache: the one memo type every layer shares.

The evaluation runner (:mod:`repro.eval.runner`), the scene store
(:class:`~repro.store.store.SceneStore`) and the executor's resident scene
tiers (:mod:`repro.exec.worker`) all memoise expensive artefacts —
synthetic scenes, decoded tiers, rendered frames, accelerator reports —
under hashable tuple keys.  A long-lived serving process streams thousands
of frames, so every such memo must be bounded: :class:`LRUCache` keeps a
``key -> artifact`` mapping of at most ``maxsize`` entries and evicts the
least-recently-used one once the bound is exceeded.

It is thread-safe (one reentrant lock around every operation), so the
request scheduler, the runner and the scene store can share one cache
across threads.  Hits refresh recency; overwriting an existing key
refreshes recency too.  The module is standard-library only, which is what
lets every layer above :mod:`repro.store` use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

#: Sentinel distinguishing "key absent" from a cached ``None``.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def reset(self) -> None:
        """Zero every counter (used by ``LRUCache.clear(reset_stats=True)``)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class LRUCache:
    """A bounded mapping from hashable keys to arbitrary artifacts.

    Parameters
    ----------
    maxsize:
        Maximum number of resident entries; must be positive.

    Notes
    -----
    The cache is **thread-safe**: every operation (including the stats
    counters) runs under one internal reentrant lock, so the request
    scheduler, the evaluation runner and the scene store can share caches
    across threads.  :meth:`get_or_create` holds the lock *across the
    factory call*, which serialises builds per cache — each key's factory
    runs exactly once no matter how many threads race on it, and a factory
    that recursively fills other keys of the same cache (as the evaluation
    runner's nested memos do) still works because the lock is reentrant.
    The price is that one slow factory blocks other threads' lookups on the
    same cache; for this codebase's caches (scene preparation, memoised
    renders) exactly-once construction is worth more than lookup overlap.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self._maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    @property
    def maxsize(self) -> int:
        """The eviction bound."""
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate keys from least- to most-recently used (snapshot)."""
        return iter(self.keys())

    def keys(self) -> list[Hashable]:
        """All resident keys, least-recently-used first (snapshot)."""
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the artifact under ``key`` (refreshing recency) or ``default``."""
        with self._lock:
            if key not in self._entries:
                self.stats.misses += 1
                return default
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, building it on a miss.

        The lock is held across the factory call, so each key's factory
        runs exactly once even under concurrent callers (single-flight);
        a factory that recursively fills other keys of the same cache (as
        the evaluation runner's nested memos do) is fine — the lock is
        reentrant from the building thread.
        """
        with self._lock:
            value = self.get(key, default=_MISSING)
            if value is _MISSING:
                value = factory()
                self.put(key, value)
            return value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return the artifact under ``key`` (no stats recorded).

        Explicit removal is bookkeeping, not a lookup: neither the hit/miss
        counters nor the eviction counter move (evictions count *capacity*
        pressure only).
        """
        with self._lock:
            return self._entries.pop(key, default)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry.

        Counters are **kept** by default so a serving process can clear
        artifacts without losing its lifetime hit-rate telemetry; pass
        ``reset_stats=True`` to zero them as well (the semantics benchmarks
        want between runs).
        """
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self.stats.reset()
