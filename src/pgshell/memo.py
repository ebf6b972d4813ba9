"""The one memo layer: every cached result in pgshell goes through `memoized`.

Each wrapper is a `functools.lru_cache(maxsize=None)`, so results are
keyed by argument value (ideals hash by ring and generators) and kept
until `clear_caches()`.  `cache_info()` on a wrapper gives its hits and
misses.
"""

from __future__ import annotations

from functools import lru_cache

MEMOS: list = []


def memoized(fn):
    """Cache fn's results by argument value and register the cache."""
    wrapper = lru_cache(maxsize=None)(fn)
    MEMOS.append(wrapper)
    return wrapper


def clear_caches():
    """Empty every memoized cache."""
    for wrapper in MEMOS:
        wrapper.cache_clear()
