"""The one memo layer for results: every cached computation on ideals,
matrices and complexes goes through `memoized`.

Each wrapper is a `functools.lru_cache(maxsize=None)`, so results are
keyed by argument value (ideals hash by ring and generators) and kept
until `clear_caches()`.  `cache_info()` on a wrapper gives its hits and
misses.

Only the term-key dicts stay outside this layer, and `clear_caches()`
does not empty them: the dict inside each key that
`groebner._memoized_term_key` builds.  It maps a term to a pure function
of it, so it never goes stale, and it is freed with its key, where
`MEMOS` would keep it for the life of the process.
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
